// S-001 fixtures: one listed type, one unlisted derive, one unlisted
// manual impl, one unlisted type in test code.

#[derive(Serialize)]
pub struct Listed {
    pub x: u32,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Unlisted {
    pub y: u32,
}

pub struct Manual;

impl Serialize for Manual {
    fn to_content(&self) {}
}

#[cfg(test)]
mod tests {
    #[derive(Serialize)]
    struct TestOnly;
}
