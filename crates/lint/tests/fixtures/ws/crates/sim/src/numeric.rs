// N-rule positive fixture: every numeric-determinism violation once.
pub fn truncated_seed(seed: u64) -> u32 {
    seed as u32
}

pub fn truncated_millis(t: Duration) -> i32 {
    t.as_millis() as i32
}

pub fn raw_offset(start: SimTime, end: SimTime) -> u64 {
    end.as_micros() - start.as_micros()
}

// Patterns that must NOT trip the rules:
// `seed as u32` in a comment is fine.
pub fn innocent(items: &[u8], seed: u64) -> (u32, u64, &'static str) {
    let scaled = seed as u64;
    (items.len() as u32, scaled, "t.as_micros() + 1 in a string is fine")
}

#[cfg(test)]
mod tests {
    // Test code is exempt.
    #[test]
    fn test_code_is_exempt() {
        let seed: u64 = 7;
        let _ = seed as u32;
    }
}
