// Out-of-scope fixture: the same patterns as the positive fixtures,
// in a crate outside the scope. Must produce zero diagnostics.
#[derive(Serialize)]
pub struct Elsewhere;

pub fn everything_goes(seed: u64, t: SimTime) -> u32 {
    let _ = t.as_micros() + 1;
    seed as u32
}
