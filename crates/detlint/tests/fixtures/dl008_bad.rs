//! detlint fixture: DL008 — a panic site transitively reachable from a
//! simulation entry point. The analysis must cross the call from
//! `simulate_semester_with` into the helper.
//! Expected: one DL008 finding on the `.unwrap()` in `settle_invoice`,
//! attributed to the `simulate_semester_with` root.

pub fn simulate_semester_with(seeds: &[u64]) -> u64 {
    let mut total = 0;
    for &seed in seeds {
        total += settle_invoice(seed);
    }
    total
}

fn settle_invoice(seed: u64) -> u64 {
    let tripled: Option<u64> = seed.checked_mul(3);
    tripled.unwrap()
}
