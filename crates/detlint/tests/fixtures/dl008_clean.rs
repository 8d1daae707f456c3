//! detlint fixture: DL008 clean — the reachable helper handles the
//! `None` arm instead of panicking, and panics inside `#[cfg(test)]`
//! code are exempt by design.

pub fn simulate_semester_with(seeds: &[u64]) -> u64 {
    let mut total = 0;
    for &seed in seeds {
        total += settle_invoice(seed);
    }
    total
}

fn settle_invoice(seed: u64) -> u64 {
    seed.checked_mul(3).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn settles() {
        // Test code may panic freely: this unwrap must not be flagged.
        assert_eq!(super::settle_invoice(2).checked_add(0).unwrap(), 6);
    }
}
