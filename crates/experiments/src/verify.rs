//! Runtime replay-equivalence verifier (`run-experiments verify-determinism`).
//!
//! The static pass (`opml-detlint`) catches nondeterminism *patterns*; this
//! module checks the *outcome*: it runs the headline experiments (`table1`
//! and `fig2`) twice per rayon thread count — 1 thread and the machine's
//! parallelism — with the same seed, hashes every serialized result, and
//! demands byte-identical digests across all four runs. Any hash-order
//! leak, float-reassociation under parallel scheduling, or wall-clock
//! dependence shows up as a digest mismatch.

use opml_report::Table;
use opml_simkernel::fnv1a64;

use crate::{fig2, table1};

/// Digest of one experiment run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunDigest {
    /// Rayon threads the run was pinned to.
    pub threads: usize,
    /// Repetition index at this thread count (0 or 1).
    pub rep: usize,
    /// FNV-1a 64 hash over every serialized artifact of the run.
    pub hash: u64,
}

/// Outcome of the verification sweep.
#[derive(Debug)]
pub struct VerifyOutcome {
    /// Seed used for every run.
    pub seed: u64,
    /// One digest per (thread count, repetition).
    pub digests: Vec<RunDigest>,
}

impl VerifyOutcome {
    /// True when every run produced the same digest.
    pub fn is_equivalent(&self) -> bool {
        self.digests.windows(2).all(|w| w[0].hash == w[1].hash)
    }

    /// Render the sweep as an opml-report table.
    pub fn to_table(&self) -> String {
        let mut table = Table::new(&["threads", "rep", "digest"]);
        for d in &self.digests {
            table.row(&[
                d.threads.to_string(),
                d.rep.to_string(),
                format!("{:016x}", d.hash),
            ]);
        }
        let verdict = if self.is_equivalent() {
            "replay-equivalent"
        } else {
            "MISMATCH"
        };
        table.footer(&["verdict".to_string(), String::new(), verdict.to_string()]);
        table.render()
    }
}

/// Run `table1` + `fig2` once — with telemetry recording — and digest
/// every serialized artifact, including the telemetry trace bytes, so a
/// nondeterministic event stream fails verification too.
fn digest_one(seed: u64) -> u64 {
    let telemetry = opml_telemetry::Telemetry::recording();
    let ctx = crate::run_paper_course_with(seed, &telemetry);
    let (t1_text, t1_cmp) = table1::run(&ctx);
    let (f2_text, f2_cmp) = fig2::run(&ctx);
    let mut blob = opml_telemetry::export_jsonl(&telemetry.take_events());
    blob.push_str(&t1_text);
    blob.push_str(&f2_text);
    blob.push_str(&serde_json::to_string(&t1_cmp).expect("serialize table1 comparisons"));
    blob.push_str(&serde_json::to_string(&f2_cmp).expect("serialize fig2 comparisons"));
    blob.push_str(&serde_json::to_string(&ctx.per_student).expect("serialize per-student usage"));
    blob.push_str(&serde_json::to_string(&ctx.rollup).expect("serialize rollup"));
    blob.push_str(&format!("records={}", ctx.outcome.ledger.records().len()));
    fnv1a64(blob.as_bytes())
}

/// Run the sweep: two repetitions at each thread count.
///
/// Thread counts default to `[1, available_parallelism]` when `threads`
/// is empty, so the check covers both the degenerate serial schedule and
/// the machine's real one.
pub fn verify_determinism(seed: u64, threads: &[usize]) -> VerifyOutcome {
    let default_counts;
    let counts: &[usize] = if threads.is_empty() {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        default_counts = [1, n.max(2)];
        &default_counts
    } else {
        threads
    };
    let mut digests = Vec::new();
    for &t in counts {
        for rep in 0..2 {
            let hash = opml_simkernel::parallel::with_thread_count(t, || digest_one(seed));
            digests.push(RunDigest {
                threads: t,
                rep,
                hash,
            });
        }
    }
    VerifyOutcome { seed, digests }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_match_across_thread_counts() {
        let out = verify_determinism(7, &[1, 3]);
        assert_eq!(out.digests.len(), 4);
        assert!(out.is_equivalent(), "{}", out.to_table());
    }
}
