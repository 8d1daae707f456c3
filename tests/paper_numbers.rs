//! Paper-numbers regression suite (tier 1).
//!
//! EXPERIMENTS.md claims that at the default seed every paper-vs-
//! measured comparison lands within its declared tolerance — 71 of 71.
//! This test pins that claim: it reruns every section `run-experiments`
//! renders (the same `paper_sections` list), at seed 42, and fails
//! listing each comparison that fell outside tolerance, plus the total
//! row count so a silently dropped (or duplicated) comparison also
//! fails loudly.
//!
//! The tolerances let each number drift, so the same run's ledger is
//! also pinned exactly: its outcome digest must equal the committed
//! `tests/golden/paper_seed42.digest`. The page rendered from the same
//! sections must equal the committed EXPERIMENTS.md byte for byte.

use ml_ops_course::experiments::scale::digest_outcome;
use ml_ops_course::experiments::{
    experiments_markdown, paper_sections, run_paper_course, ExperimentContext, PaperSection,
};
use std::sync::OnceLock;

/// Total comparisons across all sections at the default seed (the "71
/// of 71" in EXPERIMENTS.md). Adding or removing a comparison is fine —
/// it just has to be deliberate enough to update this pin.
const PINNED_TOTAL: usize = 71;

/// The paper course at seed 42, run once for every test.
fn paper_course() -> &'static ExperimentContext {
    static CONTEXT: OnceLock<ExperimentContext> = OnceLock::new();
    CONTEXT.get_or_init(|| run_paper_course(42))
}

/// Its rendered sections, built once: the 5-seed sweep and the
/// ablation inside them are the slowest part of this file.
fn sections() -> &'static [PaperSection] {
    static SECTIONS: OnceLock<Vec<PaperSection>> = OnceLock::new();
    SECTIONS.get_or_init(|| paper_sections(paper_course()))
}

#[test]
fn all_paper_comparisons_stay_within_declared_tolerance() {
    let mut total = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for section in sections() {
        for row in &section.comparisons.rows {
            total += 1;
            if !row.within_tolerance() {
                failures.push(format!(
                    "[{}] {}: paper {} vs measured {} (ratio {:.4}, tol ±{:.0}%)",
                    section.title,
                    row.name,
                    row.paper,
                    row.measured,
                    row.ratio(),
                    row.rel_tolerance * 100.0
                ));
            }
        }
    }
    assert!(
        failures.is_empty(),
        "{} of {total} comparisons out of tolerance:\n{}",
        failures.len(),
        failures.join("\n")
    );
    assert_eq!(
        total, PINNED_TOTAL,
        "comparison count drifted from the pinned {PINNED_TOTAL}; \
         update the pin only with a deliberate experiment change"
    );
}

#[test]
fn paper_ledger_matches_golden_digest() {
    let got = format!("{:016x}", digest_outcome(&paper_course().outcome));
    assert_eq!(
        got,
        include_str!("golden/paper_seed42.digest").trim(),
        "paper course outcome digest differs from tests/golden/paper_seed42.digest"
    );
}

#[test]
fn experiments_md_matches_the_committed_file() {
    let committed = include_str!("../EXPERIMENTS.md");
    let rendered = experiments_markdown(paper_course().seed, sections(), None);
    if rendered != committed {
        let line = rendered
            .lines()
            .zip(committed.lines())
            .position(|(got, want)| got != want)
            .map_or_else(
                || rendered.lines().count().min(committed.lines().count()) + 1,
                |i| i + 1,
            );
        panic!(
            "the rendered page differs from EXPERIMENTS.md at line {line}; \
             regenerate it with `run-experiments --write-md EXPERIMENTS.md`"
        );
    }
}
