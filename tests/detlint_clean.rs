//! Tier-1 gate: the workspace must be `opml-detlint`-clean modulo the
//! committed baseline.
//!
//! Every finding — banned nondeterminism API, hash-order leak, rayon
//! hazard, lock-order cycle, determinism taint, reachable panic site, or
//! malformed suppression — fails this test unless it is either
//! suppressed in-source (`// detlint::allow(DL00x): reason`) or recorded
//! in `detlint.baseline.json`. The baseline is a one-way ratchet:
//! regenerate it only with `detlint --write-baseline` and review the
//! diff like any other code change.

use opml_detlint::graph::find_functions;
use opml_detlint::lexer::lex;
use opml_detlint::panics::{PANIC_ROOTS, PANIC_SCOPE};
use std::path::{Path, PathBuf};

#[test]
fn workspace_is_detlint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut analysis = opml_detlint::analyze_workspace(root).expect("scan workspace sources");
    assert!(
        analysis.files_scanned > 50,
        "scan looks truncated: {} files",
        analysis.files_scanned
    );
    let baseline = opml_detlint::baseline::Baseline::load(&root.join("detlint.baseline.json"))
        .expect("load committed baseline");
    let stale = analysis.apply_baseline(&baseline);
    assert!(
        analysis.is_clean(),
        "detlint found {} finding(s) not in the baseline:\n{}",
        analysis.findings.len(),
        analysis.to_table()
    );
    assert!(
        stale.is_empty(),
        "stale baseline entries (fixed findings still accepted — tighten the ratchet): {stale:#?}"
    );
    // Every suppression must carry a reason (enforced at match time — a
    // reasonless allow never suppresses — so just assert the invariant).
    for s in &analysis.suppressed {
        assert!(
            !s.reason.is_empty(),
            "suppression without reason at {}:{}",
            s.finding.file,
            s.finding.line
        );
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_panic_root_is_a_declared_entry_point() {
    // The DL008 walk skips a root that names no function, so a renamed
    // or deleted entry point would drop its coverage silently.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for scope in PANIC_SCOPE {
        rust_files(&root.join(scope), &mut files);
    }
    let mut declared = std::collections::BTreeSet::new();
    for file in &files {
        let src = std::fs::read_to_string(file).expect("read source");
        for span in find_functions(&lex(&src).tokens) {
            if !span.is_test {
                declared.insert(span.name);
            }
        }
    }
    for entry in PANIC_ROOTS {
        assert!(
            declared.contains(*entry),
            "DL008 root `{entry}` is not a non-test fn under {PANIC_SCOPE:?}"
        );
    }
}
