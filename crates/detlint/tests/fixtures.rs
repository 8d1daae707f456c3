//! Fixture corpus: one known-bad and one known-clean file per rule
//! (DL001–DL009) under `tests/fixtures/`, analyzed exactly as the
//! workspace scan would see them. The corpus directory itself is
//! excluded from the workspace scan (`tests/fixtures` is skipped by
//! `collect_rs_files`) so the deliberately-dirty files never pollute
//! the real gate.
//!
//! Each fixture is analyzed in isolation: the taint and lock passes
//! union facts across everything they are given, so batching the corpus
//! would let one fixture's helpers contaminate another's verdict.

use std::path::{Path, PathBuf};

use opml_detlint::{analyze_sources, Analysis};

/// Every fixture in the corpus, in scan order.
const FIXTURES: &[&str] = &[
    "dl001_bad.rs",
    "dl001_clean.rs",
    "dl002_bad.rs",
    "dl002_clean.rs",
    "dl003_bad.rs",
    "dl003_clean.rs",
    "dl004_bad.rs",
    "dl004_clean.rs",
    "dl005_bad.rs",
    "dl005_clean.rs",
    "dl006_bad.rs",
    "dl006_clean.rs",
    "dl007_bad.rs",
    "dl007_clean.rs",
    "dl008_bad.rs",
    "dl008_clean.rs",
    "dl009_bad.rs",
    "dl009_clean.rs",
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// The workspace-relative path a fixture pretends to live at. DL008
/// only scopes `crates/{testbed,cohort,sched}/src`, so the panic
/// fixtures borrow a cohort path; everything else scans under a
/// neutral crate name.
fn scan_path(name: &str) -> String {
    if name.starts_with("dl008") {
        format!("crates/cohort/src/{name}")
    } else {
        format!("crates/lintfix/src/{name}")
    }
}

fn analyze_fixture(name: &str) -> Analysis {
    let src = std::fs::read_to_string(fixture_dir().join(name))
        .unwrap_or_else(|e| panic!("read fixture {name}: {e}"));
    analyze_sources(&[(scan_path(name), src)])
}

fn rules_of(a: &Analysis) -> Vec<&str> {
    a.findings.iter().map(|f| f.rule.as_str()).collect()
}

#[test]
fn bad_fixtures_flag_exactly_their_rule() {
    let expected: &[(&str, &[&str])] = &[
        ("dl001_bad.rs", &["DL001"]),
        ("dl002_bad.rs", &["DL002"]),
        ("dl003_bad.rs", &["DL003"]),
        ("dl004_bad.rs", &["DL004"]),
        // The reasonless allow leaves its DL001 live and adds a DL005;
        // the unknown rule id adds a second DL005.
        ("dl005_bad.rs", &["DL005", "DL001", "DL005"]),
        ("dl006_bad.rs", &["DL006"]),
        ("dl007_bad.rs", &["DL006", "DL007"]),
        ("dl008_bad.rs", &["DL008"]),
        ("dl009_bad.rs", &["DL009"]),
    ];
    for (name, want) in expected {
        let a = analyze_fixture(name);
        assert_eq!(
            &rules_of(&a),
            want,
            "{name} findings drifted: {:#?}",
            a.findings
        );
    }
}

#[test]
fn clean_fixtures_are_clean() {
    for name in FIXTURES.iter().filter(|n| n.ends_with("_clean.rs")) {
        let a = analyze_fixture(name);
        assert!(a.is_clean(), "{name} should be clean: {:#?}", a.findings);
    }
    // The DL005 clean fixture is clean *because* its suppression is
    // well-formed — the silenced DL001 must show up as suppressed.
    let a = analyze_fixture("dl005_clean.rs");
    assert_eq!(a.suppressed.len(), 1);
    assert_eq!(a.suppressed[0].finding.rule, "DL001");
}

/// The acceptance scenario for the interprocedural pass: a
/// cross-function hash-order leak on which every pre-existing rule
/// (DL001–DL005) is silent, caught only by the taint rules.
#[test]
fn cross_function_leak_invisible_to_old_rules() {
    let a = analyze_fixture("dl007_bad.rs");
    let rules = rules_of(&a);
    for old in ["DL001", "DL002", "DL003", "DL004", "DL005"] {
        assert!(
            !rules.contains(&old),
            "{old} unexpectedly fired on the split leak: {:#?}",
            a.findings
        );
    }
    assert!(rules.contains(&"DL006"), "helper not classified as source");
    assert!(rules.contains(&"DL007"), "caller sink not flagged");
}

/// DL008 crosses the call from the entry point into the helper and
/// names both ends in the message.
#[test]
fn panic_reachability_names_root_and_site() {
    let a = analyze_fixture("dl008_bad.rs");
    assert_eq!(rules_of(&a), ["DL008"]);
    let msg = &a.findings[0].message;
    assert!(msg.contains("settle_invoice"), "{msg}");
    assert!(msg.contains("simulate_semester_with"), "{msg}");
}

/// Golden test over the machine-readable output: every fixture's JSON
/// rendering, concatenated in corpus order. Regenerate deliberately
/// with `UPDATE_GOLDEN=1 cargo test -p opml-detlint --test fixtures`
/// and review the diff — this file is the contract for `--format json`.
#[test]
fn golden_json_output() {
    let mut got = String::new();
    for name in FIXTURES {
        got.push_str(&format!("== {name} ==\n"));
        got.push_str(&analyze_fixture(name).to_json());
        got.push('\n');
    }
    let path = fixture_dir().join("corpus.golden");
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want =
        std::fs::read_to_string(&path).expect("missing corpus.golden — run with UPDATE_GOLDEN=1");
    assert_eq!(
        got, want,
        "fixture JSON drifted; if intentional, regenerate with UPDATE_GOLDEN=1 and review"
    );
}

/// The linter holds itself to its own standard: detlint's sources pass
/// detlint.
#[test]
fn detlint_lints_itself_clean() {
    let src_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut sources = Vec::new();
    let mut names: Vec<PathBuf> = std::fs::read_dir(&src_dir)
        .expect("read src dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .collect();
    names.sort();
    for path in names {
        let rel = format!(
            "crates/detlint/src/{}",
            path.file_name().expect("file name").to_string_lossy()
        );
        let src = std::fs::read_to_string(&path).expect("read source");
        sources.push((rel, src));
    }
    assert!(sources.len() >= 8, "detlint source files went missing?");
    let a = analyze_sources(&sources);
    assert!(
        a.is_clean(),
        "detlint fails its own lint: {:#?}",
        a.findings
    );
}
