//! Accepted-findings baseline: the determinism ratchet's memory.
//!
//! A committed `detlint.baseline.json` records findings that are
//! accepted for now; the CI gate fails only on findings *not* in the
//! baseline, the same one-way ratchet the `BENCH_*.json` floors give
//! perf. Entries are keyed by `(rule, file, excerpt)` — excerpts (the
//! trimmed source line) survive unrelated line drift, while any edit to
//! the flagged line itself re-opens the finding for review. Identical
//! lines are disambiguated by a `count`.
//!
//! The vendored `serde_json` shim only serializes, so the file is read
//! back with the workspace's JSON reader, [`opml_profiler::Json`], and
//! mapped field by field. Unknown keys, missing fields and mistyped
//! values are rejected, so a hand-edit cannot silently widen the
//! baseline.

use std::collections::BTreeMap;
use std::path::Path;

use opml_profiler::Json;
use serde::Serialize;

use crate::{Analysis, Finding};

/// Schema tag written into (and required from) every baseline file.
pub const BASELINE_SCHEMA: &str = "detlint-baseline/v1";

/// One accepted finding (aggregated over identical lines).
#[derive(Debug, Clone, Serialize, PartialEq, Eq, PartialOrd, Ord)]
pub struct BaselineEntry {
    /// Rule id (`DL001`…).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// Trimmed source-line excerpt the finding anchors to.
    pub excerpt: String,
    /// How many findings share this (rule, file, excerpt) key.
    pub count: usize,
}

/// A set of accepted findings.
#[derive(Debug, Default, Serialize)]
pub struct Baseline {
    /// Schema tag ([`BASELINE_SCHEMA`]).
    pub schema: String,
    /// Accepted findings, sorted by (rule, file, excerpt).
    pub findings: Vec<BaselineEntry>,
}

impl Baseline {
    /// Aggregate every finding of `analysis` into a fresh baseline.
    pub fn from_analysis(analysis: &Analysis) -> Baseline {
        let mut counts: BTreeMap<(String, String, String), usize> = BTreeMap::new();
        for f in &analysis.findings {
            *counts
                .entry((f.rule.clone(), f.file.clone(), f.excerpt.clone()))
                .or_insert(0) += 1;
        }
        Baseline {
            schema: BASELINE_SCHEMA.to_string(),
            findings: counts
                .into_iter()
                .map(|((rule, file, excerpt), count)| BaselineEntry {
                    rule,
                    file,
                    excerpt,
                    count,
                })
                .collect(),
        }
    }

    /// Serialize to the committed JSON form.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).unwrap_or_else(|e| format!("{{\"error\": \"{e}\"}}"))
    }

    /// Load a baseline file.
    pub fn load(path: &Path) -> Result<Baseline, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Budget remaining per key, for matching.
    fn budgets(&self) -> BTreeMap<(String, String, String), usize> {
        self.findings
            .iter()
            .map(|e| ((e.rule.clone(), e.file.clone(), e.excerpt.clone()), e.count))
            .collect()
    }
}

impl Analysis {
    /// Split the findings against `baseline`: matched findings move to
    /// [`Analysis::baselined`], unmatched ones stay in
    /// [`Analysis::findings`] and keep failing the gate. Returns the
    /// stale entries — baseline keys no finding consumed — so the
    /// ratchet can be tightened.
    pub fn apply_baseline(&mut self, baseline: &Baseline) -> Vec<BaselineEntry> {
        let mut budgets = baseline.budgets();
        let mut active: Vec<Finding> = Vec::new();
        let mut matched: Vec<Finding> = Vec::new();
        for f in self.findings.drain(..) {
            let key = (f.rule.clone(), f.file.clone(), f.excerpt.clone());
            let consumed = match budgets.get_mut(&key) {
                Some(budget) if *budget > 0 => {
                    *budget -= 1;
                    true
                }
                _ => false,
            };
            if consumed {
                matched.push(f);
            } else {
                active.push(f);
            }
        }
        self.findings = active;
        self.baselined = matched;
        baseline
            .findings
            .iter()
            .filter_map(|e| {
                let left = budgets[&(e.rule.clone(), e.file.clone(), e.excerpt.clone())];
                (left > 0).then(|| BaselineEntry {
                    count: left,
                    ..e.clone()
                })
            })
            .collect()
    }
}

fn parse(text: &str) -> Result<Baseline, String> {
    let Json::Obj(fields) = Json::parse(text)? else {
        return Err("baseline is not a JSON object".to_string());
    };
    let mut schema = None;
    let mut findings = Vec::new();
    for (key, value) in &fields {
        match key.as_str() {
            "schema" => schema = Some(string_field(key, value)?),
            "findings" => {
                findings = value
                    .as_array()
                    .ok_or("`findings` is not an array")?
                    .iter()
                    .map(entry)
                    .collect::<Result<_, _>>()?;
            }
            other => return Err(format!("unknown top-level key `{other}`")),
        }
    }
    match schema.as_deref() {
        Some(BASELINE_SCHEMA) => Ok(Baseline {
            schema: BASELINE_SCHEMA.to_string(),
            findings,
        }),
        Some(other) => Err(format!(
            "unsupported baseline schema `{other}` (expected `{BASELINE_SCHEMA}`)"
        )),
        None => Err("baseline is missing the `schema` field".to_string()),
    }
}

fn entry(value: &Json) -> Result<BaselineEntry, String> {
    let Json::Obj(fields) = value else {
        return Err("baseline entry is not a JSON object".to_string());
    };
    let (mut rule, mut file, mut excerpt, mut count) = (None, None, None, None);
    for (key, value) in fields {
        match key.as_str() {
            "rule" => rule = Some(string_field(key, value)?),
            "file" => file = Some(string_field(key, value)?),
            "excerpt" => excerpt = Some(string_field(key, value)?),
            "count" => {
                let n = value.as_u64().and_then(|n| usize::try_from(n).ok());
                count = Some(n.ok_or_else(|| {
                    format!("`count` must be a non-negative integer, found {value:?}")
                })?);
            }
            other => return Err(format!("unknown entry key `{other}`")),
        }
    }
    Ok(BaselineEntry {
        rule: rule.ok_or("entry missing `rule`")?,
        file: file.ok_or("entry missing `file`")?,
        excerpt: excerpt.ok_or("entry missing `excerpt`")?,
        count: count.unwrap_or(1),
    })
}

fn string_field(key: &str, value: &Json) -> Result<String, String> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("`{key}` must be a string, found {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &str, file: &str, excerpt: &str) -> Finding {
        Finding {
            rule: rule.to_string(),
            file: file.to_string(),
            line: 1,
            message: String::new(),
            excerpt: excerpt.to_string(),
        }
    }

    #[test]
    fn roundtrip_through_json() {
        let mut a = Analysis::default();
        a.findings
            .push(finding("DL008", "crates/x/src/a.rs", "x.unwrap()"));
        a.findings
            .push(finding("DL008", "crates/x/src/a.rs", "x.unwrap()"));
        a.findings
            .push(finding("DL002", "crates/y/src/b.rs", "m.keys().collect()"));
        let b = Baseline::from_analysis(&a);
        let parsed = parse(&b.to_json()).expect("roundtrip parse");
        assert_eq!(parsed.findings, b.findings);
        assert_eq!(parsed.findings[1].count, 2);
    }

    #[test]
    fn apply_matches_and_reports_stale() {
        let mut a = Analysis::default();
        a.findings.push(finding("DL008", "f.rs", "x.unwrap()"));
        a.findings.push(finding("DL008", "f.rs", "brand_new()"));
        let baseline = Baseline {
            schema: BASELINE_SCHEMA.to_string(),
            findings: vec![
                BaselineEntry {
                    rule: "DL008".into(),
                    file: "f.rs".into(),
                    excerpt: "x.unwrap()".into(),
                    count: 2,
                },
                BaselineEntry {
                    rule: "DL001".into(),
                    file: "gone.rs".into(),
                    excerpt: "Instant::now()".into(),
                    count: 1,
                },
            ],
        };
        let stale = a.apply_baseline(&baseline);
        assert_eq!(a.findings.len(), 1, "{:?}", a.findings);
        assert_eq!(a.findings[0].excerpt, "brand_new()");
        assert_eq!(a.baselined.len(), 1);
        // One unused unwrap budget + the vanished DL001 entry are stale.
        assert_eq!(stale.len(), 2);
        assert_eq!(stale[0].count, 1);
    }

    #[test]
    fn rejects_wrong_schema_and_garbage() {
        assert!(parse("{\"schema\": \"other/v9\", \"findings\": []}").is_err());
        assert!(parse("{\"findings\": []}").is_err());
        assert!(parse("not json").is_err());
        assert!(parse(
            "{\"schema\": \"detlint-baseline/v1\", \"findings\": [{\"rule\": \"DL001\"}]}"
        )
        .is_err());
        assert!(parse("{\"schema\": \"detlint-baseline/v1\", \"extra\": 1}").is_err());
        let entry = |extra: &str| {
            format!(
                "{{\"schema\": \"detlint-baseline/v1\", \"findings\": [{{\"rule\": \"DL001\", \
                 \"file\": \"f.rs\", \"excerpt\": \"x\"{extra}}}]}}"
            )
        };
        let defaulted = parse(&entry("")).expect("count is optional");
        assert_eq!(defaulted.findings[0].count, 1);
        for bad in [
            ", \"note\": \"why\"",
            ", \"count\": -1",
            ", \"count\": 1.5",
            ", \"count\": \"2\"",
        ] {
            assert!(parse(&entry(bad)).is_err(), "accepted {bad}");
        }
    }
}
