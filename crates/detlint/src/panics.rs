//! DL008: panic-freedom along the simulation path.
//!
//! PR 3 promised a panic-free typed-error failure path through testbed,
//! cohort, and sched; this pass machine-enforces it. Starting from the
//! simulation entry points ([`PANIC_ROOTS`]) it walks the shared
//! [`crate::graph`] call graph (name-resolved, overapproximate) and
//! flags every panic site inside a reached function that lives in one
//! of the gated crates ([`PANIC_SCOPE`]):
//!
//! - `.unwrap()` / `.expect(…)`
//! - `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//! - slice/array indexing `x[i]` (except the infallible full-range
//!   `x[..]`)
//!
//! Test-only code (`#[cfg(test)]` items, `#[test]` fns) is exempt, and
//! invariant-backed cold-path sites are allow-listed in source with
//! `// detlint::allow(DL008): <the invariant>` — the same mechanism
//! every other rule uses, so the justification sits next to the code.

use std::collections::BTreeMap;

use crate::graph::{is_non_callee, CallGraph, FnId};
use crate::lexer::{Lexed, TokenKind};
use crate::rules::excerpt;
use crate::Finding;

/// Simulation entry points the reachability walk starts from: the
/// semester driver's public entry points (cohort), the scheduler's
/// fallible runner (sched), and the service-mode soak (serve).
/// Everything the simulation can execute is reachable from these by
/// construction. A root that names no function would silently drop
/// its coverage, so `tests/detlint_clean.rs` requires each one to be
/// declared under [`PANIC_SCOPE`].
pub const PANIC_ROOTS: &[&str] = &[
    "simulate_semester",
    "simulate_semester_with",
    "simulate_semester_exec",
    "simulate_semester_streaming_serial",
    "try_run",
    "run_service",
];

/// Crates whose production sources are held to the panic-free contract.
pub const PANIC_SCOPE: &[&str] = &[
    "crates/testbed/src",
    "crates/cohort/src",
    "crates/sched/src",
    "crates/serve/src",
];

/// Macro names that unconditionally panic when reached.
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Method names that panic on the error/empty variant.
const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Run the reachability pass and append DL008 findings.
pub fn check(sources: &[(&str, &str, &Lexed)], graph: &CallGraph, findings: &mut Vec<Finding>) {
    let reached: BTreeMap<FnId, String> = graph.reachable_from(PANIC_ROOTS);
    for (&(fi, gi), root) in &reached {
        let (path, src, lexed) = sources[fi];
        if !PANIC_SCOPE.iter().any(|scope| path.starts_with(scope)) {
            continue;
        }
        let span = &graph.files[fi].fns[gi];
        if span.is_test {
            continue;
        }
        let lines: Vec<&str> = src.lines().collect();
        let toks = &lexed.tokens;
        let body = &toks[span.open..=span.close];
        let mut i = 0;
        while i < body.len() {
            let t = &body[i];
            // `.unwrap(` / `.expect(`
            if t.text == "."
                && body
                    .get(i + 1)
                    .is_some_and(|m| PANIC_METHODS.contains(&m.text.as_str()))
                && body.get(i + 2).map(|t| t.text.as_str()) == Some("(")
            {
                let m = &body[i + 1];
                findings.push(site(
                    path,
                    m.line,
                    format!(
                        "`.{}(…)` in `{}`, reachable from simulation entry `{root}`; return a \
                         typed error, or annotate the invariant that makes this unreachable",
                        m.text, span.name
                    ),
                    &lines,
                ));
                i += 3;
                continue;
            }
            // `panic!` / `unreachable!` / `todo!` / `unimplemented!`
            if t.kind == TokenKind::Ident
                && PANIC_MACROS.contains(&t.text.as_str())
                && body.get(i + 1).map(|t| t.text.as_str()) == Some("!")
            {
                findings.push(site(
                    path,
                    t.line,
                    format!(
                        "`{}!` in `{}`, reachable from simulation entry `{root}`; replace with a \
                         typed error, or annotate the invariant that makes this unreachable",
                        t.text, span.name
                    ),
                    &lines,
                ));
                i += 2;
                continue;
            }
            // Slice/array indexing `x[i]` (skip the infallible `x[..]`).
            if t.kind == TokenKind::Ident
                && !is_non_callee(&t.text)
                && body.get(i + 1).map(|t| t.text.as_str()) == Some("[")
                && !(body.get(i + 2).map(|t| t.text.as_str()) == Some(".")
                    && body.get(i + 3).map(|t| t.text.as_str()) == Some(".")
                    && body.get(i + 4).map(|t| t.text.as_str()) == Some("]"))
            {
                findings.push(site(
                    path,
                    t.line,
                    format!(
                        "indexing `{}[…]` in `{}`, reachable from simulation entry `{root}`, \
                         panics when out of bounds; use `.get(…)` with a typed error, or \
                         annotate the bound that holds",
                        t.text, span.name
                    ),
                    &lines,
                ));
                i += 2;
                continue;
            }
            i += 1;
        }
    }
}

fn site(file: &str, line: u32, message: String, lines: &[&str]) -> Finding {
    Finding {
        rule: "DL008".to_string(),
        file: file.to_string(),
        line,
        message,
        excerpt: excerpt(lines, line),
    }
}
