//! Full evaluation report: every table and figure of the paper, printed.
//!
//! Thin wrapper over `opml-experiments` for users of the facade crate —
//! equivalent to `cargo run -p opml-experiments --bin run-experiments`
//! but showing the library API.
//!
//! ```sh
//! cargo run --release --example semester_report
//! ```

use ml_ops_course::experiments::{paper_sections, run_paper_course};

fn main() {
    let seed = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(42u64);
    let sections = paper_sections(&run_paper_course(seed));

    println!("seed {seed}\n");
    for section in &sections {
        println!("{}\n{}", section.title, section.text);
    }
    let rows = sections.iter().flat_map(|s| &s.comparisons.rows);
    let total = rows.clone().count();
    let pass = rows.filter(|c| c.within_tolerance()).count();
    println!("paper-vs-measured: {pass}/{total} comparisons within tolerance");
}
