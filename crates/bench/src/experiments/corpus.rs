//! The `figures corpus` entry point: runs the declarative workload
//! corpus — every scenario family at both 10 G and 100 G — writes the
//! machine-readable `CORPUS.json` report (schema `strom-corpus-v1`),
//! and fails loudly on any fingerprint drift, perf-gate violation, or
//! failed cross-platform check.
//!
//! After an *intentional* behaviour change (wire format, timing model,
//! scheduler order), re-pin the fingerprints with:
//!
//! ```text
//! STROM_BLESS=1 cargo run --release -p strom-bench --bin figures -- corpus
//! ```
//!
//! which merges this run's digests into
//! `crates/nic/tests/golden/corpus.fingerprints` instead of checking
//! them. `--full` folds three derived seeds per case (and is pinned
//! separately from `--quick`).

use std::fmt::Write as _;

use strom_nic::corpus::{run_corpus, CorpusReport, CorpusScale};

use super::Scale;

/// Where the report lands, relative to the working directory.
pub const REPORT_PATH: &str = "CORPUS.json";

fn render(report: &CorpusReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## Workload corpus ({} scale, {} cases, {} cross-checks)\n",
        report.scale.name(),
        report.cases.len(),
        report.cross_checks.len()
    );
    let _ = writeln!(
        out,
        "{:<32} {:>10} {:>12} {:>18}  status",
        "case", "elapsed", "gates", "fingerprint"
    );
    for case in &report.cases {
        let elapsed = case.perf("elapsed_us").unwrap_or(0.0);
        let gates_held = case.gates.iter().filter(|g| g.pass).count();
        let status = if case.pass() {
            "ok"
        } else if !case.fingerprint_ok() {
            "FINGERPRINT DRIFT"
        } else {
            "GATE VIOLATION"
        };
        let _ = writeln!(
            out,
            "{:<32} {:>8.1}us {:>9}/{:<2} {:#018x}  {}",
            case.id(),
            elapsed,
            gates_held,
            case.gates.len(),
            case.fingerprint,
            status
        );
    }
    out.push('\n');
    for c in &report.cross_checks {
        let _ = writeln!(
            out,
            "cross-check [{}] {}: {:.1} < {:.1} — {}",
            c.kind,
            c.label,
            c.lhs,
            c.rhs,
            if c.pass { "ok" } else { "FAILED" }
        );
    }
    out
}

/// Runs the corpus at `scale`, writes [`REPORT_PATH`], and panics with
/// the itemized failure list unless every case passes (or `STROM_BLESS`
/// is set, in which case this run's fingerprints become the goldens).
pub fn run(scale: Scale) -> String {
    let corpus_scale = match scale {
        Scale::Quick => CorpusScale::Quick,
        Scale::Full => CorpusScale::Full,
    };
    let report = run_corpus(corpus_scale);
    std::fs::write(REPORT_PATH, format!("{}\n", report.to_value())).expect("write CORPUS.json");
    let mut out = render(&report);
    if std::env::var_os("STROM_BLESS").is_some() {
        let path = report.bless().expect("write corpus goldens");
        let _ = writeln!(
            out,
            "\nblessed {} fingerprints ({} scale) -> {}",
            report.cases.len(),
            report.scale.name(),
            path.display()
        );
        return out;
    }
    let failures = report.failures();
    assert!(
        failures.is_empty(),
        "corpus gate failed ({} failure(s); full report in {REPORT_PATH}):\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    let _ = writeln!(out, "\ncorpus gate: all {} cases pass", report.cases.len());
    out
}
