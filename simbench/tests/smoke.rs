//! Smoke test: every workload, small, untraced and traced. Every metric
//! `BENCHMARK.json` names is emitted with its unit, nothing fails on a
//! clean run, a corrupted destination byte raises `failed_share`, and a
//! runner's panic is a failed iteration, not a benchmark crash.

use strom_simbench::workloads::iteration;
use strom_simbench::{run_traced, run_untraced, Options, RunReport, Workload};

/// `(name, unit)` of every metric in one `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |obj: &str, key: &str| -> String {
        let at = obj.find(&format!("\"{key}\"")).expect("field present");
        let rest = &obj[at + key.len() + 2..];
        let open = rest.find('"').expect("value opens") + 1;
        let len = rest[open..].find('"').expect("value closes");
        rest[open..open + len].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|obj| (field(obj, "name"), field(obj, "unit")))
        .collect()
}

fn opts(workload: Workload) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.0,
        scale: 0.02,
        corrupt: false,
    }
}

fn emitted(r: &RunReport) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let e2e = declared("end_to_end");
    let layers = declared("per_layer");
    assert!(e2e.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let r = run_untraced(&opts(w));
        assert!(r.correct(), "{}: {}", w.name(), r.to_json());
        assert_eq!(emitted(&r), e2e, "{} end-to-end metrics", w.name());
        assert!(r.metrics.iter().all(|m| m.value > 0.0), "{}", r.to_json());

        let t = run_traced(&opts(w));
        assert!(t.correct(), "{} traced: {}", w.name(), t.to_json());
        assert_eq!(emitted(&t), layers, "{} per-layer metrics", w.name());
    }
}

#[test]
fn corrupted_destination_byte_raises_failed_share() {
    let clean = run_untraced(&Options {
        scale: 0.1,
        ..opts(Workload::BulkWrite)
    });
    assert_eq!(clean.failed_share(), 0.0, "{}", clean.to_json());
    let bad = run_untraced(&Options {
        scale: 0.1,
        corrupt: true,
        ..opts(Workload::BulkWrite)
    });
    assert!(bad.failed_share() > 0.0, "{}", bad.to_json());
    assert!(!bad.correct());
    assert!(bad.to_json().starts_with("{\"correct\": false"));
}

#[test]
fn runner_panic_is_a_failed_iteration() {
    // 1,050,000 tuples overflow the chain runner's 8 MiB pinned region
    // although `ScenarioSpec::validate` admits the size: the runner
    // panics, and the iteration must report its operation failed.
    let it = iteration(
        &Options {
            scale: 1.05,
            ..opts(Workload::ChainHll)
        },
        7,
    );
    assert_eq!((it.attempted, it.failed), (1, 1), "{it:?}");
}
