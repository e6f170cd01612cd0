//! Chained kernel pipelines on the cluster testbed (§8's "chaining
//! kernels" outlook): filter → aggregate → HLL and CRC-verify → shuffle.
//!
//! Each point is one [`run_filter_agg_hll`] / [`run_crcverify_shuffle`]
//! invocation: the chain is deployed as a single fabric kernel on the
//! server NIC, configured with one RPC carrying every stage's params,
//! and fed one RPC WRITE stream whose tuples flow stage to stage through
//! the chain's in-fabric `Forward` routing — no host round trips between
//! stages. Every run is verified end to end against host references
//! (filter summary, aggregate record, HLL registers, partition bytes,
//! CRC verdict) before its throughput is quoted, and the corrupt column
//! shows the in-band `ERR_*` sentinel path: a flipped payload byte
//! surfaces as `ERR_INCONSISTENT` at the client while the downstream
//! shuffle stage is starved.

use strom_nic::{run_crcverify_shuffle, run_filter_agg_hll, ChainRun, ChainSpec};
use strom_sim::report::{render_table, Figure, Series};
use strom_sim::{default_workers, parallel_map};

use super::Scale;

/// Base seed; each swept point folds its tuple count in so points are
/// independent draws.
pub const SEED: u64 = 0xC4A1_0001;

/// The tuple-count axis (8 B per tuple).
pub fn tuple_counts(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Quick => vec![1_000, 4_000, 16_000],
        Scale::Full => vec![1_000, 4_000, 16_000, 64_000, 256_000],
    }
}

/// The tuned throughput point of the figure's error table: large enough
/// that per-stream setup amortizes, small enough for a CI smoke run.
pub fn bench_tuples(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 16_000,
        Scale::Full => 64_000,
    }
}

/// The spec for one swept point.
pub fn spec(tuples: usize) -> ChainSpec {
    ChainSpec::new(tuples, SEED ^ tuples as u64)
}

fn gbps(run: &ChainRun) -> f64 {
    // GiB/s of payload through the chain, in simulated time.
    run.gib_per_sec
}

/// Runs the kernel-chain experiment and renders its figure.
pub fn run(scale: Scale) -> String {
    let counts = tuple_counts(scale);
    // Both chains at every size, fanned out across workers; each run
    // self-verifies against host references before reporting.
    let runs = parallel_map(counts.clone(), default_workers(), |tuples| {
        let s = spec(tuples);
        (run_filter_agg_hll(&s), run_crcverify_shuffle(&s))
    });

    let ticks: Vec<String> = counts.iter().map(|t| format!("{t}")).collect();
    let fah: Vec<f64> = runs.iter().map(|(a, _)| gbps(a)).collect();
    let cvs: Vec<f64> = runs.iter().map(|(_, b)| gbps(b)).collect();
    let retx: u64 = runs
        .iter()
        .map(|(a, b)| a.retransmissions + b.retransmissions)
        .sum();

    let throughput = Figure::new(
        "Chained kernels: payload throughput vs input size",
        "tuples",
        ticks,
        "GiB/s",
    )
    .push_series(Series::new("filter → aggregate → HLL", fah))
    .push_series(Series::new("CRC-verify → shuffle", cvs))
    .push_note(format!(
        "every run verified end to end against host references; retransmissions={retx}"
    ))
    .render();

    // The in-band error path: the same stream with one flipped payload
    // byte must surface ERR_INCONSISTENT and starve the shuffle stage.
    let clean = spec(bench_tuples(scale));
    let mut corrupt = clean.clone();
    corrupt.corrupt = true;
    let pair = parallel_map(vec![clean, corrupt], default_workers(), |s| {
        run_crcverify_shuffle(&s)
    });
    let fmt_err = |r: &ChainRun| match r.error_code {
        Some(code) => format!("ERR({code})"),
        None => "clean".to_string(),
    };
    let sentinel = render_table(
        "CRC-verify → shuffle: in-band error propagation",
        &["verdict", "payload MiB", "retx"],
        &[
            (
                "clean stream".to_string(),
                vec![
                    fmt_err(&pair[0]),
                    format!("{:.2}", pair[0].payload_bytes as f64 / (1 << 20) as f64),
                    pair[0].retransmissions.to_string(),
                ],
            ),
            (
                "1 flipped byte".to_string(),
                vec![
                    fmt_err(&pair[1]),
                    format!("{:.2}", pair[1].payload_bytes as f64 / (1 << 20) as f64),
                    pair[1].retransmissions.to_string(),
                ],
            ),
        ],
    );

    format!("{throughput}\n{sentinel}")
}
