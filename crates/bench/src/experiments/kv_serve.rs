//! KV serving tier under open-loop load: the latency knee, StRoM NIC
//! kernels vs the TCP RPC baseline.
//!
//! The serving-tier counterpart of the incast figure: instead of a
//! self-throttling window, a Poisson arrival process posts GET/PUT/
//! traversal requests at the *offered* rate whether or not the tier
//! keeps up, and latency is charged from the intended arrival time. As
//! the mean inter-arrival gap shrinks, the quantiles trace the classic
//! hockey-stick — flat while the tier has headroom, then a knee where
//! queueing dominates. The TCP RPC baseline ([`TcpRpcModel`], §6.2)
//! runs the *same* arrival times through per-core FIFO RPC loops: its
//! knee sits an order of magnitude earlier because the server CPU
//! occupancy (~2 µs/request/core) serializes long before the NIC data
//! path does.
//!
//! Every swept point is a fully verified [`run_kv_serve`]: payloads are
//! checked end to end against the version ladder and the exactly-once
//! PUT audit must come out clean, so the figure cannot quote latencies
//! for a tier that corrupted data. The unit tests hold the tuned
//! mid-load point and the overload point to their acceptance bars
//! through the same [`spec`] this figure sweeps.

use strom_baselines::tcp_rpc::TcpRpcModel;
use strom_nic::kv_serve::{run_kv_serve, run_kv_serve_instrumented, KvOutcome, KvSpec};
use strom_sim::arrivals::{ArrivalGen, ArrivalProcess};
use strom_sim::report::{Figure, Series};
use strom_sim::time::NANOS;
use strom_telemetry::TelemetryReport;

use super::Scale;

/// Server shards in the tier.
pub const SERVERS: usize = 2;
/// Client nodes (each aggregates an arbitrarily large population; the
/// arrival process, not the node count, sets the offered load).
pub const CLIENTS: usize = 2;
/// Base seed; each swept point folds its gap in so points are
/// independent draws.
pub const SEED: u64 = 0x4B5E_0001;

/// The offered-load axis: mean inter-arrival gaps in nanoseconds,
/// descending gap = ascending load, spanning both sides of the knee.
pub fn gaps_ns(scale: Scale) -> Vec<u64> {
    match scale {
        Scale::Quick => vec![6_000, 3_000, 1_500, 900, 600, 400],
        Scale::Full => vec![
            8_000, 6_000, 4_000, 3_000, 2_000, 1_500, 1_000, 700, 500, 400,
        ],
    }
}

/// The gap of the tuned operating point: comfortably below the knee, so
/// CI can hold its p999 to a ceiling.
pub const TUNED_GAP_NS: u64 = 3_000;
/// The overload point whose achieved throughput is the knee floor gate.
pub const OVERLOAD_GAP_NS: u64 = 400;

/// The spec for one swept point. Shared with the unit tests so the
/// acceptance bars and the figure measure the same runs.
pub fn spec(gap_ns: u64, scale: Scale) -> KvSpec {
    let mut spec = KvSpec::new(SERVERS, CLIENTS, gap_ns * NANOS, SEED ^ gap_ns);
    spec.requests = match scale {
        Scale::Quick => 240,
        Scale::Full => 700,
    };
    spec
}

/// The bursty contrast: an MMPP process with the *same mean rate* as a
/// Poisson process at `gap_ns`, alternating a calm phase with 3x-rate
/// bursts. Equal offered load, fatter tail.
pub fn bursty_spec(gap_ns: u64, scale: Scale) -> KvSpec {
    let mut spec = spec(gap_ns, scale);
    // Calm at 1/3 the Poisson rate for 3/4 of the time, bursts at 3x
    // for the remaining 1/4: the time-weighted rate is 0.75/(3g) +
    // 0.25/(g/3) = 1/g, the same long-run mean — but the burst rate
    // sits *above* the tier's saturation point, so queue built during
    // a burst dwell is what the tail measures.
    spec.process = ArrivalProcess::Mmpp {
        calm_gap: 3 * gap_ns * NANOS,
        burst_gap: gap_ns * NANOS / 3,
        calm_dwell: 150 * gap_ns * NANOS,
        burst_dwell: 50 * gap_ns * NANOS,
    };
    spec.seed ^= 0xB0057;
    spec
}

/// Sums the must-be-zero audit counters of one run.
pub fn audit_violations(o: &KvOutcome) -> u64 {
    o.verify_failures
        + o.lost_puts
        + o.dup_puts
        + o.put_errors
        + o.lost_responses
        + o.qp_errors as u64
}

fn us(ps: Option<u64>) -> Option<f64> {
    ps.map(|p| p as f64 / 1e6)
}

/// The TCP RPC baseline at one swept point: the same Poisson arrival
/// times, `SERVERS` single-core FIFO RPC loops, 2 dependent DRAM hops
/// (entry + value) per lookup. Returns `(p50_us, p99_us)`.
fn tcp_point(point: &KvSpec) -> (f64, f64) {
    let mut gen = ArrivalGen::new(point.process, point.seed);
    let arrivals: Vec<u64> = (0..point.requests).map(|_| gen.next_arrival()).collect();
    let model = TcpRpcModel::new();
    let mut lat = model.open_loop_latencies(&arrivals, 2, u64::from(point.value_size) + 8, SERVERS);
    lat.sort_unstable();
    let q = |f: f64| lat[((lat.len() - 1) as f64 * f) as usize] as f64 / 1e6;
    (q(0.50), q(0.99))
}

/// Renders the serving-tier figures; the tuned point runs instrumented
/// and its registry (per-op latency histograms) becomes the telemetry
/// report.
pub fn run_with_telemetry(scale: Scale) -> (String, TelemetryReport) {
    // Figure 1: latency quantiles vs offered load, StRoM vs TCP RPC.
    let gaps = gaps_ns(scale);
    let mut report = TelemetryReport::new("kv-serve");
    let mut ticks = Vec::new();
    let mut p50 = Vec::new();
    let mut p99 = Vec::new();
    let mut p999 = Vec::new();
    let mut tcp_p50 = Vec::new();
    let mut tcp_p99 = Vec::new();
    let mut runs: Vec<(u64, KvOutcome)> = Vec::new();
    for &gap in &gaps {
        let point = spec(gap, scale);
        let out = if gap == TUNED_GAP_NS {
            let (out, metrics) = run_kv_serve_instrumented(&point);
            report = report.with_registry(&metrics);
            out
        } else {
            run_kv_serve(&point)
        };
        ticks.push(format!("{}k", out.offered_rps / 1000));
        p50.push(us(out.p50_ps));
        p99.push(us(out.p99_ps));
        p999.push(us(out.p999_ps));
        let (t50, t99) = tcp_point(&point);
        tcp_p50.push(Some(t50));
        tcp_p99.push(Some(t99));
        runs.push((gap, out));
    }
    let violations: u64 = runs.iter().map(|(_, o)| audit_violations(o)).sum();
    let latency = Figure::new(
        format!(
            "KV serving tier {SERVERS}x{CLIENTS}: latency vs offered load \
             (open-loop Poisson, Zipf 0.99, 70/20/10 GET/PUT/traversal)"
        ),
        "offered rps",
        ticks.clone(),
        "us",
    )
    .push_series(Series::with_gaps("StRoM p50", p50))
    .push_series(Series::with_gaps("StRoM p99", p99))
    .push_series(Series::with_gaps("StRoM p999", p999))
    .push_series(Series::with_gaps("TCP RPC p50", tcp_p50))
    .push_series(Series::with_gaps("TCP RPC p99", tcp_p99))
    .push_note(format!(
        "every point fully verified: audit violations (lost/dup/misverified) = {violations}; \
         TCP baseline = same arrivals through {SERVERS} FIFO RPC cores at 2 us CPU occupancy"
    ));

    // Figure 2: achieved vs offered throughput (saturation), plus the
    // bursty-MMPP tail at the tuned mean rate.
    let offered: Vec<f64> = runs
        .iter()
        .map(|(_, o)| o.offered_rps as f64 / 1e3)
        .collect();
    let achieved: Vec<f64> = runs
        .iter()
        .map(|(_, o)| o.achieved_rps as f64 / 1e3)
        .collect();
    let tuned = &runs
        .iter()
        .find(|(g, _)| *g == TUNED_GAP_NS)
        .expect("tuned gap is swept")
        .1;
    let bursty = run_kv_serve(&bursty_spec(TUNED_GAP_NS, scale));
    let throughput = Figure::new(
        "KV serving tier: achieved vs offered throughput",
        "offered rps",
        ticks,
        "krps",
    )
    .push_series(Series::new("offered", offered))
    .push_series(Series::new("achieved", achieved))
    .push_note(format!(
        "burstiness at equal mean rate (gap {TUNED_GAP_NS} ns): Poisson p999 {:.1} us vs \
         MMPP p999 {:.1} us (violations {})",
        us(tuned.p999_ps).unwrap_or(0.0),
        us(bursty.p999_ps).unwrap_or(0.0),
        audit_violations(&bursty),
    ));

    (
        format!("{}\n{}", latency.render(), throughput.render()),
        report,
    )
}

/// Renders the serving-tier figures (the registry export is dropped).
pub fn run(scale: Scale) -> String {
    run_with_telemetry(scale).0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the tuned operating point: clean audit,
    /// bounded tail, and achieved throughput tracking offered.
    #[test]
    fn tuned_point_serves_cleanly() {
        let out = run_kv_serve(&spec(TUNED_GAP_NS, Scale::Quick));
        assert_eq!(audit_violations(&out), 0);
        assert_eq!(out.completed, 240);
        assert!(out.p999_ps.unwrap() < 100 * strom_sim::time::MICROS);
        assert!(
            out.achieved_rps * 10 > out.offered_rps * 8,
            "achieved {} rps must track offered {} rps",
            out.achieved_rps,
            out.offered_rps
        );
    }

    /// The overload point sits past the knee: the audit stays clean, the
    /// tier still delivers at least the knee throughput floor, and it
    /// saturates well below the offered rate.
    #[test]
    fn overload_point_saturates_above_the_knee_floor() {
        let out = run_kv_serve(&spec(OVERLOAD_GAP_NS, Scale::Quick));
        assert_eq!(audit_violations(&out), 0);
        assert!(
            out.achieved_rps >= 400_000,
            "knee throughput floor broken: {} rps",
            out.achieved_rps
        );
        assert!(
            out.offered_rps > 2 * out.achieved_rps,
            "offered {} rps must exceed twice the achieved {} rps",
            out.offered_rps,
            out.achieved_rps
        );
    }

    /// The TCP baseline's knee sits earlier than StRoM's: at the tuned
    /// gap the FIFO RPC cores are already queueing hard.
    #[test]
    fn tcp_baseline_knees_before_strom() {
        let point = spec(TUNED_GAP_NS, Scale::Quick);
        let strom = run_kv_serve(&point);
        let (_, tcp99) = tcp_point(&point);
        let strom99 = us(strom.p99_ps).unwrap();
        assert!(
            tcp99 > 2.0 * strom99,
            "TCP p99 {tcp99:.1} us must dominate StRoM p99 {strom99:.1} us"
        );
    }
}
