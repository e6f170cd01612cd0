//! The four workloads and the untraced end-to-end run.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use strom_nic::corpus::ChainKind;
use strom_nic::{Platform, ScenarioSpec, Workload as Family};

use crate::calibrate::Calibration;
use crate::report::{median, Metric, RunReport};
use crate::rigs::{self, size, Probe, RigOptions};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed-loop 1 MiB RDMA WRITEs on the two-host 10 G testbed.
    BulkWrite,
    /// Open-loop KV serving tier behind the switch at 10 G.
    KvServe,
    /// 4-node all-to-all shuffle, shallow lossy fabric, ECN + DCQCN.
    ShuffleDcqcn,
    /// filter → aggregate → HLL kernel chain at 100 G.
    ChainHll,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::BulkWrite,
        Workload::KvServe,
        Workload::ShuffleDcqcn,
        Workload::ChainHll,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkWrite => "bulk-write",
            Workload::KvServe => "kv-serve",
            Workload::ShuffleDcqcn => "shuffle-dcqcn",
            Workload::ChainHll => "chain-hll",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The corpus scenario of this workload at `seed`, if a corpus family
    /// fits (`bulk-write` has none: no family is a clean WRITE stream).
    pub fn scenario(self, seed: u64, scale: f64) -> Option<ScenarioSpec> {
        let (platform, workload) = match self {
            Workload::BulkWrite => return None,
            Workload::KvServe => {
                let spec = rigs::kv_spec(seed, scale);
                (
                    Platform::TenGig,
                    Family::KvServe {
                        servers: spec.servers,
                        clients: spec.clients,
                        mean_gap_ns: size::KV_GAP_NS,
                        requests: spec.requests,
                    },
                )
            }
            Workload::ShuffleDcqcn => {
                let spec = rigs::shuffle_spec(seed, scale);
                (
                    Platform::TenGig,
                    Family::Shuffle {
                        nodes: spec.nodes,
                        values_per_node: spec.values_per_node,
                        lossy: true,
                        cc: true,
                        ecn: true,
                    },
                )
            }
            Workload::ChainHll => (
                Platform::HundredGig,
                Family::KernelChain {
                    chain: ChainKind::FilterAggHll,
                    tuples: rigs::chain_spec(seed, scale).tuples,
                },
            ),
        };
        Some(ScenarioSpec {
            name: format!("bench-{}", self.name()),
            platform,
            seed,
            workload,
        })
    }
}

/// What one benchmark run is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every input is drawn from it.
    pub seed: u64,
    /// Timed-phase budget, seconds.
    pub seconds: f64,
    /// Size multiplier on every workload dimension (1.0 = benchmark size;
    /// the smoke test uses small values).
    pub scale: f64,
    /// Flip one destination byte on the first `bulk-write` WRITE.
    pub corrupt: bool,
}

/// The seed of timed iteration `i` of a run: each iteration draws fresh
/// inputs, so a run's median averages over input variation.
pub fn iteration_seed(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One timed iteration.
#[derive(Debug, Clone, Default)]
pub struct Iteration {
    /// Host wall time, seconds.
    pub host_s: f64,
    /// Simulated seconds.
    pub sim_s: f64,
    /// Verified payload bytes.
    pub payload_bytes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Correctness fingerprint.
    pub fingerprint: u64,
    /// Set-up seconds, when the iteration built its own rig.
    pub setup_s: Option<f64>,
}

/// Operations one iteration attempts (also what a panic fails).
fn ops(w: Workload, seed: u64, scale: f64) -> u64 {
    match w {
        Workload::BulkWrite => {
            rigs::scaled((size::BULK_BYTES / size::BULK_MSG) as usize, scale, 1) as u64
        }
        Workload::KvServe => rigs::kv_spec(seed, scale).requests as u64,
        Workload::ShuffleDcqcn => (size::SHUFFLE_NODES * (size::SHUFFLE_NODES - 1)) as u64,
        Workload::ChainHll => 1,
    }
}

/// Runs one iteration; a panic inside the simulator or a runner's own
/// assertion counts as every operation of the iteration failing.
pub fn iteration(opts: &Options, seed: u64) -> Iteration {
    let w = opts.workload;
    let run = catch_unwind(AssertUnwindSafe(|| match w.scenario(seed, opts.scale) {
        None => {
            let t = Instant::now();
            let mut rig = rigs::build(
                w,
                seed,
                opts.scale,
                RigOptions {
                    capture: false,
                    corrupt: opts.corrupt,
                },
            );
            let setup_s = t.elapsed().as_secs_f64();
            let d = rig.drive(&mut Probe::default());
            Iteration {
                host_s: d.host_s,
                sim_s: d.sim_s,
                payload_bytes: d.payload_bytes,
                attempted: d.attempted,
                failed: d.failed,
                fingerprint: d.fingerprint,
                setup_s: Some(setup_s),
            }
        }
        Some(spec) => {
            let t = Instant::now();
            let out = spec.run();
            let host_s = t.elapsed().as_secs_f64();
            let out = match out {
                Ok(out) => out,
                Err(e) => panic!("{}: spec rejected: {e}", spec.id()),
            };
            let perf = |k: &str| out.perf(k).unwrap_or(f64::NAN);
            let sim_s = perf("elapsed_us") * 1e-6;
            let attempted = ops(w, seed, opts.scale);
            let (payload, failed) = match w {
                Workload::KvServe => (
                    perf("completed") * 64.0,
                    perf("violations").min(attempted as f64),
                ),
                // `aggregate_gbps` is GB/s of shuffled payload.
                Workload::ShuffleDcqcn => (perf("aggregate_gbps") * 1e9 * sim_s, 0.0),
                _ => {
                    let err = perf("chain_errors");
                    let bytes = rigs::chain_spec(seed, opts.scale).tuples as f64 * 8.0;
                    (if err == 0.0 { bytes } else { 0.0 }, err)
                }
            };
            Iteration {
                host_s,
                sim_s,
                payload_bytes: payload.round() as u64,
                attempted,
                failed: failed as u64,
                fingerprint: out.fingerprint,
                setup_s: None,
            }
        }
    }));
    run.unwrap_or_else(|_| {
        let attempted = ops(w, seed, opts.scale);
        Iteration {
            attempted,
            failed: attempted,
            ..Iteration::default()
        }
    })
}

/// Rig builds timed per run for the corpus workloads' `setup_s`.
const SETUP_REPS: u64 = 5;
/// Fewest timed iterations per run, whatever the budget.
const MIN_ITERATIONS: usize = 3;

/// The untraced run: set-up samples, then timed iterations until the
/// budget is spent, then a rerun of the first iteration's seed whose
/// fingerprint must match. Every set-up and iteration is sandwiched
/// between two reference-routine runs and its host time normalised (see
/// [`crate::calibrate`]). Reports the end-to-end metrics.
pub fn run_untraced(opts: &Options) -> RunReport {
    let w = opts.workload;
    let mut cal = Calibration::new();
    let mut setup = Vec::new();
    if w.scenario(opts.seed, opts.scale).is_some() {
        for i in 0..SETUP_REPS {
            let seed = iteration_seed(opts.seed, i);
            let (secs, k) = cal.sandwich(|| {
                let t = Instant::now();
                catch_unwind(|| rigs::build(w, seed, opts.scale, RigOptions::default()))
                    .map(|_| t.elapsed().as_secs_f64())
            });
            setup.extend(secs.ok().map(|s| s * k));
        }
    }

    let start = Instant::now();
    let mut iters: Vec<(Iteration, f64)> = Vec::new();
    while iters.len() < MIN_ITERATIONS || start.elapsed().as_secs_f64() < opts.seconds {
        let seed = iteration_seed(opts.seed, iters.len() as u64);
        let (it, k) = cal.sandwich(|| iteration(opts, seed));
        setup.extend(it.setup_s.map(|s| s * k));
        iters.push((it, k));
    }
    let rerun = iteration(opts, iteration_seed(opts.seed, 0));

    let mut report = RunReport::default();
    for (it, _) in &iters {
        report.attempted += it.attempted;
        report.failed += it.failed;
    }
    report.attempted += 1;
    if rerun.failed > 0 || rerun.fingerprint != iters[0].0.fingerprint {
        eprintln!(
            "{}: rerun fingerprint {:#x} != {:#x}",
            w.name(),
            rerun.fingerprint,
            iters[0].0.fingerprint
        );
        report.failed += 1;
    }
    let ok: Vec<(&Iteration, f64)> = iters
        .iter()
        .filter(|(it, _)| it.failed == 0 && it.host_s > 0.0)
        .map(|(it, k)| (it, *k))
        .collect();
    let raw: Vec<f64> = ok.iter().map(|(it, _)| it.host_s).collect();
    let host: Vec<f64> = ok.iter().map(|(it, k)| it.host_s * k).collect();
    let slowdown: Vec<f64> = ok.iter().map(|(it, k)| it.host_s * k / it.sim_s).collect();
    let mbps: Vec<f64> = ok
        .iter()
        .map(|(it, k)| it.payload_bytes as f64 / 1e6 / (it.host_s * k))
        .collect();
    let speed: Vec<f64> = ok.iter().map(|(_, k)| *k).collect();
    eprintln!(
        "{}: {} iterations ({} clean), raw host_s median {:.4}, reference routine at {:.3}x its nominal time, {} setup samples",
        w.name(),
        iters.len(),
        ok.len(),
        median(&raw),
        1.0 / median(&speed),
        setup.len(),
    );
    report.push(Metric::new("host_s", "s", median(&host)));
    report.push(Metric::new("slowdown", "ratio", median(&slowdown)));
    report.push(Metric::new("sim_mb_per_host_s", "MB/s", median(&mbps)));
    report.push(Metric::new("setup_s", "s", median(&setup)));
    report.push(Metric::new("peak_rss_mb", "MB", peak_rss_mb()));
    report
}

/// Peak resident set of this process, MB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
