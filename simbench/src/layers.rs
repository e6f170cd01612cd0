//! The traced run: per-layer metrics measured from outside the program.
//!
//! The benchmark drives the workload's rig twice at the same seed — once
//! plain, once with spans around every `ClusterTestbed::step_batch` and
//! `post` call and the frame capture on — then reads the layer counters
//! the public API exposes (status registers, switch counters, trace
//! sink, captured frames) and times each layer's public functions on the
//! workload's own data: captured frames for the wire codec, the
//! workload's DMA sizes and address pattern for host memory and the TLB,
//! its node count for the switch, its tuples for the kernel chain.
//! Multiplying each layer's call count by its measured cost attributes
//! the plain drive's host time to layers; what no layer explains is
//! `unattributed_share`.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bytes::Bytes;
use strom_kernels::chains::filter_agg_hll;
use strom_kernels::{Kernel, KernelEvent};
use strom_mem::{HostMemory, Tlb};
use strom_nic::ClusterTestbed;
use strom_sim::time::NANOS;
use strom_sim::{EventQueue, SimRng, Switch, SwitchConfig};
use strom_telemetry::{TraceEvent, TraceSink};
use strom_wire::icrc::icrc;
use strom_wire::pcap::read_frames;
use strom_wire::Packet;

use crate::report::{Metric, RunReport};
use crate::rigs::{self, Drive, Probe, Rig, RigOptions};
use crate::workloads::{iteration_seed, Options, Workload};

/// Minimum host time each micro-measurement accumulates.
const MICRO_BUDGET: Duration = Duration::from_millis(60);
/// Captured frames the wire codec is timed over (a prefix sample).
const WIRE_SAMPLE: usize = 4096;

/// Repeats `f` until `MICRO_BUDGET` has passed; returns seconds per call.
fn timed(mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u32;
    while start.elapsed() < MICRO_BUDGET || calls == 0 {
        f();
        calls += 1;
    }
    start.elapsed().as_secs_f64() / f64::from(calls)
}

/// Host-memory access pattern of a workload's DMA.
#[derive(Debug, Clone, Copy)]
struct MemPattern {
    /// Bytes per access.
    len: usize,
    /// Random addresses (pointer chasing) instead of sequential.
    random: bool,
}

/// Estimated pending-event depth of a workload's queue (the testbed does
/// not expose it): in-flight frames plus their timers.
fn queue_depth(w: Workload) -> usize {
    match w {
        Workload::BulkWrite => 64,
        Workload::KvServe => 256,
        Workload::ShuffleDcqcn => 512,
        Workload::ChainHll => 64,
    }
}

fn mem_pattern(w: Workload, max_payload: usize) -> MemPattern {
    match w {
        Workload::KvServe => MemPattern {
            len: 64,
            random: true,
        },
        _ => MemPattern {
            len: max_payload,
            random: false,
        },
    }
}

/// Wire codec costs over captured frames: (encode ns/frame, parse
/// ns/frame, ICRC GiB/s).
fn wire_costs(frames: &[Bytes]) -> (f64, f64, f64) {
    if frames.is_empty() {
        return (f64::NAN, f64::NAN, f64::NAN);
    }
    let packets: Vec<Packet> = frames
        .iter()
        .filter_map(|f| Packet::parse(f).ok())
        .collect();
    let parse_s = timed(|| {
        for f in frames {
            let _ = black_box(Packet::parse(black_box(f)));
        }
    });
    let mut buf = Vec::with_capacity(9216);
    let encode_s = timed(|| {
        for p in &packets {
            buf.clear();
            black_box(p).encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let bytes: usize = frames.iter().map(|f| f.len()).sum();
    let icrc_s = timed(|| {
        for f in frames {
            black_box(icrc(black_box(f)));
        }
    });
    (
        encode_s / packets.len().max(1) as f64 * 1e9,
        parse_s / frames.len() as f64 * 1e9,
        bytes as f64 / icrc_s / (1u64 << 30) as f64,
    )
}

/// Host memory and TLB costs at a DMA pattern: (write GiB/s, read GiB/s,
/// translate ns/command).
fn mem_costs(p: MemPattern, seed: u64) -> (f64, f64, f64) {
    const REGION: u64 = 8 << 20;
    let mut mem = HostMemory::new();
    let (base, pages) = mem.pin(REGION).expect("pin the probe region");
    let mut tlb = Tlb::new();
    tlb.insert_region(base, &pages)
        .expect("TLB holds the probe region");
    let mut rng = SimRng::seed(seed);
    let slots = REGION / p.len as u64;
    let addrs: Vec<u64> = (0..4096u64)
        .map(|i| {
            let slot = if p.random {
                rng.below(slots)
            } else {
                i % slots
            };
            base + slot * p.len as u64
        })
        .collect();
    let data = vec![0xA5u8; p.len];
    let per_pass = (addrs.len() * p.len) as f64;
    let w = timed(|| {
        for &a in &addrs {
            mem.write(a, black_box(&data));
        }
    });
    let r = timed(|| {
        for &a in &addrs {
            black_box(mem.read(a, p.len));
        }
    });
    let t = timed(|| {
        for &a in &addrs {
            let _ = black_box(tlb.translate_command(black_box(a), p.len as u32));
        }
    });
    let gib = (1u64 << 30) as f64;
    (
        per_pass / w / gib,
        per_pass / r / gib,
        t / addrs.len() as f64 * 1e9,
    )
}

/// Event-queue cost of one `schedule_at` + `pop` at a pending depth, ns.
fn queue_cost(depth: usize, seed: u64) -> f64 {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut rng = SimRng::seed(seed);
    for i in 0..depth as u64 {
        q.schedule_at(1 + rng.below(10_000 * NANOS), i);
    }
    const OPS: usize = 4096;
    let s = timed(|| {
        for _ in 0..OPS {
            let e = q.pop().expect("depth stays constant");
            q.schedule_at(e.at + 1 + rng.below(10_000 * NANOS), e.event);
        }
    });
    s / OPS as f64 * 1e9
}

/// Switch cost of one `enqueue` + its share of `arbitrate`, ns/frame.
fn switch_cost(tb: &ClusterTestbed, ports: usize, wire_bytes: u64) -> f64 {
    let rate = tb.config().link_bandwidth;
    let mut sw: Switch<u64> = Switch::new(SwitchConfig {
        ports,
        port_rate: rate,
        latency: 500 * NANOS,
        egress_capacity: 1 << 20,
        ecn: None,
    });
    let gap = rate.transfer_time_ps(wire_bytes).max(1);
    let (mut deliveries, mut drops) = (Vec::new(), Vec::new());
    let mut now = 0u64;
    let mut i = 0u64;
    const FRAMES: u64 = 4096;
    let s = timed(|| {
        for _ in 0..FRAMES {
            let src = (i % ports as u64) as usize;
            let dst = (src + 1 + (i / ports as u64) as usize % (ports - 1)) % ports;
            sw.enqueue(src, dst, wire_bytes, now, i);
            i += 1;
            if i.is_multiple_of(ports as u64) {
                now += gap;
                sw.arbitrate(now, &mut deliveries, &mut drops);
                deliveries.clear();
                drops.clear();
            }
        }
    });
    s / FRAMES as f64 * 1e9
}

/// The filter → aggregate → HLL chain driven directly through
/// `KernelChain` on `tuples`, GiB/s of tuple payload.
fn chain_gib_s(tuples: &[u64], chunk: usize) -> f64 {
    let data: Vec<u8> = tuples.iter().flat_map(|v| v.to_le_bytes()).collect();
    let chunks: Vec<Bytes> = data.chunks(chunk).map(Bytes::copy_from_slice).collect();
    let s = timed(|| {
        let mut chain = filter_agg_hll();
        black_box(chain.on_event(KernelEvent::Invoke {
            qpn: 1,
            params: rigs::chain_params(0x1_0000_0000, 0x2_0000_0000),
        }));
        for (i, c) in chunks.iter().enumerate() {
            black_box(chain.on_event(KernelEvent::RoceData {
                qpn: 1,
                data: c.clone(),
                last: i + 1 == chunks.len(),
            }));
        }
    });
    data.len() as f64 / s / (1u64 << 30) as f64
}

/// Enabled `TraceSink::emit` cost, ns.
fn emit_cost() -> f64 {
    let sink = TraceSink::enabled(rigs::SHUFFLE_TRACE_CAPACITY);
    const EMITS: u32 = 4096;
    let s = timed(|| {
        for i in 0..EMITS {
            sink.emit(TraceEvent::Retransmit { qpn: i, packets: 3 });
        }
    });
    s / f64::from(EMITS) * 1e9
}

/// Builds and drives one rig; `None` if it panicked.
fn drive(
    w: Workload,
    seed: u64,
    scale: f64,
    opts: RigOptions,
    probe: &mut Probe,
) -> Option<(Box<dyn Rig>, Drive)> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut rig = rigs::build(w, seed, scale, opts);
        let d = rig.drive(probe);
        (rig, d)
    }))
    .ok()
}

/// The traced run of `opts.workload`: per-layer metrics.
pub fn run_traced(opts: &Options) -> RunReport {
    let w = opts.workload;
    let seed = iteration_seed(opts.seed, 0);
    let mut report = RunReport::default();

    // Plain drive (the attribution's reference host time), traced drive
    // (spans + capture), and a quarter-size plain drive (cost growth).
    let plain = drive(
        w,
        seed,
        opts.scale,
        RigOptions::default(),
        &mut Probe::default(),
    );
    let mut probe = Probe::traced();
    let traced = drive(
        w,
        seed,
        opts.scale,
        RigOptions {
            capture: true,
            ..RigOptions::default()
        },
        &mut probe,
    );
    let quarter = drive(
        w,
        seed,
        opts.scale / 4.0,
        RigOptions::default(),
        &mut Probe::default(),
    );
    let (Some((_, plain)), Some((rig, traced)), Some((_, quarter))) = (plain, traced, quarter)
    else {
        report.attempted = 3;
        report.failed = 3;
        return report;
    };
    for d in [&plain, &traced, &quarter] {
        report.attempted += d.attempted;
        report.failed += d.failed;
    }
    // Spans and capture are observation-only: the traced drive must
    // reproduce the plain drive's fingerprint.
    report.attempted += 1;
    report.failed += u64::from(plain.fingerprint != traced.fingerprint);

    let tb = rig.testbed();
    let nodes = tb.num_nodes();
    let status: Vec<_> = (0..nodes).map(|n| tb.status(n)).collect();
    let sum = |f: &dyn Fn(&strom_nic::StatusRegisters) -> u64| status.iter().map(f).sum::<u64>();
    let retx = sum(&|s| s.retransmissions);
    let lost = sum(&|s| s.wire.frames_lost);
    let invocations = sum(&|s| s.kernel_invocations);
    let switch_frames: u64 = (0..nodes)
        .filter_map(|p| tb.switch_counters(p))
        .map(|c| c.frames_in)
        .sum();
    let trace_records = tb.trace().emitted();
    let captured: Vec<Bytes> = tb
        .pcap_bytes()
        .and_then(read_frames)
        .unwrap_or_default()
        .into_iter()
        .map(|(_, f)| Bytes::from(f))
        .collect();
    let frames = captured.len() as u64;
    let mean_frame = captured.iter().map(|f| f.len() as u64).sum::<u64>() / frames.max(1);
    let max_payload = tb.config().max_payload();
    let payload_rx = sum(&|s| s.wire.payload_bytes_rx);

    let sample = &captured[..captured.len().min(WIRE_SAMPLE)];
    let (encode_ns, parse_ns, icrc_gib) = wire_costs(sample);
    let (write_gib, read_gib, translate_ns) = mem_costs(mem_pattern(w, max_payload), seed);
    let queue_ns = queue_cost(queue_depth(w), seed);
    let switch_ns = switch_cost(tb, nodes, mean_frame.max(64));
    let chain_scale = if w == Workload::ChainHll {
        opts.scale
    } else {
        opts.scale / 8.0
    };
    let tuples = rigs::chain_tuples(&rigs::chain_spec(seed, chain_scale));
    let chain_gib = chain_gib_s(&tuples, max_payload);
    let emit_ns = emit_cost();

    // Attribution of the plain drive's host time: calls × cost per layer.
    let gib = (1u64 << 30) as f64;
    let host = plain.host_s;
    let wire_s = frames as f64 * (encode_ns + parse_ns) * 1e-9;
    let mem_bytes = (payload_rx + plain.payload_bytes) as f64;
    let mem_s = payload_rx as f64 / (write_gib * gib)
        + plain.payload_bytes as f64 / (read_gib * gib)
        + frames as f64 * translate_ns * 1e-9;
    let sim_s = probe.events as f64 * queue_ns * 1e-9 + switch_frames as f64 * switch_ns * 1e-9;
    let kernels_s = if w == Workload::ChainHll {
        plain.payload_bytes as f64 / (chain_gib * gib)
    } else {
        0.0
    };
    let telemetry_s = trace_records as f64 * emit_ns * 1e-9;
    let share = |s: f64| s / host;
    let attributed = wire_s + mem_s + sim_s + kernels_s + telemetry_s;
    eprintln!(
        "{}: plain {:.3} s, traced {:.3} s, quarter {:.3} s; {} frames, {} events, {:.1} MB DMA",
        w.name(),
        plain.host_s,
        traced.host_s,
        quarter.host_s,
        frames,
        probe.events,
        mem_bytes / 1e6
    );

    let per_byte = |d: &Drive| d.host_s / d.payload_bytes.max(1) as f64;
    let m = |name, unit, value| Metric::new(name, unit, value);
    for metric in [
        m("wire.frames", "count", frames as f64),
        m("wire.encode_ns_per_frame", "ns", encode_ns),
        m("wire.parse_ns_per_frame", "ns", parse_ns),
        m("wire.icrc_gib_s", "GiB/s", icrc_gib),
        m("wire.share", "share", share(wire_s)),
        m("mem.write_gib_s", "GiB/s", write_gib),
        m("mem.read_gib_s", "GiB/s", read_gib),
        m("mem.translate_ns", "ns", translate_ns),
        m("mem.share", "share", share(mem_s)),
        m("sim.events", "count", probe.events as f64),
        m("sim.queue_ns_per_event", "ns", queue_ns),
        m("sim.switch_ns_per_frame", "ns", switch_ns),
        m("sim.share", "share", share(sim_s)),
        m(
            "nic.step_ns_per_event",
            "ns",
            probe.step_time.as_secs_f64() * 1e9 / probe.events.max(1) as f64,
        ),
        m(
            "nic.post_ns",
            "ns",
            probe.post_time.as_secs_f64() * 1e9 / probe.posts.max(1) as f64,
        ),
        m(
            "nic.req_cost_growth",
            "ratio",
            per_byte(&plain) / per_byte(&quarter),
        ),
        m("proto.retransmissions", "count", retx as f64),
        m("proto.timeouts", "count", sum(&|s| s.timeouts) as f64),
        m("proto.cnps", "count", sum(&|s| s.wire.cnps_tx) as f64),
        m(
            "proto.useful_frame_share",
            "share",
            1.0 - retx as f64 / (frames + lost).max(1) as f64,
        ),
        m("kernels.invocations", "count", invocations as f64),
        m("kernels.chain_gib_s", "GiB/s", chain_gib),
        m("kernels.share", "share", share(kernels_s)),
        m("telemetry.trace_records", "count", trace_records as f64),
        m("telemetry.emit_ns", "ns", emit_ns),
        m("telemetry.share", "share", share(telemetry_s)),
        m(
            "telemetry.trace_overhead_share",
            "share",
            (traced.host_s - plain.host_s) / traced.host_s,
        ),
        m("unattributed_share", "share", 1.0 - share(attributed)),
    ] {
        report.push(metric);
    }
    report
}
