//! Layer micro-benchmarks of the simulator's hot loops, seeding the repo's
//! perf trajectory.
//!
//! Measures the CRC-32 ICRC (PCLMULQDQ fold or slice-by-16, whichever
//! this host runs) and the slice-by-16 CRC-64 against their byte-at-a-time
//! references, the SIMD-dispatched kernel loops that have a production
//! caller against their scalar references, the single-pass frame encode
//! and zero-copy parse, the per-emission cost of a disabled vs enabled
//! [`TraceSink`], and timer-wheel vs reference-heap event churn, then
//! writes the numbers to `BENCH_wire.json` at the repo root so runs are
//! comparable across commits. Scenario-level numbers (soak, shuffle,
//! incast, KV, chains) live in the workload corpus (`figures corpus`),
//! not here.
//!
//! ```text
//! wire_micro            # full measurement
//! wire_micro --quick    # CI smoke: fewer churn depths, same JSON keys
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use bytes::Bytes;
use strom_bench::micro::{bb, bench, Measurement};
use strom_kernels::topk::{reference_topk, TopKKernel};
use strom_kernels::traversal::Predicate;
use strom_sim::{EventQueue, ReferenceEventQueue, SimRng};
use strom_telemetry::json::Value;
use strom_telemetry::{TraceEvent, TraceSink};
use strom_wire::bth::Reth;
use strom_wire::icrc;
use strom_wire::opcode::Opcode;
use strom_wire::packet::Packet;

/// CRC input size: a jumbo-frame-scale buffer, large enough that table
/// warmup and loop overhead vanish.
const CRC_BYTES: usize = 64 * 1024;

fn sample_packet(payload: usize) -> Packet {
    Packet::new(
        1,
        2,
        Opcode::WriteOnly,
        5,
        100,
        Some(Reth {
            vaddr: 0x1000,
            rkey: 1,
            dma_len: payload as u32,
        }),
        None,
        Bytes::from(vec![0xabu8; payload]),
    )
}

/// Payload sized like the testbed's `Event` cap: with the `(at, seq)`
/// envelope a `Scheduled<EnginePayload>` is as big as a scheduled
/// simulation event, so the engines pay realistic move costs.
#[derive(Debug, Clone, Copy)]
struct EnginePayload([u64; 7]);

/// The event-engine API surface the churn loop needs, so the wheel-backed
/// queue and the reference heap run the exact same workload.
trait Engine {
    fn schedule_at(&mut self, at: u64, p: EnginePayload);
    fn pop_one(&mut self) -> Option<(u64, u64, u64)>;
}

impl Engine for EventQueue<EnginePayload> {
    fn schedule_at(&mut self, at: u64, p: EnginePayload) {
        EventQueue::schedule_at(self, at, p);
    }
    fn pop_one(&mut self) -> Option<(u64, u64, u64)> {
        self.pop().map(|s| (s.at, s.seq, s.event.0[0]))
    }
}

impl Engine for ReferenceEventQueue<EnginePayload> {
    fn schedule_at(&mut self, at: u64, p: EnginePayload) {
        ReferenceEventQueue::schedule_at(self, at, p);
    }
    fn pop_one(&mut self) -> Option<(u64, u64, u64)> {
        self.pop().map(|s| (s.at, s.seq, s.event.0[0]))
    }
}

/// Delta to the next scheduled event, shaped like the testbed's mix:
/// mostly sub-2 µs pipeline/link hops, some 2 µs–200 µs timer-scale
/// waits, and a thin 1 s–10 s tail that exercises the overflow heap.
fn engine_delta(rng: &mut SimRng) -> u64 {
    match rng.below(100) {
        0 => rng.range(1_000_000_000, 10_000_000_000),
        1..=9 => rng.range(2_000_000, 200_000_000),
        _ => rng.range(100, 2_000_000),
    }
}

/// Hold-depth-constant churn: prefill from `prefill`, then one
/// pop-one / schedule-one round per delta in `churn` (deltas are
/// precomputed so the timed loop measures the engine, not the RNG).
/// Returns (events/sec, FNV fingerprint of the popped `(at, seq,
/// payload)` stream) — the same deltas on both engines must give the
/// same fingerprint, which is the differential check.
fn engine_churn<Q: Engine>(q: &mut Q, prefill: &[u64], churn: &[u64]) -> (f64, u64) {
    fn mix(fp: &mut u64, v: u64) {
        *fp = (*fp ^ v).wrapping_mul(0x100_0000_01b3);
    }
    for (i, &at) in prefill.iter().enumerate() {
        q.schedule_at(at, EnginePayload([i as u64; 7]));
    }
    let mut fp = 0xcbf2_9ce4_8422_2325u64;
    let t = Instant::now();
    for (i, &delta) in churn.iter().enumerate() {
        let (at, seq, word) = q.pop_one().expect("churn holds depth constant");
        mix(&mut fp, at);
        mix(&mut fp, seq);
        mix(&mut fp, word);
        q.schedule_at(at + delta, EnginePayload([i as u64 ^ at; 7]));
    }
    (churn.len() as f64 / t.elapsed().as_secs_f64(), fp)
}

/// Best-of-3 churn for one engine over one workload (fresh queue per
/// run; the best run is the least scheduler-perturbed one).
fn engine_bench<Q: Engine>(make: impl Fn() -> Q, prefill: &[u64], churn: &[u64]) -> (f64, u64) {
    let mut best = (0.0f64, 0u64);
    for run in 0..3 {
        let (eps, fp) = engine_churn(&mut make(), prefill, churn);
        if run == 0 || eps > best.0 {
            best.0 = eps;
        }
        if run == 0 {
            best.1 = fp;
        } else {
            assert_eq!(fp, best.1, "same deltas must give the same stream");
        }
    }
    best
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");

    let mut rng = SimRng::seed(0x1234);
    let mut data = vec![0u8; CRC_BYTES];
    rng.fill_bytes(&mut data);

    let icrc_backend = icrc::backend();
    println!("== CRC-32 (ICRC, {icrc_backend}), {CRC_BYTES} B ==");
    let icrc_ref = bench("icrc_reference", || bb(icrc::icrc_reference(&data)));
    let icrc_fast = bench("icrc", || bb(icrc::icrc(&data)));
    assert_eq!(icrc::icrc(&data), icrc::icrc_reference(&data));

    println!("== CRC-64 (ECMA-182), {CRC_BYTES} B ==");
    let crc64_ref = bench("crc64_reference", || {
        bb(strom_kernels::crc64::crc64_reference(&data))
    });
    let crc64_s8 = bench("crc64_slice16", || bb(strom_kernels::crc64::crc64(&data)));
    assert_eq!(
        strom_kernels::crc64::crc64(&data),
        strom_kernels::crc64::crc64_reference(&data)
    );

    let simd_backend = strom_kernels::simd::backend().name();
    println!("== SIMD kernel library ({simd_backend} backend), {CRC_BYTES} B per kernel ==");
    let values: Vec<u64> = data
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("sized")))
        .collect();
    let val_bytes = (values.len() * 8) as u64;
    let pivot = u64::MAX / 2;

    // Bit-identity at every width: ragged lengths cover the empty case,
    // the scalar tail, and the full vector body of each dispatched
    // kernel, on this host's actual backend.
    for &w in &[0usize, 1, 3, 7, 31, 64] {
        let block = &values[..w];
        assert_eq!(
            strom_kernels::filter::predicate_mask(block, Predicate::GreaterThan, pivot),
            strom_kernels::filter::predicate_mask_reference(block, Predicate::GreaterThan, pivot),
            "predicate_mask diverged at width {w}"
        );
        assert_eq!(
            strom_kernels::topk::gt_mask_le_bytes(&data[..w * 8], pivot),
            strom_kernels::filter::predicate_mask_reference(block, Predicate::GreaterThan, pivot),
            "gt_mask_le_bytes diverged at width {w}"
        );
    }
    let k_filter = bench("kernel_filter_simd", || {
        let mut acc = 0u64;
        for block in values.chunks(64) {
            acc ^= strom_kernels::filter::predicate_mask(block, Predicate::GreaterThan, pivot);
        }
        bb(acc)
    });
    let k_filter_s = bench("kernel_filter_scalar", || {
        let mut acc = 0u64;
        for block in values.chunks(64) {
            acc ^= strom_kernels::filter::predicate_mask_reference(
                block,
                Predicate::GreaterThan,
                pivot,
            );
        }
        bb(acc)
    });
    const TOPK_K: usize = 64;
    let k_topk = bench("kernel_topk_simd", || {
        let mut k = TopKKernel::new();
        k.ingest(TOPK_K, &data);
        bb(k.seen())
    });
    let k_topk_s = bench("kernel_topk_scalar", || {
        // The tuple-at-a-time baseline consumes the same wire bytes the
        // kernel's ingest does.
        let mut heap: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
        for c in data.chunks_exact(8) {
            let v = u64::from_le_bytes(c.try_into().expect("sized"));
            if heap.len() < TOPK_K {
                heap.push(Reverse(v));
            } else if v > heap.peek().expect("full").0 {
                heap.pop();
                heap.push(Reverse(v));
            }
        }
        bb(heap.len())
    });
    let mut tk = TopKKernel::new();
    tk.ingest(TOPK_K, &data);
    assert_eq!(
        tk.top(),
        reference_topk(&values, TOPK_K),
        "vectorized top-k diverged from the sort reference"
    );
    let needle = &data[1000..1008];
    let k_scan = bench("kernel_scan_simd", || {
        bb(strom_kernels::scan::substring_count(&data, needle))
    });
    let k_scan_s = bench("kernel_scan_scalar", || {
        bb(strom_kernels::scan::substring_count_reference(
            &data, needle,
        ))
    });
    let scan_matches = strom_kernels::scan::substring_count(&data, needle);
    assert_eq!(
        scan_matches,
        strom_kernels::scan::substring_count_reference(&data, needle),
        "substring scan diverged from the naive reference"
    );
    assert!(scan_matches >= 1, "the needle was cut from the haystack");

    let kernel_speedups = [
        ("filter", k_filter_s.ns_per_iter / k_filter.ns_per_iter),
        ("topk", k_topk_s.ns_per_iter / k_topk.ns_per_iter),
        ("scan", k_scan_s.ns_per_iter / k_scan.ns_per_iter),
    ];
    // SIMD must never lose to its scalar reference (0.9 absorbs timer
    // noise), and on a multi-lane backend at least one kernel must
    // actually cash the lanes in.
    for (name, s) in &kernel_speedups {
        assert!(
            *s >= 0.9,
            "SIMD {name} slower than its scalar reference: {s:.2}x"
        );
    }
    let kernel_max_speedup = kernel_speedups
        .iter()
        .map(|&(_, s)| s)
        .fold(0.0f64, f64::max);
    if simd_backend != "scalar" {
        assert!(
            kernel_max_speedup >= 2.0,
            "no kernel reached 2x over scalar on the {simd_backend} backend \
             (max {kernel_max_speedup:.2}x)"
        );
    }

    println!("== frame encode/parse, 1440 B payload ==");
    let pkt = sample_packet(1440);
    let mut buf = Vec::new();
    let encode = bench("packet_encode_into", || {
        pkt.encode_into(&mut buf);
        bb(buf.len())
    });
    let frame = Bytes::from(pkt.encode());
    let parse = bench("packet_parse", || bb(Packet::parse(&frame).unwrap()));
    let frame_bytes = frame.len() as u64;

    println!("== trace emission, disabled vs enabled sink ==");
    let sink_off = TraceSink::default();
    let trace_off = bench("trace_emit_disabled", || {
        sink_off.emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        bb(&sink_off)
    });
    let sink_on = TraceSink::enabled(1 << 12);
    let trace_on = bench("trace_emit_enabled", || {
        sink_on.emit(TraceEvent::Retransmit { qpn: 1, packets: 2 });
        bb(&sink_on)
    });

    println!("== event engine churn, wheel vs reference heap ==");
    let depths: &[u64] = if quick {
        &[100, 10_000]
    } else {
        &[100, 1_000, 10_000, 100_000, 1_000_000]
    };
    let churn_ops: u64 = if quick { 60_000 } else { 300_000 };
    let mut sim_wheel_eps = Vec::new();
    let mut sim_heap_eps = Vec::new();
    for &depth in depths {
        let mut wl_rng = SimRng::seed(0x51ed ^ depth);
        let prefill: Vec<u64> = (0..depth).map(|_| engine_delta(&mut wl_rng)).collect();
        let churn: Vec<u64> = (0..churn_ops).map(|_| engine_delta(&mut wl_rng)).collect();
        let (w_eps, w_fp) = engine_bench(EventQueue::<EnginePayload>::new, &prefill, &churn);
        let (h_eps, h_fp) =
            engine_bench(ReferenceEventQueue::<EnginePayload>::new, &prefill, &churn);
        assert_eq!(w_fp, h_fp, "engines diverged at depth {depth}");
        println!(
            "{:<40} {:>9.2} M ev/s wheel, {:>9.2} M ev/s heap ({:.2}x)",
            format!("engine_churn_depth_{depth}"),
            w_eps / 1e6,
            h_eps / 1e6,
            w_eps / h_eps,
        );
        sim_wheel_eps.push(w_eps);
        sim_heap_eps.push(h_eps);
    }
    // Headline numbers at depth 1e4 (present in quick and full lists).
    let headline = depths.iter().position(|&d| d == 10_000).unwrap();
    let sim_wheel = sim_wheel_eps[headline];
    let sim_heap = sim_heap_eps[headline];
    let sim_speedup = sim_wheel / sim_heap;

    let icrc_speedup = icrc_ref.ns_per_iter / icrc_fast.ns_per_iter;
    let crc64_speedup = crc64_ref.ns_per_iter / crc64_s8.ns_per_iter;
    println!("icrc speedup ({icrc_backend}): {icrc_speedup:.2}x, crc64 speedup: {crc64_speedup:.2}x, engine speedup: {sim_speedup:.2}x");
    let spd = |i: usize| kernel_speedups[i].1;
    println!(
        "kernel library ({simd_backend}): filter {:.2}x, topk {:.2}x, scan {:.2}x \
         (max {kernel_max_speedup:.2}x)",
        spd(0),
        spd(1),
        spd(2),
    );

    let crc = CRC_BYTES as u64;
    let gib = |m: &Measurement, bytes: u64| Value::from(m.gib_per_sec(bytes));
    // Event rates are whole events per second.
    let eps = |e: &f64| Value::from(e.round());
    let json = Value::obj([
        ("bench", "wire_micro".into()),
        ("mode", if quick { "quick" } else { "full" }.into()),
        ("crc_input_bytes", crc.into()),
        ("icrc_reference_gib_s", gib(&icrc_ref, crc)),
        ("icrc_backend", icrc_backend.into()),
        ("icrc_gib_s", gib(&icrc_fast, crc)),
        ("icrc_speedup", icrc_speedup.into()),
        ("crc64_reference_gib_s", gib(&crc64_ref, crc)),
        ("crc64_slice16_gib_s", gib(&crc64_s8, crc)),
        ("crc64_speedup", crc64_speedup.into()),
        ("simd_backend", simd_backend.into()),
        ("kernel_filter_gibps", gib(&k_filter, val_bytes)),
        ("kernel_filter_scalar_gibps", gib(&k_filter_s, val_bytes)),
        ("kernel_topk_gibps", gib(&k_topk, val_bytes)),
        ("kernel_topk_scalar_gibps", gib(&k_topk_s, val_bytes)),
        ("kernel_scan_gibps", gib(&k_scan, crc)),
        ("kernel_scan_scalar_gibps", gib(&k_scan_s, crc)),
        ("kernel_max_speedup", kernel_max_speedup.into()),
        ("encode_into_gib_s", gib(&encode, frame_bytes)),
        ("parse_gib_s", gib(&parse, frame_bytes)),
        ("trace_emit_disabled_ns", trace_off.ns_per_iter.into()),
        ("trace_emit_enabled_ns", trace_on.ns_per_iter.into()),
        ("sim_depths", depths.iter().map(|&d| d.into()).collect()),
        (
            "sim_wheel_events_per_sec",
            sim_wheel_eps.iter().map(eps).collect(),
        ),
        (
            "sim_heap_events_per_sec",
            sim_heap_eps.iter().map(eps).collect(),
        ),
        ("sim_events_per_sec_wheel", eps(&sim_wheel)),
        ("sim_events_per_sec_heap", eps(&sim_heap)),
        ("sim_engine_speedup", sim_speedup.into()),
    ]);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    std::fs::write(path, format!("{json}\n")).expect("write BENCH_wire.json");
    println!("wrote {path}");
}
