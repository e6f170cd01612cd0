//! Micro-benchmarks of the fast wire datapath, seeding the repo's perf
//! trajectory.
//!
//! Measures the slice-by-16 CRC-32/CRC-64 against their byte-at-a-time
//! references, the single-pass frame encode and zero-copy parse, the
//! per-emission cost of a disabled vs enabled [`TraceSink`], and an
//! end-to-end multi-seed chaos soak (sequential vs parallel) whose
//! completion-latency percentiles come from the testbed's telemetry
//! histograms, then writes the numbers to `BENCH_wire.json` at the repo
//! root so runs are comparable across commits.
//!
//! ```text
//! wire_micro            # full measurement
//! wire_micro --quick    # CI smoke: fewer soak seeds, same JSON shape
//! ```

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

use bytes::Bytes;
use strom_bench::experiments::incast::{
    self, SENDER_COUNTS as INCAST_SENDERS, TUNED_WINDOW as INCAST_WINDOW,
};
use strom_bench::experiments::kernel_chain;
use strom_bench::experiments::kv_serve::{
    self, OVERLOAD_GAP_NS as KV_OVERLOAD_GAP, TUNED_GAP_NS as KV_TUNED_GAP,
};
use strom_bench::experiments::shuffle_scale::{
    cc_spec, spec as shuffle_spec, LOSS_RATE, NODE_COUNTS,
};
use strom_bench::micro::{bb, bench};
use strom_bench::Scale;
use strom_kernels::bloom::BloomFilter;
use strom_kernels::hll::HyperLogLog;
use strom_kernels::topk::{reference_topk, TopKKernel};
use strom_kernels::traversal::Predicate;
use strom_nic::cluster_incast::run_incast;
use strom_nic::cluster_shuffle::run_shuffle;
use strom_nic::kv_serve::run_kv_serve;
use strom_nic::{
    chaos_model, run_crcverify_shuffle, run_filter_agg_hll, NicConfig, Testbed, WorkRequest,
};
use strom_sim::{parallel_map, EventQueue, ReferenceEventQueue, SimRng};
use strom_telemetry::{Histogram, TraceEvent, TraceSink};
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

/// Observables of one chaos soak run: a checksum (so the work cannot be
/// optimized away) plus the testbed's completion-latency histograms.
#[derive(Debug, Clone, PartialEq)]
struct SoakResult {
    checksum: u64,
    write_lat: Histogram,
    read_lat: Histogram,
}

/// One independent chaos simulation: a short mixed WRITE/READ workload
/// under the composed fault model for `seed`. With `trace_capacity` the
/// run also records a full event trace, which must not perturb any
/// observable (asserted in `main`).
fn soak_one(seed: u64, ops: u64, trace_capacity: Option<usize>) -> SoakResult {
    let mut cfg = NicConfig::ten_gig();
    cfg.seed = seed;
    let mut tb = Testbed::new(cfg);
    if let Some(capacity) = trace_capacity {
        tb.enable_tracing(capacity);
    }
    tb.connect_qp(1);
    tb.set_fault_model(chaos_model(seed));
    let a = tb.pin(0, 2 << 20);
    let b = tb.pin(1, 2 << 20);
    let mut rng = SimRng::seed(seed ^ 0x50ac);
    let mut data = vec![0u8; 1 << 20];
    rng.fill_bytes(&mut data);
    tb.mem(0).write(a, &data);
    tb.mem(1).write(b, &data);
    for _ in 0..ops {
        let off = rng.below(1 << 19);
        let len = rng.range(1, 16_000) as u32;
        let h = if rng.chance(0.5) {
            tb.post(
                0,
                1,
                WorkRequest::Write {
                    remote_vaddr: b + (1 << 20) + off,
                    local_vaddr: a + off,
                    len,
                },
            )
        } else {
            tb.post(
                0,
                1,
                WorkRequest::Read {
                    remote_vaddr: b + off,
                    local_vaddr: a + (1 << 20) + off,
                    len,
                },
            )
        };
        tb.run_until_complete(0, h);
    }
    assert!(
        tb.run_until_idle_bounded(50_000_000),
        "soak failed to quiesce"
    );
    SoakResult {
        checksum: tb.retransmissions(0) ^ tb.status(1).payload_bytes_rx,
        write_lat: tb.metrics().histogram("latency.write_ps").snapshot(),
        read_lat: tb.metrics().histogram("latency.read_ps").snapshot(),
    }
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
    let (soak_seeds, soak_ops) = if quick { (4u64, 4u64) } else { (24, 10) };

    let mut rng = SimRng::seed(0x1234);
    let mut data = vec![0u8; CRC_BYTES];
    rng.fill_bytes(&mut data);

    println!("== CRC-32 (ICRC), {CRC_BYTES} B ==");
    let icrc_ref = bench("icrc_reference", || bb(icrc::icrc_reference(&data)));
    let icrc_s8 = bench("icrc_slice16", || bb(icrc::icrc(&data)));
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
        let mut a = vec![0u64; w];
        let mut b = vec![0u64; w];
        strom_kernels::hash::mix64_batch(block, &mut a);
        strom_kernels::hash::mix64_batch_reference(block, &mut b);
        assert_eq!(a, b, "mix64 diverged at width {w}");
        assert_eq!(
            strom_kernels::filter::predicate_mask(block, Predicate::GreaterThan, pivot),
            strom_kernels::filter::predicate_mask_reference(block, Predicate::GreaterThan, pivot),
            "predicate_mask diverged at width {w}"
        );
        let mut ca = vec![0u64; 256];
        let mut cb = vec![0u64; 256];
        strom_kernels::radix::radix_histogram(block, 8, &mut ca);
        strom_kernels::radix::radix_histogram_reference(block, 8, &mut cb);
        assert_eq!(ca, cb, "radix_histogram diverged at width {w}");
        assert_eq!(
            strom_kernels::topk::gt_mask_le_bytes(&data[..w * 8], pivot),
            strom_kernels::filter::predicate_mask_reference(block, Predicate::GreaterThan, pivot),
            "gt_mask_le_bytes diverged at width {w}"
        );
    }
    for &w in &[0usize, 1, 7, 8, 9, 1023, 1024, 1025, CRC_BYTES] {
        assert_eq!(
            strom_kernels::crc64::crc64_parallel(&data[..w]),
            strom_kernels::crc64::crc64_reference(&data[..w]),
            "crc64_parallel diverged at {w} B"
        );
    }

    let k_crc64 = bench("kernel_crc64_simd", || {
        bb(strom_kernels::crc64::crc64_parallel(&data))
    });
    let mut hout = vec![0u64; values.len()];
    let k_hash = bench("kernel_hash_simd", || {
        strom_kernels::hash::mix64_batch(&values, &mut hout);
        bb(hout[values.len() - 1])
    });
    let k_hash_s = bench("kernel_hash_scalar", || {
        strom_kernels::hash::mix64_batch_reference(&values, &mut hout);
        bb(hout[values.len() - 1])
    });
    let k_hll = bench("kernel_hll_simd", || {
        let mut h = HyperLogLog::standard();
        h.add_u64_batch(&values);
        bb(h.registers()[0])
    });
    let k_hll_s = bench("kernel_hll_scalar", || {
        let mut h = HyperLogLog::standard();
        for &v in &values {
            h.add_u64(v);
        }
        bb(h.registers()[0])
    });
    let mut h_batch = HyperLogLog::standard();
    h_batch.add_u64_batch(&values);
    let mut h_scalar = HyperLogLog::standard();
    for &v in &values {
        h_scalar.add_u64(v);
    }
    assert_eq!(
        h_batch.registers(),
        h_scalar.registers(),
        "HLL batch add diverged from the scalar sketch"
    );
    // Radix streams a larger buffer: the 4-sub-histogram setup is a
    // fixed cost the partitioning of a real shuffle block amortizes.
    let radix_values: Vec<u64> = {
        let mut r = SimRng::seed(0x4a41);
        (0..1 << 18).map(|_| r.next_u64()).collect()
    };
    let radix_bytes = (radix_values.len() * 8) as u64;
    let mut counts = vec![0u64; 256];
    let k_radix = bench("kernel_radix_simd", || {
        counts.fill(0);
        strom_kernels::radix::radix_histogram(&radix_values, 8, &mut counts);
        bb(counts[0])
    });
    let k_radix_s = bench("kernel_radix_scalar", || {
        counts.fill(0);
        strom_kernels::radix::radix_histogram_reference(&radix_values, 8, &mut counts);
        bb(counts[0])
    });
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
    let mut bf = BloomFilter::new(16, 4);
    for &v in values.iter().step_by(3) {
        bf.insert(v);
    }
    for &w in &[0usize, 1, 3, 7, 31, 64] {
        assert_eq!(
            bf.contains_mask(&values[..w]),
            bf.contains_mask_reference(&values[..w]),
            "contains_mask diverged at width {w}"
        );
    }
    let k_bloom = bench("kernel_bloom_simd", || {
        let mut acc = 0u64;
        for block in values.chunks(64) {
            acc ^= bf.contains_mask(block);
        }
        bb(acc)
    });
    let k_bloom_s = bench("kernel_bloom_scalar", || {
        let mut acc = 0u64;
        for block in values.chunks(64) {
            acc ^= bf.contains_mask_reference(block);
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
        ("crc64", crc64_ref.ns_per_iter / k_crc64.ns_per_iter),
        ("hash", k_hash_s.ns_per_iter / k_hash.ns_per_iter),
        ("hll", k_hll_s.ns_per_iter / k_hll.ns_per_iter),
        ("radix", k_radix_s.ns_per_iter / k_radix.ns_per_iter),
        ("filter", k_filter_s.ns_per_iter / k_filter.ns_per_iter),
        ("bloom", k_bloom_s.ns_per_iter / k_bloom.ns_per_iter),
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

    println!("== end-to-end chaos soak, {soak_seeds} seeds x {soak_ops} ops ==");
    let seeds: Vec<u64> = (0..soak_seeds).collect();
    let t = Instant::now();
    let sequential: Vec<SoakResult> = seeds.iter().map(|&s| soak_one(s, soak_ops, None)).collect();
    let soak_seq_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("{:<40} {soak_seq_ms:>12.1} ms", "soak_sequential");
    let t = Instant::now();
    let parallel = parallel_map(seeds.clone(), strom_sim::default_workers(), |s| {
        soak_one(s, soak_ops, None)
    });
    let soak_par_ms = t.elapsed().as_secs_f64() * 1e3;
    println!("{:<40} {soak_par_ms:>12.1} ms", "soak_parallel");
    assert_eq!(sequential, parallel, "parallel soak must be bit-identical");

    // Telemetry is observation-only: rerunning one seed with a full event
    // trace must reproduce the untraced checksum and histograms exactly.
    let traced = soak_one(seeds[0], soak_ops, Some(1 << 15));
    assert_eq!(traced, sequential[0], "tracing must not perturb the soak");

    let mut write_lat = Histogram::new();
    let mut read_lat = Histogram::new();
    for r in &sequential {
        write_lat.merge(&r.write_lat);
        read_lat.merge(&r.read_lat);
    }
    let q_us = |h: &Histogram, q: f64| h.quantile(q).unwrap_or(0) as f64 / 1e6;
    println!(
        "soak write latency: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us ({} samples)",
        q_us(&write_lat, 0.50),
        q_us(&write_lat, 0.99),
        q_us(&write_lat, 0.999),
        write_lat.count(),
    );
    println!(
        "soak read latency:  p50 {:.1} us, p99 {:.1} us, p999 {:.1} us ({} samples)",
        q_us(&read_lat, 0.50),
        q_us(&read_lat, 0.99),
        q_us(&read_lat, 0.999),
        read_lat.count(),
    );

    println!(
        "== cluster shuffle scaling (N = 2/4/8, {}% loss) ==",
        LOSS_RATE * 100.0
    );
    let scale = if quick { Scale::Quick } else { Scale::Full };
    let shuffle = parallel_map(NODE_COUNTS.to_vec(), strom_sim::default_workers(), |n| {
        run_shuffle(&shuffle_spec(n, scale, true))
    });
    for (&n, out) in NODE_COUNTS.iter().zip(&shuffle) {
        println!(
            "{:<40} {:>9.3} GB/s aggregate, p99 {:>10.1} us, retx {}",
            format!("shuffle_n{n}"),
            out.aggregate_gbps,
            out.p99_rpc_ps.map(|p| p as f64 / 1e6).unwrap_or(0.0),
            out.retransmissions,
        );
    }
    let sp99 = |i: usize| shuffle[i].p99_rpc_ps.map(|p| p as f64 / 1e6).unwrap_or(0.0);
    let (sg0, sg1, sg2) = (
        shuffle[0].aggregate_gbps,
        shuffle[1].aggregate_gbps,
        shuffle[2].aggregate_gbps,
    );
    let (sp0, sp1, sp2) = (sp99(0), sp99(1), sp99(2));
    let shuffle_drops: u64 = shuffle.iter().map(|o| o.tail_drops).sum();
    let shuffle_retx: u64 = shuffle.iter().map(|o| o.retransmissions).sum();

    println!(
        "== shuffle congestion-control pair (N = 8, shallow fabric, {}% loss) ==",
        LOSS_RATE * 100.0
    );
    let cc_pair = parallel_map(vec![false, true], strom_sim::default_workers(), |cc| {
        run_shuffle(&cc_spec(8, scale, cc))
    });
    let (cc_off, cc_on) = (&cc_pair[0], &cc_pair[1]);
    println!(
        "{:<40} drops {}, retx {}",
        "shuffle_cc_off", cc_off.tail_drops, cc_off.retransmissions
    );
    println!(
        "{:<40} drops {}, retx {}",
        "shuffle_cc_on", cc_on.tail_drops, cc_on.retransmissions
    );
    // The congestion-control acceptance bar: DCQCN must cut both the
    // switch tail drops and the retransmission storm at least 5x.
    assert!(
        cc_off.tail_drops >= 5 * cc_on.tail_drops.max(1),
        "DCQCN tail-drop improvement below 5x: {} vs {}",
        cc_off.tail_drops,
        cc_on.tail_drops
    );
    assert!(
        cc_off.retransmissions >= 5 * cc_on.retransmissions.max(1),
        "DCQCN retransmission improvement below 5x: {} vs {}",
        cc_off.retransmissions,
        cc_on.retransmissions
    );

    println!("== incast N:1 at the tuned operating point (DCQCN, window {INCAST_WINDOW}) ==");
    let incast_runs = parallel_map(INCAST_SENDERS.to_vec(), strom_sim::default_workers(), |n| {
        run_incast(&incast::spec(n, INCAST_WINDOW, scale, true))
    });
    let ps_us = |p: Option<u64>| p.map(|v| v as f64 / 1e6).unwrap_or(0.0);
    for (&n, out) in INCAST_SENDERS.iter().zip(&incast_runs) {
        println!(
            "{:<40} p999 {:>9.1} us, drops {}, marks {}, qp_errors {}",
            format!("incast_n{n}"),
            ps_us(out.p999_ps),
            out.tail_drops,
            out.ecn_marked,
            out.qp_errors,
        );
    }
    let incast_drops: u64 = incast_runs.iter().map(|o| o.tail_drops).sum();
    let incast_marked: u64 = incast_runs.iter().map(|o| o.ecn_marked).sum();
    let incast_cnps: u64 = incast_runs.iter().map(|o| o.cnps).sum();
    let incast_qp_errors: usize = incast_runs.iter().map(|o| o.qp_errors).sum();
    let inc8 = &incast_runs[1];
    // Incast acceptance: the 8:1 fan-in completes with zero terminal QP
    // errors and a p999 bounded below the retransmission timeout.
    assert_eq!(incast_qp_errors, 0, "incast must not error out QPs");
    assert!(
        inc8.p999_ps.unwrap_or(u64::MAX) < 1_000 * strom_sim::time::MICROS,
        "incast N=8 p999 unbounded: {:?} ps",
        inc8.p999_ps
    );
    let fair_on = run_incast(&incast::fairness_spec(4, scale, true));
    let fair_off = run_incast(&incast::fairness_spec(4, scale, false));
    println!(
        "{:<40} Jain {:.4} (DCQCN) vs {:.4} (no CC)",
        "incast_fairness", fair_on.jain, fair_off.jain
    );

    println!("== KV serving tier (open-loop Poisson, 2 servers x 2 clients) ==");
    let kv_chaos_spec = {
        let mut s = kv_serve::spec(KV_TUNED_GAP, scale);
        s.fault = Some(chaos_model(s.seed ^ 0xC405));
        s
    };
    let kv_runs = parallel_map(
        vec![
            kv_serve::spec(KV_TUNED_GAP, scale),
            kv_serve::spec(KV_OVERLOAD_GAP, scale),
            kv_chaos_spec,
        ],
        strom_sim::default_workers(),
        |s| run_kv_serve(&s),
    );
    let (kv_tuned, kv_over, kv_chaos) = (&kv_runs[0], &kv_runs[1], &kv_runs[2]);
    for (name, out) in [
        ("kv_tuned", kv_tuned),
        ("kv_overload", kv_over),
        ("kv_chaos", kv_chaos),
    ] {
        println!(
            "{:<40} offered {:>6} krps, achieved {:>6} krps, p999 {:>9.1} us, retx {}",
            name,
            out.offered_rps / 1000,
            out.achieved_rps / 1000,
            ps_us(out.p999_ps),
            out.retransmissions,
        );
    }
    let kv_violations: u64 = kv_runs.iter().map(kv_serve::audit_violations).sum();
    // The serving-tier acceptance bars: every run's end-to-end audit is
    // clean (payloads verified, PUTs exactly-once, no QP deaths — even
    // under the chaos fault model, which must actually bite), the tuned
    // point's p999 holds an SLO ceiling, and the overload point proves
    // the knee sits above a throughput floor.
    assert_eq!(kv_violations, 0, "KV audit violations: {kv_runs:#?}");
    assert!(
        kv_chaos.retransmissions > 0,
        "KV chaos run saw no retransmissions"
    );
    assert!(
        kv_tuned.p999_ps.unwrap_or(u64::MAX) < 150 * strom_sim::time::MICROS,
        "KV tuned p999 broke the SLO ceiling: {:?} ps",
        kv_tuned.p999_ps
    );
    assert!(
        kv_over.achieved_rps >= 400_000,
        "KV knee throughput floor broken: {} rps",
        kv_over.achieved_rps
    );

    println!("== chained kernel pipelines (on-testbed, simulated time) ==");
    let chain_tuples = kernel_chain::bench_tuples(scale);
    // Each chain runs twice; a same-spec rerun must reproduce the
    // identical ChainRun (fingerprint, elapsed time, retransmissions).
    let chain_runs = parallel_map(vec![0u8, 1, 0, 1], strom_sim::default_workers(), |which| {
        let s = kernel_chain::spec(chain_tuples);
        if which == 0 {
            run_filter_agg_hll(&s)
        } else {
            run_crcverify_shuffle(&s)
        }
    });
    assert_eq!(
        chain_runs[0], chain_runs[2],
        "filter→agg→HLL rerun diverged"
    );
    assert_eq!(
        chain_runs[1], chain_runs[3],
        "CRC-verify→shuffle rerun diverged"
    );
    let (chain_fah, chain_cvs) = (&chain_runs[0], &chain_runs[1]);
    for (name, run) in [
        ("chain_filter_agg_hll", chain_fah),
        ("chain_crcverify_shuffle", chain_cvs),
    ] {
        assert_eq!(run.error_code, None, "{name} surfaced an error sentinel");
        println!(
            "{name:<40} {:>9.3} GiB/s ({} B payload, retx {})",
            run.gib_per_sec, run.payload_bytes, run.retransmissions,
        );
    }

    let icrc_speedup = icrc_ref.ns_per_iter / icrc_s8.ns_per_iter;
    let crc64_speedup = crc64_ref.ns_per_iter / crc64_s8.ns_per_iter;
    let soak_speedup = soak_seq_ms / soak_par_ms;
    println!("icrc speedup: {icrc_speedup:.2}x, crc64 speedup: {crc64_speedup:.2}x, engine speedup: {sim_speedup:.2}x, soak speedup: {soak_speedup:.2}x");
    let spd = |i: usize| kernel_speedups[i].1;
    println!(
        "kernel library ({simd_backend}): crc64 {:.2}x, hash {:.2}x, hll {:.2}x, radix {:.2}x, \
         filter {:.2}x, bloom {:.2}x, topk {:.2}x, scan {:.2}x (max {kernel_max_speedup:.2}x)",
        spd(0),
        spd(1),
        spd(2),
        spd(3),
        spd(4),
        spd(5),
        spd(6),
        spd(7),
    );
    println!(
        "chains ({chain_tuples} tuples): filter→agg→HLL {:.3} GiB/s, CRC-verify→shuffle {:.3} GiB/s",
        chain_fah.gib_per_sec, chain_cvs.gib_per_sec
    );

    let fmt_eps = |v: &[f64]| {
        v.iter()
            .map(|e| format!("{e:.0}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let sim_depths_json = depths
        .iter()
        .map(|d| d.to_string())
        .collect::<Vec<_>>()
        .join(", ");
    let sim_wheel_json = fmt_eps(&sim_wheel_eps);
    let sim_heap_json = fmt_eps(&sim_heap_eps);

    let crc = CRC_BYTES as u64;
    let json = format!(
        r#"{{
  "bench": "wire_micro",
  "mode": "{mode}",
  "crc_input_bytes": {crc},
  "icrc_reference_gib_s": {:.4},
  "icrc_slice16_gib_s": {:.4},
  "icrc_speedup": {icrc_speedup:.3},
  "crc64_reference_gib_s": {:.4},
  "crc64_slice16_gib_s": {:.4},
  "crc64_speedup": {crc64_speedup:.3},
  "simd_backend": "{simd_backend}",
  "kernel_crc64_gibps": {k_crc64_g:.4},
  "kernel_crc64_scalar_gibps": {k_crc64_sg:.4},
  "kernel_hash_gibps": {k_hash_g:.4},
  "kernel_hash_scalar_gibps": {k_hash_sg:.4},
  "kernel_hll_gibps": {k_hll_g:.4},
  "kernel_hll_scalar_gibps": {k_hll_sg:.4},
  "kernel_radix_gibps": {k_radix_g:.4},
  "kernel_radix_scalar_gibps": {k_radix_sg:.4},
  "kernel_filter_gibps": {k_filter_g:.4},
  "kernel_filter_scalar_gibps": {k_filter_sg:.4},
  "kernel_bloom_gibps": {k_bloom_g:.4},
  "kernel_bloom_scalar_gibps": {k_bloom_sg:.4},
  "kernel_topk_gibps": {k_topk_g:.4},
  "kernel_topk_scalar_gibps": {k_topk_sg:.4},
  "kernel_scan_gibps": {k_scan_g:.4},
  "kernel_scan_scalar_gibps": {k_scan_sg:.4},
  "kernel_max_speedup": {kernel_max_speedup:.3},
  "chain_tuples": {chain_tuples},
  "chain_filter_agg_hll_gibps": {chain_fah_g:.4},
  "chain_crcverify_shuffle_gibps": {chain_cvs_g:.4},
  "encode_into_gib_s": {:.4},
  "parse_gib_s": {:.4},
  "trace_emit_disabled_ns": {:.2},
  "trace_emit_enabled_ns": {:.2},
  "sim_depths": [{sim_depths_json}],
  "sim_wheel_events_per_sec": [{sim_wheel_json}],
  "sim_heap_events_per_sec": [{sim_heap_json}],
  "sim_events_per_sec_wheel": {sim_wheel:.0},
  "sim_events_per_sec_heap": {sim_heap:.0},
  "sim_engine_speedup": {sim_speedup:.3},
  "soak_seeds": {soak_seeds},
  "soak_sequential_ms": {soak_seq_ms:.1},
  "soak_parallel_ms": {soak_par_ms:.1},
  "soak_speedup": {soak_speedup:.3},
  "shuffle_loss_rate": {LOSS_RATE},
  "shuffle_n2_gbps": {sg0:.4},
  "shuffle_n2_p99_us": {sp0:.3},
  "shuffle_n4_gbps": {sg1:.4},
  "shuffle_n4_p99_us": {sp1:.3},
  "shuffle_n8_gbps": {sg2:.4},
  "shuffle_n8_p99_us": {sp2:.3},
  "shuffle_tail_drops": {shuffle_drops},
  "shuffle_retransmissions": {shuffle_retx},
  "shuffle_cc_off_tail_drops": {cc_off_drops},
  "shuffle_cc_off_retransmissions": {cc_off_retx},
  "shuffle_cc_on_tail_drops": {cc_on_drops},
  "shuffle_cc_on_retransmissions": {cc_on_retx},
  "incast_window": {INCAST_WINDOW},
  "incast_n4_p999_us": {inc4_p999:.3},
  "incast_n8_p50_us": {inc8_p50:.3},
  "incast_n8_p99_us": {inc8_p99:.3},
  "incast_n8_p999_us": {inc8_p999:.3},
  "incast_n16_p999_us": {inc16_p999:.3},
  "incast_n8_goodput_gbps": {inc8_goodput:.4},
  "incast_tail_drops": {incast_drops},
  "incast_ecn_marked": {incast_marked},
  "incast_cnps": {incast_cnps},
  "incast_qp_errors": {incast_qp_errors},
  "jain_index": {jain_on:.4},
  "jain_index_no_cc": {jain_off:.4},
  "kv_tuned_gap_ns": {KV_TUNED_GAP},
  "kv_overload_gap_ns": {KV_OVERLOAD_GAP},
  "kv_tuned_offered_krps": {kv_tuned_offered},
  "kv_tuned_achieved_krps": {kv_tuned_achieved},
  "kv_tuned_p50_us": {kv_tuned_p50:.3},
  "kv_tuned_p99_us": {kv_tuned_p99:.3},
  "kv_tuned_p999_us": {kv_tuned_p999:.3},
  "kv_overload_offered_krps": {kv_over_offered},
  "kv_overload_achieved_krps": {kv_over_achieved},
  "kv_overload_p999_us": {kv_over_p999:.3},
  "kv_chaos_p999_us": {kv_chaos_p999:.3},
  "kv_chaos_retransmissions": {kv_chaos_retx},
  "kv_audit_violations": {kv_violations},
  "write_p50_us": {:.3},
  "write_p99_us": {:.3},
  "write_p999_us": {:.3},
  "read_p50_us": {:.3},
  "read_p99_us": {:.3},
  "read_p999_us": {:.3}
}}
"#,
        icrc_ref.gib_per_sec(crc),
        icrc_s8.gib_per_sec(crc),
        crc64_ref.gib_per_sec(crc),
        crc64_s8.gib_per_sec(crc),
        encode.gib_per_sec(frame_bytes),
        parse.gib_per_sec(frame_bytes),
        trace_off.ns_per_iter,
        trace_on.ns_per_iter,
        q_us(&write_lat, 0.50),
        q_us(&write_lat, 0.99),
        q_us(&write_lat, 0.999),
        q_us(&read_lat, 0.50),
        q_us(&read_lat, 0.99),
        q_us(&read_lat, 0.999),
        mode = if quick { "quick" } else { "full" },
        k_crc64_g = k_crc64.gib_per_sec(crc),
        k_crc64_sg = crc64_ref.gib_per_sec(crc),
        k_hash_g = k_hash.gib_per_sec(val_bytes),
        k_hash_sg = k_hash_s.gib_per_sec(val_bytes),
        k_hll_g = k_hll.gib_per_sec(val_bytes),
        k_hll_sg = k_hll_s.gib_per_sec(val_bytes),
        k_radix_g = k_radix.gib_per_sec(radix_bytes),
        k_radix_sg = k_radix_s.gib_per_sec(radix_bytes),
        k_filter_g = k_filter.gib_per_sec(val_bytes),
        k_filter_sg = k_filter_s.gib_per_sec(val_bytes),
        k_bloom_g = k_bloom.gib_per_sec(val_bytes),
        k_bloom_sg = k_bloom_s.gib_per_sec(val_bytes),
        k_topk_g = k_topk.gib_per_sec(val_bytes),
        k_topk_sg = k_topk_s.gib_per_sec(val_bytes),
        k_scan_g = k_scan.gib_per_sec(crc),
        k_scan_sg = k_scan_s.gib_per_sec(crc),
        chain_fah_g = chain_fah.gib_per_sec,
        chain_cvs_g = chain_cvs.gib_per_sec,
        cc_off_drops = cc_off.tail_drops,
        cc_off_retx = cc_off.retransmissions,
        cc_on_drops = cc_on.tail_drops,
        cc_on_retx = cc_on.retransmissions,
        inc4_p999 = ps_us(incast_runs[0].p999_ps),
        inc8_p50 = ps_us(inc8.p50_ps),
        inc8_p99 = ps_us(inc8.p99_ps),
        inc8_p999 = ps_us(inc8.p999_ps),
        inc16_p999 = ps_us(incast_runs[2].p999_ps),
        inc8_goodput = inc8.goodput_gbps,
        jain_on = fair_on.jain,
        jain_off = fair_off.jain,
        kv_tuned_offered = kv_tuned.offered_rps / 1000,
        kv_tuned_achieved = kv_tuned.achieved_rps / 1000,
        kv_tuned_p50 = ps_us(kv_tuned.p50_ps),
        kv_tuned_p99 = ps_us(kv_tuned.p99_ps),
        kv_tuned_p999 = ps_us(kv_tuned.p999_ps),
        kv_over_offered = kv_over.offered_rps / 1000,
        kv_over_achieved = kv_over.achieved_rps / 1000,
        kv_over_p999 = ps_us(kv_over.p999_ps),
        kv_chaos_p999 = ps_us(kv_chaos.p999_ps),
        kv_chaos_retx = kv_chaos.retransmissions,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_wire.json");
    std::fs::write(path, &json).expect("write BENCH_wire.json");
    println!("wrote {path}");
}
