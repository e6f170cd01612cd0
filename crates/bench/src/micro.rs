//! A tiny self-contained micro-benchmark runner for the `wire_micro`
//! binary.
//!
//! The repository builds without network access, so the usual external
//! harness cannot be a dependency. This module provides the small slice of
//! it the layer micro-benchmarks need: warmup, repeated timed batches, and
//! a median-of-batches report with a throughput conversion.

use std::hint::black_box;
use std::time::Instant;

/// Re-exported so callers can write `micro::bb(..)`.
pub use std::hint::black_box as bb;

/// One measured result.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    /// Median nanoseconds per iteration across batches.
    pub ns_per_iter: f64,
}

impl Measurement {
    /// Throughput in GiB/s given `bytes` processed per iteration.
    pub fn gib_per_sec(&self, bytes: u64) -> f64 {
        bytes as f64 / self.ns_per_iter / 1.073_741_824
    }
}

/// Times `f`, printing `name` plus the median ns/iter (and returning it).
///
/// Runs a short warmup, then `BATCHES` batches sized so each takes roughly
/// a millisecond, and reports the median batch — robust to scheduler noise
/// without any external dependency.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Measurement {
    const BATCHES: usize = 9;
    // Warmup and batch sizing: grow until one batch costs ~1 ms.
    let mut iters_per_batch = 1u64;
    loop {
        let t = Instant::now();
        for _ in 0..iters_per_batch {
            black_box(f());
        }
        let elapsed = t.elapsed().as_nanos() as u64;
        if elapsed > 1_000_000 || iters_per_batch >= 1 << 20 {
            break;
        }
        iters_per_batch *= 2;
    }
    let mut samples = [0f64; BATCHES];
    for s in samples.iter_mut() {
        let t = Instant::now();
        for _ in 0..iters_per_batch {
            black_box(f());
        }
        *s = t.elapsed().as_nanos() as f64 / iters_per_batch as f64;
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let m = Measurement {
        ns_per_iter: samples[BATCHES / 2],
    };
    println!("{name:<40} {:>12.1} ns/iter", m.ns_per_iter);
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_a_positive_time() {
        let m = bench("noop_accumulate", || {
            let mut x = 0u64;
            for i in 0..64u64 {
                x = x.wrapping_add(i);
            }
            x
        });
        assert!(m.ns_per_iter > 0.0);
    }

    #[test]
    fn throughput_inverts_time() {
        let m = Measurement { ns_per_iter: 1.0 };
        // 1 byte per ns is ~0.93 GiB/s.
        assert!((m.gib_per_sec(1) - 0.9313).abs() < 0.001);
    }
}
