//! Host-speed calibration.
//!
//! A shared host's speed drifts: on a 2-vCPU x86-64 microVM the same
//! `kv-serve` iteration at the same seed took anywhere from 1.4 to 2.3 s,
//! mostly because neighbours contend for the last-level cache the
//! simulator's scans live in. A fixed reference routine timed right before
//! and right after each measured interval sees the same contention, so
//! dividing by it removes most of the drift (per-iteration spread fell
//! from 0.30 to 0.16 of the median, and the spread of 20 s medians from
//! 0.18 to 0.03).
//!
//! The routine is the benchmark's own code and never changes with the
//! program: a linear scan of a 40,000-entry range table (the shape of the
//! testbed's watch list), hash-map updates and a bounded binary heap (the
//! shape of event and completion bookkeeping), and MTU-sized copies (the
//! shape of the frame path). Normalised times are expressed in seconds on
//! a host where the routine takes [`REFERENCE_NOMINAL_S`].

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Reference-routine time the normalised seconds are expressed against:
/// its median on the 2-vCPU x86-64 host the benchmark was defined on.
pub const REFERENCE_NOMINAL_S: f64 = 0.0043;

const RANGES: u64 = 40_000;
const COPY_BYTES: usize = 4 << 20;
const MTU_PAYLOAD: usize = 1456;

/// The reference routine's working state, allocated once per run.
pub struct Calibration {
    ranges: Vec<[u64; 4]>,
    map: HashMap<u64, u64>,
    heap: BinaryHeap<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Allocates the working state and warms it up.
    pub fn new() -> Self {
        let mut c = Calibration {
            ranges: (0..RANGES).map(|i| [i * 64, 64, 64, 0]).collect(),
            map: HashMap::new(),
            heap: BinaryHeap::new(),
            src: vec![7u8; COPY_BYTES],
            dst: vec![0u8; COPY_BYTES],
        };
        for _ in 0..3 {
            c.measure();
        }
        c
    }

    /// Runs the reference routine once; returns its host seconds.
    pub fn measure(&mut self) -> f64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for pass in 0..6u64 {
            let (lo, hi) = (pass * 64, pass * 64 + 1500);
            for r in self.ranges.iter_mut() {
                let (s, e) = (r[0].max(lo), (r[0] + r[1]).min(hi));
                if e > s {
                    r[2] = r[2].saturating_sub(e - s);
                    acc += 1;
                }
            }
        }
        for i in 0..30_000u64 {
            *self
                .map
                .entry(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % 50_000)
                .or_insert(0) += acc & 1;
            self.heap.push(i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 20);
            if self.heap.len() > 512 {
                acc ^= self.heap.pop().unwrap_or(0);
            }
        }
        for (d, s) in self
            .dst
            .chunks_mut(MTU_PAYLOAD)
            .zip(self.src.chunks(MTU_PAYLOAD))
        {
            d.copy_from_slice(s);
        }
        black_box((acc, &self.dst));
        t.elapsed().as_secs_f64()
    }

    /// Times `f` between two reference runs; returns `f`'s result and the
    /// factor that turns its host seconds into normalised seconds.
    pub fn sandwich<T>(&mut self, f: impl FnOnce() -> T) -> (T, f64) {
        let before = self.measure();
        let out = f();
        let after = self.measure();
        (out, REFERENCE_NOMINAL_S / ((before + after) / 2.0))
    }
}
