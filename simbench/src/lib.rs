//! Host-time benchmark of the StRoM simulator.
//!
//! The simulator's users wait on host wall time, so this crate measures
//! how long the simulator takes to run four workloads, each stressing a
//! different set of layers (see `README.md` for why each exists and which
//! layer metric should move which end-to-end metric):
//!
//! * `bulk-write` — a closed-loop window of 1 MiB RDMA WRITEs on the
//!   two-host 10 G testbed (wire + mem);
//! * `kv-serve` — the open-loop KV serving tier behind the switch
//!   (sim + nic + proto, random pointer-chasing DMA);
//! * `shuffle-dcqcn` — a 4-node all-to-all shuffle on a shallow lossy
//!   fabric with ECN + DCQCN (switch, pacing, go-back-N recovery);
//! * `chain-hll` — the filter → aggregate → HLL kernel chain at 100 G
//!   (kernel library, SIMD layer, 64 B datapath).
//!
//! End-to-end numbers come from untraced runs ([`run_untraced`]), with
//! host time normalised against a fixed reference routine
//! ([`calibrate`]); a separate traced run ([`run_traced`]) times the
//! benchmark's own calls into each crate's public functions and
//! attributes host time to layers.

pub mod calibrate;
pub mod layers;
pub mod report;
pub mod rigs;
pub mod workloads;

pub use layers::run_traced;
pub use report::RunReport;
pub use workloads::{run_untraced, Options, Workload};
