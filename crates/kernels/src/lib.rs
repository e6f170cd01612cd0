//! The StRoM kernel framework, the paper's four kernels, and their
//! algorithm substrates.
//!
//! §5 of the paper defines a strict hardware interface (Listing 1 /
//! Figure 4) between a kernel and the NIC: two metadata inputs (`qpnIn`,
//! `paramIn`), RoCE data in/out, DMA command/data streams, and RoCE
//! metadata out. [`framework`] reproduces that interface as an
//! event/action protocol so kernels stay **sans-IO**: a kernel is a state
//! machine that consumes [`framework::KernelEvent`]s and emits
//! [`framework::KernelAction`]s, and the NIC simulation executes the
//! actions with PCIe/network timing — exactly as the HLS data-flow modules
//! execute behind FIFOs on the FPGA.
//!
//! The four kernels evaluated in the paper:
//!
//! - [`traversal`]: pointer chasing over remote data structures (§6.2,
//!   Table 2).
//! - [`consistency`]: CRC64-verified object reads with NIC-side retry
//!   (§6.3).
//! - [`shuffle`]: radix partitioning of incoming RDMA streams (§6.4).
//! - [`hll`]: HyperLogLog cardinality estimation at line rate (§7.2).
//!
//! Plus two stream kernels realizing the other operations §1 names
//! ("filtering, aggregation, partitioning, and gathering of statistics"):
//! [`filter`] (selection push-down with an on-NIC result region) and
//! [`aggregate`] (count/sum/min/max reduction).
//!
//! Plus [`get`]: the pedagogical GET kernel of Listing 2, and the host-side
//! data-structure [`layouts`] (linked lists, Pilaf-style hash tables,
//! CRC-stamped object stores) the experiments operate on.
//!
//! Later additions widen the library toward §8's "chain of kernels"
//! outlook: [`topk`], [`bloom`], and [`scan`] stream kernels, a
//! [`crc_verify`] cut-through integrity stage, the
//! [`framework::KernelChain`] combinator composing kernels into on-NIC
//! pipelines ([`chains`] holds the canonical ones), and a portable
//! [`simd`] layer that vectorizes the four streaming hot loops that
//! measure a win while keeping scalar references for differential
//! testing.

pub mod aggregate;
pub mod bloom;
pub mod chains;
pub mod consistency;
pub mod crc64;
pub mod crc_verify;
pub mod filter;
pub mod framework;
pub mod get;
pub mod hash;
pub mod hll;
pub mod hll_kernel;
pub mod layouts;
pub mod put;
pub mod radix;
pub mod scan;
pub mod shuffle;
pub mod simd;
pub mod topk;
pub mod traversal;

pub use aggregate::{Aggregate, AggregateKernel, AggregateParams};
pub use bloom::{BloomFilter, BloomKernel, BloomParams};
pub use consistency::{ConsistencyKernel, ConsistencyParams};
pub use crc_verify::{CrcVerifyKernel, CrcVerifyParams};
pub use filter::{FilterKernel, FilterParams};
pub use framework::{ChainParams, Kernel, KernelAction, KernelChain, KernelEvent, StageRoute};
pub use get::{GetKernel, GetParams};
pub use hll::HyperLogLog;
pub use hll_kernel::HllKernel;
pub use put::{PutConfig, PutKernel};
pub use scan::{ScanParams, SubstringScanKernel};
pub use shuffle::{ShuffleKernel, ShuffleParams};
pub use topk::{TopKKernel, TopKParams};
pub use traversal::{Predicate, TraversalKernel, TraversalParams};
