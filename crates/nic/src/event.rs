//! The testbed's discrete-event vocabulary.

use bytes::Bytes;

use strom_proto::WorkRequest;
use strom_wire::bth::Qpn;
use strom_wire::opcode::RpcOpCode;

/// A node index in the testbed (0 or 1 for the back-to-back pair; 0..N
/// for a switched cluster).
pub type NodeId = usize;

/// Everything that can happen in the simulated world.
///
/// Every timer-wheel bucket and heap slot pays for the largest variant,
/// so payloads that would bloat the enum ride behind a `Box` (the
/// `WorkRequest` below); a test pins the whole enum to one cache line.
#[derive(Debug)]
pub enum Event {
    /// A host command reached the NIC Controller (after the MMIO store).
    CmdArrive {
        /// The issuing node.
        node: NodeId,
        /// Queue pair of the command.
        qpn: Qpn,
        /// The work request (boxed: it is the fattest payload in the
        /// simulation, and commands are rare next to frames and DMAs).
        wr: Box<WorkRequest>,
        /// Work-request handle assigned at post time.
        handle: u64,
    },
    /// An encoded frame finished the receiver's RX pipeline and ICRC
    /// check and is ready for protocol processing.
    FrameArrive {
        /// The receiving node.
        node: NodeId,
        /// The raw frame bytes (parsed on arrival — bit-accurate RX).
        /// Carried as `Bytes` so fault-model duplication and the frame
        /// pool share one buffer instead of copying it.
        frame: Bytes,
    },
    /// A DMA write to host memory completed (data becomes visible to CPU
    /// pollers and watches).
    DmaWriteDone {
        /// The node whose memory was written.
        node: NodeId,
        /// Destination virtual address.
        vaddr: u64,
        /// The bytes written.
        data: Bytes,
    },
    /// A DMA read issued by a kernel completed; the fabric routes the data
    /// back to the kernel by tag.
    KernelDmaReadDone {
        /// The node whose kernel issued the read.
        node: NodeId,
        /// The kernel's RPC op-code.
        op: RpcOpCode,
        /// Kernel-chosen completion tag.
        tag: u32,
        /// Source virtual address.
        vaddr: u64,
        /// Read length.
        len: u32,
    },
    /// Periodic retransmission-timer scan for one node.
    RetransmitCheck {
        /// The node to scan.
        node: NodeId,
    },
    /// The paced transmit slot for one QP's queued request packets came
    /// up (DCQCN rate limiting): release the head of the queue. The
    /// per-QP deadline guard in the handler makes stale ticks no-ops.
    PacerTick {
        /// The transmitting node.
        node: NodeId,
        /// The rate-limited QP.
        qpn: Qpn,
    },
    /// The cluster switch has at least one ingress frame eligible for
    /// arbitration at this time; the testbed runs a grant pass. Extra
    /// ticks at the same instant are harmless no-ops (the first drains
    /// every eligible frame).
    SwitchTick,
    /// An ARP frame arrived (network bring-up, §4.1's ARP module).
    ArpArrive {
        /// The receiving node.
        node: NodeId,
        /// The raw 28-byte ARP payload.
        frame: Vec<u8>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The event engine moves `Scheduled<Event>` values on every insert
    /// and cascade; keep the payload within one cache line so those
    /// moves stay cheap. Growing a variant past this is a perf
    /// regression, not a compile error — hence the pin.
    #[test]
    fn event_fits_in_a_cache_line() {
        let size = std::mem::size_of::<Event>();
        assert!(size <= 64, "Event grew to {size} B (> 64)");
    }
}
