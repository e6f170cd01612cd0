//! The StRoM testbed: N simulated NIC + host pairs around a network.
//!
//! Two network geometries share one datapath. [`Testbed`] is the
//! simulated equivalent of §6.1's setup ("we directly connected two
//! StRoM NICs to each other"): exactly two nodes, point-to-point, no
//! switch — a thin wrapper over [`ClusterTestbed::transparent_pair`].
//! [`ClusterTestbed::switched`] instead places N nodes around a
//! deterministic store-and-forward switch ([`strom_sim::Switch`]), which
//! adds per-egress-port serialization, switching latency, bounded egress
//! queues with tail-drop, and round-robin arbitration — the substrate
//! for multi-node experiments like the all-to-all shuffle.
//!
//! Every packet still crosses the wire as real bytes — encoded on
//! transmit and parsed (with ICRC validation) on receive — but the byte
//! handling is pooled and zero-copy: transmit draws a reusable buffer
//! from a small frame pool and [`Packet::encode_into`] fills it in one
//! pass; the frame travels as [`Bytes`]; fault injection flips bits in
//! the buffer in place before it is frozen; and [`Packet::parse`] returns
//! the payload as an O(1) slice of the frame. After RX dispatch the
//! buffer returns to the pool if nothing still references its payload.
//! Host memory is byte-accurate behind the TLB, and every latency
//! component is charged explicitly:
//!
//! ```text
//! host post → MMIO → TX pipeline → payload DMA fetch → wire
//!     → RX store-and-forward (ICRC) → RX pipeline → protocol FSM
//!     → { DMA write to memory | kernel fabric | ACK generation }
//! ```
//!
//! Experiments drive the testbed co-routine style: `post` work requests,
//! then `run_until_watch`/`run_until_complete` to advance simulated time
//! until the interesting state change.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;

use strom_kernels::framework::{Kernel, KernelAction};
use strom_mem::{HostMemory, Tlb};
use strom_proto::{
    CompletionStatus, Dcqcn, DcqcnConfig, PacketDescriptor, PayloadSource, Requester, Responder,
    ResponderAction, RetransmissionTimer, StateTable, WorkRequest,
};
use strom_sim::switch::{Delivery, EcnConfig, Switch, SwitchConfig, SwitchPortCounters, TailDrop};
use strom_sim::time::{Time, TimeDelta};
use strom_sim::{Bandwidth, EventQueue, LinkSerializer, Pacer, SimRng};
use strom_telemetry::{
    Counter, DropReason, Gauge, HistogramHandle, MetricsRegistry, TraceEvent, TraceSink,
    WireCounters,
};
use strom_wire::bth::{Aeth, AethSyndrome, Psn, Qpn};
use strom_wire::opcode::{Opcode, RpcOpCode};
use strom_wire::packet::{Packet, PacketError};
use strom_wire::pcap::PcapWriter;
use strom_wire::segment::segment_message;

use crate::config::NicConfig;
use crate::event::{Event, NodeId};
use crate::fabric::KernelFabric;
use crate::fault::{self, LinkFaultModel, LinkFaultState};

/// A small free-list of reusable frame buffers for the transmit path.
///
/// `take` hands out a cleared `Vec` for [`Packet::encode_into`]; the Vec
/// is frozen into [`Bytes`] for transit (a pure move in the vendored
/// shim) and `put` reclaims it after RX dispatch via
/// [`Bytes::try_reclaim`]. Reclaim is best-effort: it succeeds only when
/// nothing still references the frame — true for ACKs and control
/// packets, false while a zero-copy payload slice is held by a pending
/// DMA event or reassembly state, in which case the buffer is simply
/// dropped and the pool refills from later frames.
#[derive(Debug, Default)]
struct FramePool {
    free: Vec<Vec<u8>>,
}

impl FramePool {
    /// Enough for the frames in flight on a two-node wire; beyond this,
    /// extra buffers are dropped rather than hoarded.
    const MAX_POOLED: usize = 32;

    fn take(&mut self) -> Vec<u8> {
        self.free.pop().unwrap_or_default()
    }

    fn put(&mut self, frame: Bytes) {
        if self.free.len() < Self::MAX_POOLED {
            if let Ok(mut v) = frame.try_reclaim() {
                v.clear();
                self.free.push(v);
            }
        }
    }
}

/// Handle to a registered memory watch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchId(usize);

/// A CPU fallback handler for RPC op-codes with no matching kernel
/// (§5.1: "either a fallback implementation on the remote CPU is
/// triggered (if configured a priori by the remote CPU) or an error code
/// is written back to the requesting node").
///
/// The handler runs on the remote host CPU: it receives the host memory
/// and the RPC parameters and returns the requester-side target address
/// plus the response bytes (sent back as an RDMA WRITE), or `None` to
/// stay silent. The testbed charges the interrupt/wakeup latency plus any
/// CPU time the handler reports.
pub trait CpuFallback {
    /// Handles one RPC on the host CPU.
    ///
    /// Returns `(target_address, response, cpu_time)`.
    fn handle(
        &mut self,
        mem: &mut HostMemory,
        qpn: Qpn,
        params: &Bytes,
    ) -> Option<(u64, Bytes, TimeDelta)>;
}

#[derive(Debug)]
struct Watch {
    node: NodeId,
    addr: u64,
    len: u64,
    /// Bytes of the watched range not yet written.
    remaining: u64,
    fired_at: Option<Time>,
}

/// Per-node NIC + host state.
struct Node {
    mem: HostMemory,
    tlb: Tlb,
    state: StateTable,
    responder: Responder,
    requester: Requester,
    timer: RetransmissionTimer,
    fabric: KernelFabric,
    /// PCIe occupancy (shared by TX fetches, RX stores, kernel DMA).
    dma: LinkSerializer,
    /// Next time the host may issue a command (AVX2-store pacing, §7.1).
    next_cmd_issue: Time,
    /// Receive kernel tapped into incoming WRITE payload (§3.5).
    receive_tap: Option<RpcOpCode>,
    /// Firing time of the earliest pending RetransmitCheck event, if any
    /// (dedup: one outstanding check per node keeps the event count
    /// linear).
    check_at: Option<Time>,
    /// Kernel tapped into *outgoing* WRITE payload (send kernel, §3.5).
    send_tap: Option<RpcOpCode>,
    /// Address-resolution cache (the open-source ARP module of §4.1).
    arp: strom_wire::arp::ArpCache,
    /// Per-kernel stream occupancy: a kernel consumes `datapath / II`
    /// bytes per cycle (§3.4), so back-to-back payload queues behind its
    /// pipeline when II > 1.
    kernel_occ: Vec<(RpcOpCode, LinkSerializer)>,
    /// CPU fallback handlers by RPC op-code (§5.1).
    fallbacks: Vec<(RpcOpCode, Box<dyn CpuFallback>)>,
    /// DCQCN reaction point: per-QP transmit rates, driven by received
    /// CNPs. Idle (all QPs at line rate) unless `cfg.cc` is on and
    /// congestion is signalled.
    dcqcn: Dcqcn,
    /// Per-QP transmit pacers enforcing the DCQCN rate (only used when
    /// `cfg.cc` is on; a CC-disabled testbed takes the exact pre-CC
    /// timing path).
    pacers: Vec<Pacer>,
    /// Per-QP queues of request packets awaiting their paced transmit
    /// slot. Pacing must bind at *release* time, not post time — a rate
    /// cut mid-message has to slow the packets still queued, which
    /// pre-computed admission times could never do.
    txq: Vec<VecDeque<PacedTx>>,
    /// The live [`Event::PacerTick`] deadline per QP (dedup guard, same
    /// discipline as `check_at`).
    tick_at: Vec<Option<Time>>,
    /// Wire datapath statistics — the same struct
    /// [`ClusterTestbed::status`] hands back, so nothing is
    /// hand-mirrored into the register view.
    counters: WireCounters,
}

/// Geometry and timing of the cluster switch, the knobs
/// [`ClusterTestbed::switched`] takes on top of the per-NIC
/// [`NicConfig`].
#[derive(Debug, Clone, Copy)]
pub struct SwitchParams {
    /// Egress serialization rate per switch port; `None` uses the NIC
    /// link rate from the [`NicConfig`] (a non-blocking switch).
    pub port_rate: Option<Bandwidth>,
    /// Store-and-forward switching latency per frame.
    pub latency: TimeDelta,
    /// Egress queue bound per port, in frames; the switch tail-drops
    /// beyond it.
    pub egress_capacity: usize,
    /// ECN marking policy for the egress queues; `None` disables marking
    /// (the pre-CC switch, bit-identical behaviour).
    pub ecn: Option<EcnConfig>,
}

impl Default for SwitchParams {
    /// A shallow-buffered top-of-rack switch: 500 ns switching latency,
    /// line-rate ports, 64-frame egress queues, no ECN marking.
    fn default() -> Self {
        SwitchParams {
            port_rate: None,
            latency: 500 * strom_sim::time::NANOS,
            egress_capacity: 64,
            ecn: None,
        }
    }
}

/// What rides through the switch alongside each frame: the encoded
/// bytes plus the fault-model decisions already drawn at transmit time
/// (the RNG draw order must not depend on switch queueing).
struct SwitchFrame {
    frame: Bytes,
    ip_len: usize,
    /// Reorder jitter drawn at transmit, applied at delivery.
    jitter: Option<TimeDelta>,
    /// Duplicate decision drawn at transmit.
    dup: bool,
}

/// One packet parked in a QP's paced transmit queue: either a request
/// (arms the retransmission timer on release) or a READ response
/// (responder data that must survive requester-side timeout flushes).
struct PacedTx {
    peer: NodeId,
    pkt: Packet,
    payload_ready: Time,
    arm_timer: bool,
}

/// Per-egress-port metrics mirrors into the shared registry.
struct PortMetrics {
    frames_out: Counter,
    tail_drops: Counter,
    ecn_marked: Counter,
    queue_peak: Gauge,
}

/// The cluster switch plus its testbed-side plumbing.
struct SwitchState {
    model: Switch<SwitchFrame>,
    /// Reusable arbitration output buffers (zero steady-state allocation).
    deliveries: Vec<Delivery<SwitchFrame>>,
    drops: Vec<TailDrop<SwitchFrame>>,
    /// Per-egress-port metrics mirrors.
    port_metrics: Vec<PortMetrics>,
}

/// The simulated world: N nodes and the network between them —
/// point-to-point wires for [`ClusterTestbed::transparent_pair`], a
/// store-and-forward switch for [`ClusterTestbed::switched`].
pub struct ClusterTestbed {
    cfg: NicConfig,
    nodes: Vec<Node>,
    /// Egress serializers: `links[n]` is node n's transmit direction.
    links: Vec<LinkSerializer>,
    queue: EventQueue<Event>,
    rng: SimRng,
    /// Per-directed-pair fault-model state: `fault_state[src * n + dst]`
    /// is the Gilbert–Elliott chain for frames sent by `src` to `dst`.
    fault_state: Vec<LinkFaultState>,
    /// Per-destination-port fault-model overrides (`None` = the global
    /// model in `cfg.fault`); lets a chaos run degrade one switch port
    /// while the others stay healthy.
    port_fault: Vec<Option<LinkFaultModel>>,
    /// The cluster switch, absent in transparent (point-to-point) mode.
    switch: Option<SwitchState>,
    /// Destination node per (source node, queue pair), recorded by
    /// [`ClusterTestbed::connect_qp_between`].
    qp_peer: HashMap<(NodeId, Qpn), NodeId>,
    /// Completion time and outcome per (node, handle).
    completions: HashMap<(NodeId, u64), (Time, CompletionStatus)>,
    /// Protocol wr_id → testbed handle.
    wr_map: HashMap<(NodeId, u64), u64>,
    next_handle: u64,
    watches: Vec<Watch>,
    /// Latest scheduled frame arrival per receiving node. The RX path is
    /// a FIFO: a short packet's smaller store-and-forward delay must not
    /// let it overtake an earlier, larger packet on the same wire.
    last_arrival: Vec<Time>,
    /// Reusable transmit frame buffers (zero-allocation steady state).
    pool: FramePool,
    /// Testbed-level trace sink (disabled until [`Testbed::enable_tracing`]).
    trace: TraceSink,
    /// Shared metrics registry: completion-latency histograms and the
    /// sim dispatch counter live here; experiments may add their own.
    metrics: MetricsRegistry,
    /// Completion-latency histogram handles, indexed by [`LatKind`].
    lat: [HistogramHandle; 3],
    /// Wire capture (disabled until [`Testbed::enable_capture`]).
    capture: Option<PcapWriter>,
    /// Post time and operation kind per (node, handle), consumed when the
    /// work request completes to feed the latency histograms.
    post_info: HashMap<(NodeId, u64), (Time, LatKind)>,
    /// Reusable buffer for [`Self::step_batch`] (zero steady-state
    /// allocation).
    batch_buf: Vec<strom_sim::Scheduled<Event>>,
}

/// Work-request classes with separate completion-latency histograms.
#[derive(Debug, Clone, Copy)]
enum LatKind {
    Write = 0,
    Read = 1,
    Rpc = 2,
}

impl LatKind {
    fn of(wr: &WorkRequest) -> LatKind {
        match wr {
            WorkRequest::Read { .. } => LatKind::Read,
            WorkRequest::Rpc { .. } | WorkRequest::RpcWrite { .. } => LatKind::Rpc,
            WorkRequest::Write { .. } | WorkRequest::WriteInline { .. } => LatKind::Write,
        }
    }
}

impl ClusterTestbed {
    /// Builds the two-node point-to-point geometry of the original
    /// testbed: no switch in the path, frames serialize on the sender's
    /// link and arrive after propagation + RX store-and-forward. All
    /// timing, RNG draws, and telemetry are bit-identical to the
    /// pre-cluster `Testbed` (the chaos-soak fingerprints and the pcap
    /// golden fixture pin this).
    pub fn transparent_pair(cfg: NicConfig) -> Self {
        Self::build(cfg, 2, None)
    }

    /// Builds `n` nodes around a deterministic store-and-forward switch:
    /// every frame serializes on the sender's link, propagates to the
    /// switch, waits out the switching latency, wins a round-robin
    /// grant, serializes on the egress port (or tail-drops at the queue
    /// bound), and then propagates on to the receiver.
    ///
    /// # Panics
    ///
    /// Panics if `n < 2`.
    pub fn switched(cfg: NicConfig, n: usize, params: SwitchParams) -> Self {
        assert!(n >= 2, "a cluster needs at least two nodes");
        Self::build(cfg, n, Some(params))
    }

    fn build(cfg: NicConfig, n: usize, switch: Option<SwitchParams>) -> Self {
        let node = |seed: u64| Node {
            mem: HostMemory::new(),
            tlb: Tlb::new(),
            state: StateTable::new(cfg.num_qps),
            responder: Responder::new(cfg.num_qps, cfg.max_payload()),
            requester: Requester::new(cfg.num_qps, cfg.max_outstanding_reads, cfg.max_payload()),
            timer: RetransmissionTimer::new(cfg.num_qps, cfg.retransmit_timeout)
                .with_backoff_cap(cfg.backoff_shift_cap),
            fabric: KernelFabric::new(seed),
            dma: LinkSerializer::new(cfg.pcie.bandwidth),
            next_cmd_issue: 0,
            receive_tap: None,
            check_at: None,
            send_tap: None,
            arp: strom_wire::arp::ArpCache::new(),
            kernel_occ: Vec::new(),
            fallbacks: Vec::new(),
            dcqcn: Dcqcn::new(
                DcqcnConfig::for_line_rate(cfg.link_bandwidth.as_gbit_per_sec() * 1e9),
                cfg.num_qps,
            ),
            pacers: vec![Pacer::new(); cfg.num_qps],
            txq: (0..cfg.num_qps).map(|_| VecDeque::new()).collect(),
            tick_at: vec![None; cfg.num_qps],
            counters: WireCounters::default(),
        };
        let metrics = MetricsRegistry::default();
        let lat = [
            metrics.histogram("latency.write_ps"),
            metrics.histogram("latency.read_ps"),
            metrics.histogram("latency.rpc_ps"),
        ];
        let switch = switch.map(|params| SwitchState {
            model: Switch::new(SwitchConfig {
                ports: n,
                port_rate: params.port_rate.unwrap_or(cfg.link_bandwidth),
                latency: params.latency,
                egress_capacity: params.egress_capacity,
                ecn: params.ecn,
            }),
            deliveries: Vec::new(),
            drops: Vec::new(),
            port_metrics: (0..n)
                .map(|p| PortMetrics {
                    frames_out: metrics.counter(&format!("switch.port{p}.frames_out")),
                    tail_drops: metrics.counter(&format!("switch.port{p}.tail_drops")),
                    ecn_marked: metrics.counter(&format!("switch.port{p}.ecn_marked")),
                    queue_peak: metrics.gauge(&format!("switch.port{p}.queue_peak")),
                })
                .collect(),
        });
        Self {
            nodes: (0..n).map(|i| node(cfg.seed ^ (0xA + i as u64))).collect(),
            links: (0..n)
                .map(|_| LinkSerializer::new(cfg.link_bandwidth))
                .collect(),
            queue: EventQueue::new(),
            rng: SimRng::seed(cfg.seed),
            fault_state: vec![LinkFaultState::default(); n * n],
            port_fault: vec![None; n],
            switch,
            qp_peer: HashMap::new(),
            completions: HashMap::new(),
            wr_map: HashMap::new(),
            next_handle: 1,
            watches: Vec::new(),
            last_arrival: vec![0; n],
            pool: FramePool::default(),
            trace: TraceSink::default(),
            metrics,
            lat,
            capture: None,
            post_info: HashMap::new(),
            batch_buf: Vec::new(),
            cfg,
        }
    }

    /// Enables structured tracing with a bounded ring of `capacity`
    /// records, threading the sink through every instrumented layer: the
    /// event queue publishes the simulation clock to it, and the
    /// requesters, retransmission timers, and TLBs of both nodes emit
    /// into it alongside the testbed's own packet/DMA/kernel events.
    /// Returns a handle to the sink (also available via [`Self::trace`]).
    pub fn enable_tracing(&mut self, capacity: usize) -> TraceSink {
        let sink = TraceSink::enabled(capacity);
        self.queue.set_telemetry(
            sink.clone(),
            Some(self.metrics.counter("sim.events_dispatched")),
        );
        for n in &mut self.nodes {
            n.requester.set_trace(sink.clone());
            n.timer.set_trace(sink.clone());
            n.tlb.set_trace(sink.clone());
        }
        self.trace = sink.clone();
        sink
    }

    /// The testbed's trace sink (disabled unless
    /// [`Self::enable_tracing`] was called).
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// The testbed's metrics registry (completion-latency histograms,
    /// the sim dispatch counter, and anything experiments add).
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.metrics
    }

    /// Starts capturing every RoCE frame that reaches the wire into an
    /// in-memory pcap file (nanosecond timestamps, Ethernet link type).
    /// Frames the fault model drops outright are never encoded, so they
    /// do not appear; corrupted frames appear as transmitted (post-flip).
    /// ARP uses a bare 28-byte body in this model — not an Ethernet
    /// frame — so bring-up traffic is not captured.
    pub fn enable_capture(&mut self) {
        self.capture = Some(PcapWriter::new());
    }

    /// The captured pcap file bytes, if [`Self::enable_capture`] is on.
    pub fn pcap_bytes(&self) -> Option<&[u8]> {
        self.capture.as_ref().map(|c| c.as_bytes())
    }

    /// The configuration in force.
    pub fn config(&self) -> &NicConfig {
        &self.cfg
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Advances simulated time by `delta` without processing events —
    /// models host CPU work (e.g. a software checksum pass) between
    /// simulated I/O operations.
    pub fn advance(&mut self, delta: TimeDelta) {
        let t = self.queue.now() + delta;
        self.queue.advance_to(t);
    }

    /// Timestamp of the earliest pending event, if any. Open-loop
    /// drivers use this to process everything due before an arrival
    /// time, then [`Self::advance`] the clock to the arrival itself.
    pub fn next_event_at(&self) -> Option<Time> {
        self.queue.peek_time()
    }

    /// Mutable access to a node's host memory (the application's view).
    pub fn mem(&mut self, node: NodeId) -> &mut HostMemory {
        &mut self.nodes[node].mem
    }

    /// Immutable access to a node's kernel fabric (statistics).
    pub fn fabric(&self, node: NodeId) -> &KernelFabric {
        &self.nodes[node].fabric
    }

    /// Mutable access to a node's kernel fabric (failure injection).
    pub fn fabric_mut(&mut self, node: NodeId) -> &mut KernelFabric {
        &mut self.nodes[node].fabric
    }

    /// When the kernel with `op` on `node` will have finished consuming
    /// all stream payload fed to it so far (its pipeline occupancy; §3.4).
    /// Returns 0 if the kernel has consumed nothing.
    pub fn kernel_busy_until(&self, node: NodeId, op: RpcOpCode) -> Time {
        self.nodes[node]
            .kernel_occ
            .iter()
            .find(|(o, _)| *o == op)
            .map(|(_, s)| s.busy_until())
            .unwrap_or(0)
    }

    /// Retransmitted packets on a node (loss-recovery diagnostics).
    pub fn retransmissions(&self, node: NodeId) -> u64 {
        self.nodes[node].requester.retransmissions()
    }

    /// Frames dropped by injected link loss toward `node`.
    pub fn frames_lost(&self, node: NodeId) -> u64 {
        self.nodes[node].counters.frames_lost
    }

    /// Payload bytes delivered into `node`'s memory by WRITEs.
    pub fn payload_bytes_rx(&self, node: NodeId) -> u64 {
        self.nodes[node].counters.payload_bytes_rx
    }

    /// Pins `len` bytes on `node` and installs the pages in the NIC TLB
    /// (the driver's pin + populate flow, §4.3). Returns the base address.
    pub fn pin(&mut self, node: NodeId, len: u64) -> u64 {
        let n = &mut self.nodes[node];
        let (base, pages) = n.mem.pin(len).expect("pin failed");
        n.tlb.insert_region(base, &pages).expect("TLB full");
        base
    }

    /// Initializes a queue pair between nodes 0 and 1 (the out-of-band
    /// connection setup RoCE performs before one-sided traffic) — the
    /// original two-host API.
    pub fn connect_qp(&mut self, qpn: Qpn) {
        self.connect_qp_between(0, 1, qpn);
    }

    /// Initializes a queue pair between two specific nodes; subsequent
    /// traffic posted on `qpn` from either endpoint is routed to the
    /// other.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`.
    pub fn connect_qp_between(&mut self, a: NodeId, b: NodeId, qpn: Qpn) {
        assert_ne!(a, b, "a queue pair connects two distinct nodes");
        // Both directions start at PSN 0 for reproducibility.
        self.nodes[a].state.init_qp(qpn, 0, 0);
        self.nodes[b].state.init_qp(qpn, 0, 0);
        self.qp_peer.insert((a, qpn), b);
        self.qp_peer.insert((b, qpn), a);
    }

    /// Number of nodes in the testbed.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// The node at the far end of `qpn` as seen from `node`.
    fn peer_of(&self, node: NodeId, qpn: Qpn) -> NodeId {
        match self.qp_peer.get(&(node, qpn)) {
            Some(&peer) => peer,
            // Pre-cluster QPs were implicitly 0 ↔ 1; keep that default so
            // two-node flows that skip connect_qp (e.g. raw ACK probes)
            // behave as before.
            None => {
                debug_assert!(
                    self.nodes.len() == 2,
                    "unconnected qpn {qpn} on node {node}"
                );
                1 - node
            }
        }
    }

    /// The switch's forwarding counters for one port, when running in
    /// switched mode.
    pub fn switch_counters(&self, port: usize) -> Option<SwitchPortCounters> {
        self.switch.as_ref().map(|s| s.model.counters(port))
    }

    /// Total frames tail-dropped across all switch egress ports (0 in
    /// transparent mode).
    pub fn switch_tail_drops(&self) -> u64 {
        self.switch
            .as_ref()
            .map(|s| s.model.total_tail_drops())
            .unwrap_or(0)
    }

    /// Deploys a StRoM kernel on `node` (§5.1 multi-kernel deployment).
    pub fn deploy_kernel(&mut self, node: NodeId, kernel: Box<dyn Kernel>) {
        self.nodes[node].fabric.register(kernel);
    }

    /// Taps incoming WRITE payload on `node` into the kernel with the
    /// given op-code (receive kernel, §3.5).
    pub fn set_receive_tap(&mut self, node: NodeId, op: RpcOpCode) {
        self.nodes[node].receive_tap = Some(op);
    }

    /// Taps *outgoing* WRITE payload on `node` into the kernel with the
    /// given op-code (send kernel, §3.5: kernels can "process data before
    /// being sent").
    pub fn set_send_tap(&mut self, node: NodeId, op: RpcOpCode) {
        self.nodes[node].send_tap = Some(op);
    }

    /// Configures a CPU fallback for RPCs with op-code `op` on `node`
    /// (§5.1). Used when the kernel is not deployed on the NIC.
    pub fn set_cpu_fallback(&mut self, node: NodeId, op: RpcOpCode, handler: Box<dyn CpuFallback>) {
        self.nodes[node].fallbacks.push((op, handler));
    }

    /// Invokes a kernel on `node`'s *own* NIC (local StRoM invocation,
    /// §5.2: "StRoM kernels can also be invoked by the local host by
    /// posting an RPC to the local network card"). The kernel's network
    /// output, if any, is transmitted from `node` on `qpn`.
    pub fn post_local_rpc(&mut self, node: NodeId, qpn: Qpn, rpc_op: RpcOpCode, params: Bytes) {
        // The command crosses MMIO to the Controller, which forwards it to
        // the kernel fabric directly — no network hop.
        let now = self.queue.now();
        let n = &mut self.nodes[node];
        let t_store = (now + self.cfg.host_post_overhead).max(n.next_cmd_issue);
        n.next_cmd_issue = t_store + self.cfg.pcie.cmd_issue_interval;
        let at = t_store + self.cfg.pcie.mmio_latency + self.cfg.kernel_dispatch_time();
        // Model as an immediate fabric dispatch at `at` via the event
        // queue: reuse CmdArrive with a marker is invasive; dispatch
        // directly with the right base time instead.
        if let Some(actions) = self.nodes[node].fabric.invoke(rpc_op, qpn, params) {
            self.trace.emit(TraceEvent::KernelEnter {
                node: node as u8,
                op: rpc_op.0,
            });
            self.exec_kernel_actions(node, rpc_op, actions, at);
        }
    }

    /// Installs a composable link fault model (loss, corruption,
    /// reordering, duplication) and resets the per-direction loss-model
    /// state, so the chaos schedule is fully determined by the model plus
    /// the testbed seed. Clears any per-port overrides.
    pub fn set_fault_model(&mut self, model: LinkFaultModel) {
        self.cfg.fault = model;
        self.fault_state = vec![LinkFaultState::default(); self.nodes.len() * self.nodes.len()];
        self.port_fault = vec![None; self.nodes.len()];
    }

    /// Overrides the fault model for all traffic *toward* `dst` (the
    /// switch egress port facing that node), leaving other ports on the
    /// global model — a chaos run can degrade one port while the rest of
    /// the cluster stays healthy. Resets the fault state of the affected
    /// directed pairs.
    pub fn set_port_fault_model(&mut self, dst: NodeId, model: LinkFaultModel) {
        let n = self.nodes.len();
        assert!(dst < n, "port out of range");
        self.port_fault[dst] = Some(model);
        for src in 0..n {
            self.fault_state[src * n + dst] = LinkFaultState::default();
        }
    }

    /// The fault model in force for frames from `src` to `dst`.
    fn fault_model_for(&self, _src: NodeId, dst: NodeId) -> LinkFaultModel {
        self.port_fault[dst].unwrap_or(self.cfg.fault)
    }

    /// Whether `qpn` on `node` is in the terminal error state (retry
    /// budget exhausted).
    pub fn qp_errored(&self, node: NodeId, qpn: Qpn) -> bool {
        self.nodes[node].requester.is_errored(qpn)
    }

    /// Performs network bring-up: each node sends an ARP who-has for
    /// every peer and answers the peers' requests, populating all
    /// resolution caches over the simulated wire (§4.1: "we use an open
    /// source module to handle the Address Resolution Protocol"). Returns
    /// the time at which every cache is populated.
    pub fn bring_up(&mut self) -> Time {
        use strom_wire::arp::ArpPacket;
        use strom_wire::ethernet::MacAddr;
        use strom_wire::ipv4::Ipv4Addr;
        let n = self.nodes.len();
        for node in 0..n {
            for peer in 0..n {
                if peer == node {
                    continue;
                }
                let req = ArpPacket::request(
                    MacAddr::from_node_id(node as u32),
                    Ipv4Addr::from_node_id(node as u8),
                    Ipv4Addr::from_node_id(peer as u8),
                );
                self.send_arp(node, peer, &req);
            }
        }
        self.run_until_idle();
        for node in 0..n {
            assert!(self.resolved(node), "bring-up must resolve every peer");
        }
        self.now()
    }

    /// Whether `node` has resolved every peer's MAC address.
    pub fn resolved(&self, node: NodeId) -> bool {
        (0..self.nodes.len()).filter(|&p| p != node).all(|peer| {
            self.nodes[node]
                .arp
                .lookup(strom_wire::ipv4::Ipv4Addr::from_node_id(peer as u8))
                .is_some()
        })
    }

    /// Transmits an ARP body to `dst`. ARP rides a bare minimum-size
    /// Ethernet frame in this model, below the RoCE datapath — it is
    /// delivered point-to-point even in switched mode (bring-up is
    /// control-plane traffic; the switch model concerns itself with the
    /// RoCE frames the experiments measure).
    fn send_arp(&mut self, node: NodeId, dst: NodeId, pkt: &strom_wire::arp::ArpPacket) {
        let now = self.queue.now();
        let frame = pkt.encode();
        let wire_bytes = strom_wire::ethernet::wire_bytes(frame.len()) as u64;
        let tx_ready = now + self.cfg.tx_pipeline_time();
        let (_, wire_end) = self.links[node].admit(tx_ready, wire_bytes);
        let arrival = (wire_end + self.cfg.propagation + self.cfg.rx_pipeline_time())
            .max(self.last_arrival[dst] + self.cfg.clock.period_ps());
        self.last_arrival[dst] = arrival;
        self.queue
            .schedule_at(arrival, Event::ArpArrive { node: dst, frame });
    }

    fn on_arp(&mut self, node: NodeId, frame: &[u8], _now: Time) {
        use strom_wire::ethernet::MacAddr;
        use strom_wire::ipv4::Ipv4Addr;
        let Some(pkt) = strom_wire::arp::ArpPacket::parse(frame) else {
            self.nodes[node].counters.frames_parse_dropped += 1;
            self.trace.emit(TraceEvent::PacketDrop {
                node: node as u8,
                reason: DropReason::Malformed,
            });
            return;
        };
        let my_ip = Ipv4Addr::from_node_id(node as u8);
        let my_mac = MacAddr::from_node_id(node as u32);
        if let Some(reply) = self.nodes[node].arp.on_packet(&pkt, my_ip, my_mac) {
            // The reply's target is the requester; its IP names the node.
            let dst = reply
                .target_ip
                .node_id()
                .map(usize::from)
                .filter(|&d| d < self.nodes.len())
                .expect("ARP requester is a testbed node");
            self.send_arp(node, dst, &reply);
        }
    }

    /// Posts a work request from `node`'s host; returns a handle usable
    /// with [`Self::run_until_complete`].
    ///
    /// Charges the host-side costs: software post overhead, the AVX2-store
    /// pacing interval, and the MMIO latency to the Controller.
    pub fn post(&mut self, node: NodeId, qpn: Qpn, wr: WorkRequest) -> u64 {
        let handle = self.next_handle;
        self.next_handle += 1;
        let now = self.queue.now();
        self.post_info
            .insert((node, handle), (now, LatKind::of(&wr)));
        let n = &mut self.nodes[node];
        let t_store = (now + self.cfg.host_post_overhead).max(n.next_cmd_issue);
        n.next_cmd_issue = t_store + self.cfg.pcie.cmd_issue_interval;
        let arrive = t_store + self.cfg.pcie.mmio_latency;
        // Drive the real doorbell ABI: encode the request into the 32 B
        // AVX2 command word (§7.1) and let the Controller decode it back.
        // RPC parameters are staged in a host-side buffer the word points
        // at, as the driver does with WQE memory.
        let mut staged: Option<Bytes> = None;
        let wr = match crate::controller::CommandWord::encode(qpn, &wr, |p| {
            staged = Some(p.clone());
            0xFFFF_0000_0000 // Staging-slot address inside driver memory.
        }) {
            Some(word) => {
                let staged = staged;
                let (decoded_qpn, decoded) = word
                    .decode(|_, _| staged.expect("params were staged"))
                    .expect("own encoding decodes");
                debug_assert_eq!(decoded_qpn, qpn);
                decoded
            }
            // WriteInline has no doorbell form (NIC-internal only).
            None => wr,
        };
        n.counters.commands += 1;
        self.queue.schedule_at(
            arrive,
            Event::CmdArrive {
                node,
                qpn,
                wr: Box::new(wr),
                handle,
            },
        );
        handle
    }

    /// Reads the Controller's status registers for `node` (§4.3: "the
    /// host can also retrieve status and performance metrics").
    pub fn status(&self, node: NodeId) -> crate::controller::StatusRegisters {
        let n = &self.nodes[node];
        crate::controller::StatusRegisters {
            wire: n.counters,
            retransmissions: n.requester.retransmissions(),
            timeouts: n.timer.expirations(),
            backoff_events: n.timer.backoff_events(),
            qps_in_error: n.requester.qps_in_error(),
            kernel_invocations: n.fabric.completed(),
            rpc_unmatched: n.fabric.unmatched(),
        }
    }

    /// Registers a watch on `[addr, addr + len)` of `node`'s memory; fires
    /// once that many bytes of the range have been DMA-written.
    pub fn add_watch(&mut self, node: NodeId, addr: u64, len: u64) -> WatchId {
        self.watches.push(Watch {
            node,
            addr,
            len,
            remaining: len,
            fired_at: None,
        });
        WatchId(self.watches.len() - 1)
    }

    /// When the given watch fired (including the host's polling-detection
    /// overhead), if it has.
    pub fn watch_fired(&self, id: WatchId) -> Option<Time> {
        self.watches[id.0]
            .fired_at
            .map(|t| t + self.cfg.poll_overhead)
    }

    /// Runs until the watch fires; returns the detection time.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains first — the awaited data can then
    /// never arrive, which is an experiment bug.
    pub fn run_until_watch(&mut self, id: WatchId) -> Time {
        loop {
            if let Some(t) = self.watch_fired(id) {
                return t;
            }
            assert!(self.step(), "simulation went idle before watch fired");
        }
    }

    /// When the given work request completed (ACKed / data delivered /
    /// failed terminally).
    pub fn completed_at(&self, node: NodeId, handle: u64) -> Option<Time> {
        self.completions.get(&(node, handle)).map(|&(t, _)| t)
    }

    /// How the given work request completed, once it has.
    pub fn completion_status(&self, node: NodeId, handle: u64) -> Option<CompletionStatus> {
        self.completions.get(&(node, handle)).map(|&(_, s)| s)
    }

    /// Runs until a work request completes; returns the completion time.
    ///
    /// # Panics
    ///
    /// Panics if the event queue drains first.
    pub fn run_until_complete(&mut self, node: NodeId, handle: u64) -> Time {
        loop {
            // A completion may be recorded with a timestamp slightly in
            // the future (e.g. a read completes when its final DMA write
            // lands); keep stepping until simulated time catches up so
            // the memory effects are visible to the caller.
            if let Some(t) = self.completed_at(node, handle) {
                if self.queue.now() >= t || self.queue.is_empty() {
                    return t;
                }
                self.step();
                continue;
            }
            assert!(self.step(), "simulation went idle before completion");
        }
    }

    /// Runs the event loop dry, one same-timestamp batch at a time.
    pub fn run_until_idle(&mut self) {
        while self.step_batch() > 0 {}
    }

    /// Runs the event loop dry, but gives up after `max_events` events.
    ///
    /// Returns `true` if the simulation quiesced within the budget — the
    /// chaos harness's livelock detector: a retransmission storm that
    /// never converges fails this instead of hanging the test suite.
    /// Batched dispatch may overshoot the budget by at most one
    /// same-timestamp bucket.
    pub fn run_until_idle_bounded(&mut self, max_events: u64) -> bool {
        let mut left = max_events;
        loop {
            if left == 0 {
                return self.queue.is_empty();
            }
            let n = self.step_batch();
            if n == 0 {
                return true;
            }
            left = left.saturating_sub(n);
        }
    }

    /// Whether `qpn` on `node` still has unacknowledged messages or
    /// outstanding reads (a "stuck QP" probe for the chaos harness: after
    /// the sim quiesces, nothing may be left outstanding on a healthy QP).
    pub fn qp_has_outstanding(&self, node: NodeId, qpn: Qpn) -> bool {
        self.nodes[node].requester.has_outstanding(qpn)
    }

    /// Processes one event; returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(scheduled) = self.queue.pop() else {
            return false;
        };
        self.dispatch_event(scheduled.event, scheduled.at);
        true
    }

    /// Processes one same-timestamp batch of events; returns how many
    /// were dispatched (0 when the queue is empty).
    ///
    /// Equivalent to calling [`Self::step`] once per event in the batch —
    /// same order, same handlers — but amortizes the queue's bucket walk
    /// across the whole tick. Used by the idle-drain loops; the
    /// completion- and watch-bounded loops keep single-event granularity
    /// so they stop exactly where the reference engine would.
    pub fn step_batch(&mut self) -> u64 {
        let mut buf = std::mem::take(&mut self.batch_buf);
        buf.clear();
        let n = self.queue.pop_batch(&mut buf);
        for s in buf.drain(..) {
            self.dispatch_event(s.event, s.at);
        }
        self.batch_buf = buf;
        n as u64
    }

    fn dispatch_event(&mut self, event: Event, now: Time) {
        match event {
            Event::CmdArrive {
                node,
                qpn,
                wr,
                handle,
            } => self.on_cmd(node, qpn, wr, handle, now),
            Event::FrameArrive { node, frame } => self.on_frame(node, frame, now),
            Event::DmaWriteDone { node, vaddr, data } => {
                self.on_dma_write_done(node, vaddr, &data, now)
            }
            Event::KernelDmaReadDone {
                node,
                op,
                tag,
                vaddr,
                len,
            } => self.on_kernel_read_done(node, op, tag, vaddr, len, now),
            Event::RetransmitCheck { node } => self.on_retransmit_check(node, now),
            Event::PacerTick { node, qpn } => self.on_pacer_tick(node, qpn, now),
            Event::SwitchTick => self.on_switch_tick(now),
            Event::ArpArrive { node, frame } => self.on_arp(node, &frame, now),
        }
    }

    // ----- event handlers -------------------------------------------------

    fn on_cmd(&mut self, node: NodeId, qpn: Qpn, wr: Box<WorkRequest>, handle: u64, now: Time) {
        // Reads land in the bounded multi-queue; if it is full, back the
        // doorbell off *before* posting so the success path below can move
        // the request out of its box instead of cloning it defensively.
        if matches!(*wr, WorkRequest::Read { .. }) && self.nodes[node].requester.read_queue_full() {
            self.queue.schedule_at(
                now + 500 * strom_sim::time::NANOS,
                Event::CmdArrive {
                    node,
                    qpn,
                    wr,
                    handle,
                },
            );
            return;
        }
        let n = &mut self.nodes[node];
        match n.requester.post(&mut n.state, qpn, *wr) {
            Ok((wr_id, descs)) => {
                self.wr_map.insert((node, wr_id), handle);
                for desc in descs {
                    self.send_descriptor(node, &desc, now);
                }
            }
            Err(strom_proto::requester::PostError::MultiQueueFull) => {
                unreachable!("read-queue fullness is pre-checked above")
            }
            Err(strom_proto::requester::PostError::QpInError) => {
                // The QP went terminal while the doorbell was in flight:
                // complete immediately with an error instead of wedging
                // the host, which may be blocked on this handle.
                self.finish_completion(node, handle, now, CompletionStatus::RetryExceeded);
            }
            Err(e) => panic!("post failed on node {node}: {e}"),
        }
    }

    fn on_frame(&mut self, node: NodeId, frame: Bytes, now: Time) {
        self.nodes[node].counters.frames_rx += 1;
        let pkt = match Packet::parse(&frame) {
            Ok(p) => p,
            // A checksum catching in-flight corruption (ICRC over
            // BTH+payload, IPv4 header checksum) degrades the frame into a
            // loss the retransmission machinery recovers from; count it
            // separately from structurally malformed frames.
            Err(PacketError::Icrc | PacketError::Ip) => {
                self.nodes[node].counters.frames_crc_dropped += 1;
                self.trace.emit(TraceEvent::PacketDrop {
                    node: node as u8,
                    reason: DropReason::Corruption,
                });
                self.pool.put(frame);
                return;
            }
            Err(_) => {
                self.nodes[node].counters.frames_parse_dropped += 1;
                self.trace.emit(TraceEvent::PacketDrop {
                    node: node as u8,
                    reason: DropReason::Malformed,
                });
                self.pool.put(frame);
                return;
            }
        };
        self.trace.emit(TraceEvent::PacketRx {
            node: node as u8,
            opcode: pkt.opcode() as u8,
            qpn: pkt.bth.dest_qp,
            psn: pkt.bth.psn,
            payload_len: pkt.payload.len() as u32,
        });
        match pkt.opcode() {
            Opcode::Acknowledge => {
                let aeth = pkt.aeth.expect("ACK carries an AETH");
                self.on_ack(node, pkt.bth.dest_qp, pkt.bth.psn, aeth, now);
            }
            Opcode::ReadResponseFirst
            | Opcode::ReadResponseMiddle
            | Opcode::ReadResponseLast
            | Opcode::ReadResponseOnly => {
                let n = &mut self.nodes[node];
                let qpn = pkt.bth.dest_qp;
                if let Some((addr, completion)) =
                    n.requester
                        .on_read_response(&mut n.state, qpn, pkt.bth.psn, &pkt.payload)
                {
                    let done = self.schedule_dma_write(
                        node,
                        addr,
                        pkt.payload.clone(),
                        now,
                        self.cfg.pcie.bypass_overhead,
                    );
                    if let Some(c) = completion {
                        self.record_completion(node, &c, done);
                    }
                    // Every response packet is forward progress: restart
                    // the retransmission timer (standard RC requester
                    // behaviour), or a multi-millisecond response stream
                    // would spuriously time out mid-flight.
                    self.refresh_timer(node, qpn, now);
                } // else: duplicate/out-of-order response, dropped.
                  // A CE mark on a read response means the responder→
                  // requester direction is congested: echo a CNP so the
                  // *responder's* DCQCN cuts its read-response rate (the
                  // mirror of the responder-side echo for request data in
                  // `strom-proto`). Duplicates still count — each marked
                  // packet is evidence of a congested queue.
                if self.cfg.cc && pkt.ecn == strom_wire::ECN_CE {
                    self.nodes[node].counters.cnps_tx += 1;
                    self.send_cnp(node, qpn, now);
                }
            }
            Opcode::Cnp => {
                // Congestion echo: apply the DCQCN rate cut to the QP the
                // marked data packet came from. CNPs are pure signals —
                // no PSN, no ACK, never retransmitted.
                let n = &mut self.nodes[node];
                n.counters.cnps_rx += 1;
                n.dcqcn.on_cnp(pkt.bth.dest_qp as usize, now);
            }
            _ => {
                let n = &mut self.nodes[node];
                let actions = n.responder.on_packet(&mut n.state, &pkt);
                self.exec_responder_actions(node, &pkt, actions, now);
            }
        }
        // Best-effort buffer reuse: the parsed packet's payload is a
        // zero-copy slice of `frame`, so drop it first — reclaim then
        // succeeds exactly when dispatch kept no reference (ACKs, NAKs).
        drop(pkt);
        self.pool.put(frame);
    }

    fn on_ack(&mut self, node: NodeId, qpn: Qpn, psn: Psn, aeth: Aeth, now: Time) {
        let n = &mut self.nodes[node];
        let (completions, retransmit) = n.requester.on_ack(&mut n.state, qpn, psn, aeth);
        for c in completions {
            self.record_completion(node, &c, now);
        }
        for desc in retransmit {
            self.send_descriptor(node, &desc, now);
        }
        self.refresh_timer(node, qpn, now);
    }

    fn on_dma_write_done(&mut self, node: NodeId, vaddr: u64, data: &Bytes, _now: Time) {
        // The NIC writes through the TLB: translate and store physically.
        let segs = self.nodes[node]
            .tlb
            .translate_command(vaddr, data.len() as u32)
            .unwrap_or_else(|e| panic!("DMA write fault on node {node}: {e}"));
        let mut offset = 0usize;
        for seg in segs {
            self.nodes[node]
                .mem
                .phys_write(seg.paddr, &data[offset..offset + seg.len as usize]);
            offset += seg.len as usize;
        }
        let done_at = self.queue.now();
        // Notify watches overlapping the written range.
        for w in &mut self.watches {
            if w.fired_at.is_some() || w.node != node {
                continue;
            }
            let start = vaddr.max(w.addr);
            let end = (vaddr + data.len() as u64).min(w.addr + w.len);
            if end > start {
                w.remaining = w.remaining.saturating_sub(end - start);
                if w.remaining == 0 {
                    w.fired_at = Some(done_at);
                }
            }
        }
    }

    fn on_kernel_read_done(
        &mut self,
        node: NodeId,
        op: RpcOpCode,
        tag: u32,
        vaddr: u64,
        len: u32,
        now: Time,
    ) {
        // Read the bytes *at completion time* — a concurrently modified
        // object yields a torn read, which is what the consistency kernel
        // exists to catch.
        let data = self.dma_read_bytes(node, vaddr, len);
        if let Some(actions) = self.nodes[node].fabric.dma_data(op, tag, data) {
            self.exec_kernel_actions(node, op, actions, now);
        }
    }

    fn on_retransmit_check(&mut self, node: NodeId, now: Time) {
        // Only the live check — the one `schedule_check` most recently
        // filed — may act. Re-arming at an *earlier* deadline orphans the
        // previously queued event; if an orphan were allowed to clear the
        // dedup state and fall through to `schedule_check`, every orphan
        // would mint a fresh duplicate on each firing and the duplicate
        // population would never decay (a self-sustaining event storm
        // under congestion-driven retransmission).
        if self.nodes[node].check_at != Some(now) {
            return;
        }
        self.nodes[node].check_at = None;
        let expired = self.nodes[node].timer.expired(now);
        for qpn in expired {
            if !self.nodes[node].requester.has_outstanding(qpn) {
                continue;
            }
            // Retry budget (IB retry_cnt): after max_retries consecutive
            // timeouts without progress the QP goes terminal instead of
            // retransmitting forever. Everything in flight completes with
            // an error status so the host observes the failure.
            if self.nodes[node].timer.attempts(qpn) > self.cfg.max_retries {
                // Drop queued requests, but keep paced READ responses:
                // they belong to the *peer's* read, not this node's
                // failed requester window.
                self.nodes[node].txq[qpn as usize].retain(|tx| !tx.arm_timer);
                let completions = self.nodes[node].requester.fail_qp(qpn);
                for c in completions {
                    self.record_completion(node, &c, now);
                }
                continue;
            }
            // Go-back-N: the timeout retransmits every outstanding
            // packet, so any original still parked in the pacer queue is
            // superseded — drop it or the window would go out twice.
            // Paced READ responses stay: they are responder-side data
            // for the peer's read, not part of this requester window.
            self.nodes[node].txq[qpn as usize].retain(|tx| !tx.arm_timer);
            let descs = self.nodes[node].requester.on_timeout(qpn);
            for desc in descs {
                self.send_descriptor(node, &desc, now);
            }
        }
        self.schedule_check(node);
    }

    // ----- protocol execution ---------------------------------------------

    fn exec_responder_actions(
        &mut self,
        node: NodeId,
        pkt: &Packet,
        actions: Vec<ResponderAction>,
        now: Time,
    ) {
        for action in actions {
            match action {
                ResponderAction::WritePayload { vaddr, data } => {
                    self.nodes[node].counters.payload_bytes_rx += data.len() as u64;
                    self.schedule_dma_write(
                        node,
                        vaddr,
                        data.clone(),
                        now,
                        self.cfg.pcie.bypass_overhead,
                    );
                    // Receive kernel tap: bump-in-the-wire copy (§3.5),
                    // no extra latency on the main path.
                    if let Some(op) = self.nodes[node].receive_tap {
                        let last = pkt.opcode().ends_message();
                        let done = self.kernel_consume(node, op, data.len(), now);
                        if let Some(acts) =
                            self.nodes[node]
                                .fabric
                                .stream(op, pkt.bth.dest_qp, data, last)
                        {
                            self.exec_kernel_actions(node, op, acts, done);
                        }
                    }
                }
                ResponderAction::SendAck { qpn, psn, msn } => {
                    self.send_ack(node, qpn, psn, msn, AethSyndrome::Ack, now);
                }
                ResponderAction::SendNakSequenceError { qpn, psn, msn } => {
                    self.send_ack(node, qpn, psn, msn, AethSyndrome::NakSequenceError, now);
                }
                ResponderAction::ReadResponse {
                    qpn,
                    first_psn,
                    vaddr,
                    len,
                } => {
                    self.send_read_response(node, qpn, first_psn, vaddr, len, now);
                }
                ResponderAction::RpcInvoke {
                    qpn,
                    rpc_op,
                    params,
                } => {
                    let at = now + self.cfg.kernel_dispatch_time();
                    match self.nodes[node].fabric.invoke(rpc_op, qpn, params.clone()) {
                        Some(actions) => {
                            self.trace.emit(TraceEvent::KernelEnter {
                                node: node as u8,
                                op: rpc_op.0,
                            });
                            self.exec_kernel_actions(node, rpc_op, actions, at)
                        }
                        None => {
                            // No kernel matched: try the CPU fallback
                            // (§5.1), else NAK so the requester observes
                            // the failure.
                            if !self.run_cpu_fallback(node, rpc_op, qpn, &params, now) {
                                let msn = 0;
                                self.send_ack(
                                    node,
                                    qpn,
                                    pkt.bth.psn,
                                    msn,
                                    AethSyndrome::NakRemoteOperationalError,
                                    now,
                                );
                            }
                        }
                    }
                }
                ResponderAction::RpcPayload {
                    qpn,
                    rpc_op,
                    data,
                    last,
                } => {
                    let at = self
                        .kernel_consume(node, rpc_op, data.len(), now)
                        .max(now + self.cfg.kernel_dispatch_time());
                    if let Some(actions) = self.nodes[node].fabric.stream(rpc_op, qpn, data, last) {
                        self.exec_kernel_actions(node, rpc_op, actions, at);
                    }
                }
                ResponderAction::SendCnp { qpn } => {
                    self.nodes[node].counters.cnps_tx += 1;
                    self.send_cnp(node, qpn, now);
                }
                ResponderAction::DroppedDuplicate | ResponderAction::DroppedInvalid => {}
            }
        }
    }

    fn exec_kernel_actions(
        &mut self,
        node: NodeId,
        op: RpcOpCode,
        actions: Vec<KernelAction>,
        now: Time,
    ) {
        for action in actions {
            match action {
                KernelAction::DmaRead { tag, vaddr, len } => {
                    let (_, occ_end) = self.nodes[node].dma.admit_with_overhead(
                        now,
                        u64::from(len),
                        self.cfg.pcie.cmd_overhead,
                    );
                    let done = occ_end + self.cfg.pcie.read_rtt_base;
                    self.queue.schedule_at(
                        done,
                        Event::KernelDmaReadDone {
                            node,
                            op,
                            tag,
                            vaddr,
                            len,
                        },
                    );
                }
                KernelAction::DmaWrite { vaddr, data } => {
                    // Kernel-issued stores are random-access commands.
                    self.schedule_dma_write(node, vaddr, data, now, self.cfg.pcie.cmd_overhead);
                }
                KernelAction::RoceSend {
                    qpn,
                    remote_vaddr,
                    data,
                } => {
                    let n = &mut self.nodes[node];
                    let result = n.requester.post(
                        &mut n.state,
                        qpn,
                        WorkRequest::WriteInline { remote_vaddr, data },
                    );
                    match result {
                        Ok((_, descs)) => {
                            for desc in descs {
                                self.send_descriptor_at(node, &desc, now);
                            }
                        }
                        Err(e) => panic!("kernel RoceSend failed: {e}"),
                    }
                }
                KernelAction::Forward { .. } => {
                    // A Forward leaving the *top-level* kernel has no next
                    // stage: the data was already delivered to host memory
                    // by the RPC WRITE path (bump-in-the-wire), so the
                    // fabric drops it. Inside a KernelChain, Forward is
                    // consumed by the chain itself and never reaches here.
                }
                KernelAction::Done => {
                    self.trace.emit(TraceEvent::KernelExit {
                        node: node as u8,
                        op: op.0,
                    });
                    let next = self.nodes[node].fabric.done(op);
                    if !next.is_empty() {
                        self.exec_kernel_actions(node, op, next, now);
                    }
                }
            }
        }
    }

    // ----- transmission ---------------------------------------------------

    /// Resolves a descriptor's payload (DMA-fetching host payload) and
    /// transmits the packet.
    fn send_descriptor(&mut self, node: NodeId, desc: &PacketDescriptor, now: Time) {
        self.send_descriptor_at(node, desc, now);
    }

    fn send_descriptor_at(&mut self, node: NodeId, desc: &PacketDescriptor, now: Time) {
        let (payload, payload_ready) = match &desc.payload {
            PayloadSource::None => (Bytes::new(), now),
            PayloadSource::Inline(b) => (b.clone(), now),
            PayloadSource::Host { vaddr, len } => {
                let data = self.dma_read_bytes(node, *vaddr, *len);
                let (_, occ_end) = self.nodes[node].dma.admit_with_overhead(
                    now,
                    u64::from(*len),
                    self.cfg.pcie.bypass_overhead,
                );
                (data, occ_end + self.cfg.pcie.read_rtt_base)
            }
        };
        // Send kernel (§3.5): outgoing WRITE payload is tapped into the
        // kernel as it streams to the MAC, without altering the packet.
        if !payload.is_empty()
            && matches!(
                desc.opcode,
                Opcode::WriteFirst | Opcode::WriteMiddle | Opcode::WriteLast | Opcode::WriteOnly
            )
        {
            if let Some(op) = self.nodes[node].send_tap {
                let last = desc.opcode.ends_message();
                let done = self.kernel_consume(node, op, payload.len(), now);
                if let Some(actions) =
                    self.nodes[node]
                        .fabric
                        .stream(op, desc.qpn, payload.clone(), last)
                {
                    self.exec_kernel_actions(node, op, actions, done);
                }
            }
        }
        let peer = self.peer_of(node, desc.qpn);
        let pkt = Packet::new(
            node as u32,
            peer as u32,
            desc.opcode,
            desc.qpn,
            desc.psn,
            desc.reth,
            None,
            payload,
        );
        self.send_packet(node, peer, pkt, payload_ready, true);
    }

    fn send_ack(
        &mut self,
        node: NodeId,
        qpn: Qpn,
        psn: Psn,
        msn: u32,
        syndrome: AethSyndrome,
        now: Time,
    ) {
        let peer = self.peer_of(node, qpn);
        let pkt = Packet::new(
            node as u32,
            peer as u32,
            Opcode::Acknowledge,
            qpn,
            psn,
            None,
            Some(Aeth { syndrome, msn }),
            Bytes::new(),
        );
        self.send_packet(node, peer, pkt, now, false);
    }

    /// Echoes a CE mark back to the sender as a bare CNP: no payload, no
    /// AETH, PSN 0 (CNPs sit outside the PSN space and are never acked or
    /// retransmitted — losing one just defers the cut to the next mark).
    fn send_cnp(&mut self, node: NodeId, qpn: Qpn, now: Time) {
        let peer = self.peer_of(node, qpn);
        let pkt = Packet::new(
            node as u32,
            peer as u32,
            Opcode::Cnp,
            qpn,
            0,
            None,
            None,
            Bytes::new(),
        );
        self.send_packet(node, peer, pkt, now, false);
    }

    fn send_read_response(
        &mut self,
        node: NodeId,
        qpn: Qpn,
        first_psn: Psn,
        vaddr: u64,
        len: u32,
        now: Time,
    ) {
        let msn = 0; // The AETH MSN is informational for responses here.
        let segments = segment_message(len as usize, self.cfg.max_payload());
        for (i, seg) in segments.iter().enumerate() {
            // Per-packet DMA fetch: response packet i streams out as soon
            // as its chunk has crossed PCIe (pipelined, not
            // store-the-whole-message).
            let chunk = self.dma_read_bytes(node, vaddr + seg.offset as u64, seg.len as u32);
            let (_, occ_end) = self.nodes[node].dma.admit_with_overhead(
                now,
                seg.len as u64,
                self.cfg.pcie.bypass_overhead,
            );
            let ready = occ_end + self.cfg.pcie.read_rtt_base;
            let opcode = seg.kind.read_response_opcode();
            let aeth = opcode.has_aeth().then_some(Aeth {
                syndrome: AethSyndrome::Ack,
                msn,
            });
            let peer = self.peer_of(node, qpn);
            let pkt = Packet::new(
                node as u32,
                peer as u32,
                opcode,
                qpn,
                strom_proto::psn_add(first_psn, i as u32),
                None,
                aeth,
                chunk,
            );
            self.send_packet(node, peer, pkt, ready, false);
        }
    }

    /// Puts a packet on the wire toward `peer`: TX pipeline, link
    /// serialization, then either the direct point-to-point path
    /// (transparent mode) or the switch (ingress latency, arbitration,
    /// egress serialization). Arms the retransmission timer for request
    /// packets.
    fn send_packet(
        &mut self,
        node: NodeId,
        peer: NodeId,
        pkt: Packet,
        payload_ready: Time,
        arm_timer: bool,
    ) {
        // DCQCN intercepts both data directions: requester packets (the
        // ones that arm the retransmission timer) and READ responses —
        // a READ-heavy incast is congested by responder→requester data,
        // so the responder's return stream must obey its rate too.
        // Packets park in a per-QP queue and a PacerTick releases one
        // per paced slot, so a rate cut mid-message slows everything
        // still queued. Pure control (ACKs, NAKs, CNPs) bypasses the
        // pacer: delaying the congestion signal would defeat it.
        if self.cfg.cc && (arm_timer || pkt.opcode().is_read_response()) {
            let qpn = pkt.bth.dest_qp as usize;
            self.nodes[node].txq[qpn].push_back(PacedTx {
                peer,
                pkt,
                payload_ready,
                arm_timer,
            });
            self.schedule_pacer_tick(node, qpn);
            return;
        }
        self.transmit_packet(node, peer, pkt, payload_ready, arm_timer);
    }

    /// Schedules the live PacerTick for `qpn` at its next paced slot, if
    /// the queue is non-empty and no tick is already pending.
    fn schedule_pacer_tick(&mut self, node: NodeId, qpn: usize) {
        let now = self.queue.now();
        let n = &mut self.nodes[node];
        if n.tick_at[qpn].is_some() || n.txq[qpn].is_empty() {
            return;
        }
        let at = now.max(n.pacers[qpn].next_ready());
        n.tick_at[qpn] = Some(at);
        self.queue.schedule_at(
            at,
            Event::PacerTick {
                node,
                qpn: qpn as Qpn,
            },
        );
    }

    /// Releases the head of one QP's paced transmit queue at the DCQCN
    /// rate *read at release time* — the whole point of queueing.
    fn on_pacer_tick(&mut self, node: NodeId, qpn: Qpn, now: Time) {
        let q = qpn as usize;
        // Same staleness discipline as `on_retransmit_check`: only the
        // most recently scheduled tick may act (a timeout flush may have
        // rescheduled underneath an in-flight tick).
        if self.nodes[node].tick_at[q] != Some(now) {
            return;
        }
        self.nodes[node].tick_at[q] = None;
        let Some(tx) = self.nodes[node].txq[q].pop_front() else {
            return;
        };
        let bytes = tx.pkt.wire_bytes() as u64;
        let n = &mut self.nodes[node];
        let bits = n.dcqcn.rate(q, now);
        n.pacers[q].pace(now, bytes, Bandwidth::gbit_per_sec(bits / 1e9));
        self.transmit_packet(node, tx.peer, tx.pkt, tx.payload_ready, tx.arm_timer);
        self.schedule_pacer_tick(node, q);
    }

    fn transmit_packet(
        &mut self,
        node: NodeId,
        peer: NodeId,
        mut pkt: Packet,
        payload_ready: Time,
        arm_timer: bool,
    ) {
        let now = self.queue.now();
        let tx_ready = (now + self.cfg.tx_pipeline_time()).max(payload_ready);
        let wire_bytes = pkt.wire_bytes() as u64;
        let ip_len = pkt.ip_len();
        let qpn = pkt.bth.dest_qp;
        // Data packets go out ECN-capable so switches can mark them
        // instead of dropping. Control traffic (ACKs, CNPs) stays
        // Not-ECT: cutting rates on ACK marks would punish the wrong
        // direction.
        if self.cfg.cc && pkt.opcode().has_payload() {
            pkt.ecn = strom_wire::ECN_ECT0;
        }
        let (_, wire_end) = self.links[node].admit(tx_ready, wire_bytes);
        if arm_timer {
            self.nodes[node].timer.arm(qpn, wire_end);
            self.schedule_check(node);
        }
        self.trace.emit(TraceEvent::PacketTx {
            node: node as u8,
            opcode: pkt.opcode() as u8,
            qpn,
            psn: pkt.bth.psn,
            wire_bytes: wire_bytes as u32,
        });
        // Fault pipeline, in wire order: a frame is first subject to loss,
        // then (if it survives) to corruption, reordering, and
        // duplication. Decisions draw from the testbed RNG in this fixed
        // order — and always at transmit time, never from inside the
        // switch — so a chaos run replays exactly from (seed, fault
        // model) regardless of switch queueing.
        let n = self.nodes.len();
        let fault = self.fault_model_for(node, peer);
        if fault.should_drop(&mut self.fault_state[node * n + peer], &mut self.rng) {
            self.nodes[peer].counters.frames_lost += 1;
            self.trace.emit(TraceEvent::PacketDrop {
                node: peer as u8,
                reason: DropReason::Loss,
            });
            return;
        }
        // Encode into a pooled buffer (single pass, no intermediate
        // allocation) and flip fault-injected bits in place while the
        // buffer is still mutable — then freeze it into `Bytes` for
        // transit (a pure move, never a copy).
        let mut buf = self.pool.take();
        pkt.encode_into(&mut buf);
        if fault.corrupt_rate > 0.0 && fault.should_corrupt(&mut self.rng) {
            // One bit flips in flight; the receiver's checksums must catch
            // it (frames_crc_dropped) unless it lands in the handful of
            // unprotected header bytes, where it is harmless.
            fault::flip_random_bit(&mut buf, &mut self.rng);
        }
        let frame = Bytes::from(buf);
        if let Some(cap) = &mut self.capture {
            // Captured as it leaves the wire (post-corruption), stamped
            // with the serialization end time.
            cap.record(wire_end, &frame);
        }
        let jitter = if fault.reorder_rate > 0.0 {
            fault.reorder_delay(&mut self.rng)
        } else {
            None
        };
        if jitter.is_some() {
            self.nodes[peer].counters.frames_reordered += 1;
        }
        let dup = fault.duplicate_rate > 0.0 && fault.should_duplicate(&mut self.rng);
        if dup {
            self.nodes[peer].counters.frames_duplicated += 1;
        }
        match &mut self.switch {
            None => {
                let arrival = (wire_end
                    + self.cfg.propagation
                    + self.cfg.store_and_forward_time(ip_len)
                    + self.cfg.rx_pipeline_time())
                .max(self.last_arrival[peer] + self.cfg.clock.period_ps());
                self.deliver_frame(peer, frame, arrival, jitter, dup);
            }
            Some(sw) => {
                // The frame reaches the switch after propagating from the
                // NIC; it leaves once it wins arbitration and serializes
                // on the egress port. Delivery continues in
                // `on_switch_tick`.
                let received = wire_end + self.cfg.propagation;
                let eligible = sw.model.enqueue(
                    node,
                    peer,
                    wire_bytes,
                    received,
                    SwitchFrame {
                        frame,
                        ip_len,
                        jitter,
                        dup,
                    },
                );
                self.queue.schedule_at(eligible, Event::SwitchTick);
            }
        }
    }

    /// Schedules a frame's arrival at `dst`, applying the transmit-time
    /// reorder/duplicate decisions. `arrival` is the nominal in-order
    /// arrival time (already clamped to the receiver's FIFO).
    fn deliver_frame(
        &mut self,
        dst: NodeId,
        frame: Bytes,
        arrival: Time,
        jitter: Option<TimeDelta>,
        dup: bool,
    ) {
        let arrival = match jitter {
            Some(jitter) => {
                // Held back by jitter — and deliberately NOT recorded in
                // last_arrival, so frames behind it overtake it (the FIFO
                // clamp is what normally forbids that).
                arrival + jitter
            }
            None => {
                self.last_arrival[dst] = arrival;
                arrival
            }
        };
        if dup {
            self.queue.schedule_at(
                arrival + self.cfg.clock.period_ps(),
                Event::FrameArrive {
                    node: dst,
                    frame: frame.clone(),
                },
            );
        }
        self.queue
            .schedule_at(arrival, Event::FrameArrive { node: dst, frame });
    }

    /// Runs one switch arbitration pass: grants eligible ingress frames,
    /// emits tail-drops as traced packet drops (the retransmission
    /// machinery recovers them like any loss), and schedules granted
    /// frames' arrivals after egress serialization + propagation + the
    /// receiver's store-and-forward and RX pipeline.
    fn on_switch_tick(&mut self, now: Time) {
        let Some(sw) = self.switch.as_mut() else {
            return;
        };
        let mut deliveries = std::mem::take(&mut sw.deliveries);
        let mut drops = std::mem::take(&mut sw.drops);
        sw.model.arbitrate(now, &mut deliveries, &mut drops);
        for d in drops.drain(..) {
            self.trace.emit(TraceEvent::PacketDrop {
                node: d.dst as u8,
                reason: DropReason::TailDrop,
            });
            if let Some(sw) = self.switch.as_ref() {
                sw.port_metrics[d.dst].tail_drops.inc();
            }
            self.pool.put(d.payload.frame);
        }
        for d in deliveries.drain(..) {
            let mut frame = d.payload.frame;
            if d.marked {
                // The switch decided to CE-mark this frame: rewrite the
                // ECN field (and IPv4 checksum) in the egress buffer. At
                // this point the switch holds the only reference, so
                // reclaim is a move; the ICRC stays valid because it
                // covers BTH+payload only.
                let mut buf = frame.try_reclaim().unwrap_or_else(|b| b.to_vec());
                strom_wire::mark_ce(&mut buf[strom_wire::ethernet::ETHERNET_HEADER_LEN..]);
                frame = Bytes::from(buf);
            }
            if let Some(sw) = self.switch.as_ref() {
                let pm = &sw.port_metrics[d.dst];
                pm.frames_out.inc();
                if d.marked {
                    pm.ecn_marked.inc();
                }
            }
            let arrival = (d.egress_end
                + self.cfg.propagation
                + self.cfg.store_and_forward_time(d.payload.ip_len)
                + self.cfg.rx_pipeline_time())
            .max(self.last_arrival[d.dst] + self.cfg.clock.period_ps());
            self.deliver_frame(d.dst, frame, arrival, d.payload.jitter, d.payload.dup);
        }
        if let Some(sw) = self.switch.as_mut() {
            sw.deliveries = deliveries;
            sw.drops = drops;
            // Mirror the per-port queue high-watermarks into gauges so
            // they flow into telemetry reports alongside the counters.
            for p in 0..sw.port_metrics.len() {
                sw.port_metrics[p]
                    .queue_peak
                    .set(sw.model.counters(p).queue_peak);
            }
        }
    }

    // ----- helpers ----------------------------------------------------------

    /// Reads bytes from host memory through the TLB (the DMA engine's
    /// path), splitting at page boundaries.
    fn dma_read_bytes(&mut self, node: NodeId, vaddr: u64, len: u32) -> Bytes {
        self.trace.emit(TraceEvent::DmaRead {
            node: node as u8,
            vaddr,
            len,
        });
        let segs = self.nodes[node]
            .tlb
            .translate_command(vaddr, len)
            .unwrap_or_else(|e| panic!("DMA read fault on node {node}: {e}"));
        let mut out = vec![0u8; len as usize];
        let mut offset = 0usize;
        for seg in segs {
            self.nodes[node]
                .mem
                .phys_read(seg.paddr, &mut out[offset..offset + seg.len as usize]);
            offset += seg.len as usize;
        }
        Bytes::from(out)
    }

    /// Schedules a DMA write: PCIe occupancy + posted-write latency, then
    /// the bytes land (and watches fire). Returns the landing time.
    /// `overhead` distinguishes stream-oriented stores (Descriptor
    /// Bypass) from random kernel-issued commands.
    fn schedule_dma_write(
        &mut self,
        node: NodeId,
        vaddr: u64,
        data: Bytes,
        now: Time,
        overhead: Time,
    ) -> Time {
        self.trace.emit(TraceEvent::DmaWrite {
            node: node as u8,
            vaddr,
            len: data.len() as u32,
        });
        let (_, occ_end) =
            self.nodes[node]
                .dma
                .admit_with_overhead(now, data.len() as u64, overhead);
        let done = occ_end + self.cfg.pcie.write_post_latency;
        self.queue
            .schedule_at(done, Event::DmaWriteDone { node, vaddr, data });
        done
    }

    /// When the kernel with `op` on `node` finishes consuming `bytes` of
    /// stream payload submitted at `now` — the §3.4 line-rate condition:
    /// an II = 1 kernel consumes one datapath word per cycle and never
    /// lags the wire; an II > 1 kernel becomes the bottleneck.
    fn kernel_consume(&mut self, node: NodeId, op: RpcOpCode, bytes: usize, now: Time) -> Time {
        let Some(cycles) = self.nodes[node].fabric.cycles_per_word(op) else {
            return now;
        };
        let bytes_per_sec =
            self.cfg.datapath_bytes as f64 * self.cfg.clock.mhz() * 1e6 / cycles as f64;
        let n = &mut self.nodes[node];
        let serializer = match n.kernel_occ.iter_mut().find(|(o, _)| *o == op) {
            Some((_, s)) => s,
            None => {
                n.kernel_occ.push((
                    op,
                    LinkSerializer::new(strom_sim::Bandwidth::gbyte_per_sec(bytes_per_sec / 1e9)),
                ));
                &mut n.kernel_occ.last_mut().expect("just pushed").1
            }
        };
        let (_, end) = serializer.admit(now, bytes as u64);
        end
    }

    /// Runs the CPU fallback for an unmatched RPC, if one is configured.
    ///
    /// Returns `true` if a handler accepted the request. Timing: the NIC
    /// DMA-writes the request to a host queue, the polling CPU picks it
    /// up, computes, and posts the response as an ordinary WRITE.
    fn run_cpu_fallback(
        &mut self,
        node: NodeId,
        rpc_op: RpcOpCode,
        qpn: Qpn,
        params: &Bytes,
        now: Time,
    ) -> bool {
        let n = &mut self.nodes[node];
        let Some(idx) = n.fallbacks.iter().position(|(op, _)| *op == rpc_op) else {
            return false;
        };
        let (_, handler) = &mut n.fallbacks[idx];
        let Some((target, response, cpu_time)) = handler.handle(&mut n.mem, qpn, params) else {
            return true; // Accepted, no response.
        };
        // Host handoff: DMA the request up (posted write + poll detection),
        // CPU work, then the response is posted like any host command.
        let ready = now
            + self.cfg.pcie.write_post_latency
            + self.cfg.poll_overhead
            + cpu_time
            + self.cfg.host_post_overhead
            + self.cfg.pcie.mmio_latency;
        let n = &mut self.nodes[node];
        let result = n.requester.post(
            &mut n.state,
            qpn,
            WorkRequest::WriteInline {
                remote_vaddr: target,
                data: response,
            },
        );
        match result {
            Ok((_, descs)) => {
                for desc in descs {
                    self.send_descriptor_at(node, &desc, ready);
                }
                true
            }
            Err(e) => panic!("CPU fallback response failed: {e}"),
        }
    }

    /// Ensures a RetransmitCheck is pending no later than the node's
    /// earliest timer deadline (at most one outstanding check per node).
    fn schedule_check(&mut self, node: NodeId) {
        let Some(deadline) = self.nodes[node].timer.next_deadline() else {
            return;
        };
        match self.nodes[node].check_at {
            Some(t) if t <= deadline => {}
            _ => {
                // The queue clamps past times to `now`; record the clamped
                // time so the firing event matches `check_at` exactly.
                let at = deadline.max(self.queue.now());
                self.queue.schedule_at(at, Event::RetransmitCheck { node });
                self.nodes[node].check_at = Some(at);
            }
        }
    }

    fn record_completion(&mut self, node: NodeId, c: &strom_proto::Completion, at: Time) {
        if let Some(handle) = self.wr_map.remove(&(node, c.wr_id)) {
            self.finish_completion(node, handle, at, c.status);
        }
    }

    /// Records a work request's outcome and feeds its post-to-completion
    /// latency into the per-kind histogram. Every completion path funnels
    /// through here, so the histograms and the `completions` map agree.
    fn finish_completion(&mut self, node: NodeId, handle: u64, at: Time, status: CompletionStatus) {
        self.completions.insert((node, handle), (at, status));
        if let Some((posted, kind)) = self.post_info.remove(&(node, handle)) {
            self.lat[kind as usize].record(at.saturating_sub(posted));
        }
    }

    fn refresh_timer(&mut self, node: NodeId, qpn: Qpn, now: Time) {
        // Any ACK/NAK/response from the peer is evidence it is alive:
        // reset the retry budget and exponential backoff.
        self.nodes[node].timer.note_progress(qpn);
        let outstanding = self.nodes[node].requester.has_outstanding(qpn);
        if outstanding {
            // Restart the timer on progress — but never let the deadline
            // land before packets still queued on the transmit link have
            // even left the NIC, or a long transmit queue would trigger
            // spurious mass retransmissions.
            let base = now.max(self.links[node].busy_until());
            self.nodes[node].timer.arm(qpn, base);
            self.schedule_check(node);
        } else {
            self.nodes[node].timer.disarm(qpn);
        }
    }
}

/// The original two-node point-to-point testbed, now a thin wrapper over
/// [`ClusterTestbed::transparent_pair`]: same API (every `ClusterTestbed`
/// method is reachable through `Deref`), same timing, same RNG draws,
/// bit-identical traces — the chaos-soak fingerprints and the pcap
/// golden fixture pin the equivalence.
pub struct Testbed(ClusterTestbed);

impl Testbed {
    /// Builds a two-node testbed from a configuration.
    pub fn new(cfg: NicConfig) -> Self {
        Testbed(ClusterTestbed::transparent_pair(cfg))
    }

    /// Unwraps into the underlying [`ClusterTestbed`].
    pub fn into_cluster(self) -> ClusterTestbed {
        self.0
    }
}

impl std::ops::Deref for Testbed {
    type Target = ClusterTestbed;

    fn deref(&self) -> &ClusterTestbed {
        &self.0
    }
}

impl std::ops::DerefMut for Testbed {
    fn deref_mut(&mut self) -> &mut ClusterTestbed {
        &mut self.0
    }
}

/// Extra simulated-time padding helper.
pub fn micros(us: u64) -> TimeDelta {
    us * strom_sim::time::MICROS
}

#[cfg(test)]
mod tests {
    use super::*;
    use strom_sim::time::MICROS;

    fn testbed() -> Testbed {
        let mut tb = Testbed::new(NicConfig::ten_gig());
        tb.connect_qp(1);
        tb
    }

    #[test]
    fn write_delivers_bytes_end_to_end() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, b"hello remote memory");
        let watch = tb.add_watch(1, dst, 19);
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 19,
            },
        );
        let t = tb.run_until_watch(watch);
        assert!(t > 0);
        assert_eq!(tb.mem(1).read(dst, 19), b"hello remote memory");
        tb.run_until_idle();
    }

    #[test]
    fn write_latency_is_in_the_paper_range() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, &[7u8; 64]);
        let watch = tb.add_watch(1, dst, 64);
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 64,
            },
        );
        let t = tb.run_until_watch(watch);
        let us = t as f64 / MICROS as f64;
        // One-way delivery of a 64 B write: around 3 µs (Fig 5a).
        assert!((2.0..4.5).contains(&us), "one-way write = {us} µs");
        tb.run_until_idle();
    }

    #[test]
    fn multi_packet_write_reassembles() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        tb.mem(0).write(src, &data);
        let watch = tb.add_watch(1, dst, data.len() as u64);
        tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: data.len() as u32,
            },
        );
        tb.run_until_watch(watch);
        assert_eq!(tb.mem(1).read(dst, data.len()), data);
        tb.run_until_idle();
    }

    #[test]
    fn read_fetches_remote_bytes() {
        let mut tb = testbed();
        let local = tb.pin(0, 1 << 20);
        let remote = tb.pin(1, 1 << 20);
        let data: Vec<u8> = (0..5000u32).map(|i| (i % 241) as u8).collect();
        tb.mem(1).write(remote, &data);
        let h = tb.post(
            0,
            1,
            WorkRequest::Read {
                remote_vaddr: remote,
                local_vaddr: local,
                len: data.len() as u32,
            },
        );
        let t = tb.run_until_complete(0, h);
        assert!(t > 0);
        assert_eq!(tb.mem(0).read(local, data.len()), data);
        tb.run_until_idle();
    }

    #[test]
    fn read_latency_exceeds_write_latency() {
        // A read pays the remote PCIe fetch (~1.5 µs) on top of the wire
        // round trip; a one-way write does not wait for anything remote.
        let mut tb = testbed();
        let local = tb.pin(0, 1 << 20);
        let remote = tb.pin(1, 1 << 20);
        tb.mem(1).write(remote, &[1u8; 64]);
        let watch = tb.add_watch(0, local, 64);
        tb.post(
            0,
            1,
            WorkRequest::Read {
                remote_vaddr: remote,
                local_vaddr: local,
                len: 64,
            },
        );
        let t_read = tb.run_until_watch(watch);
        let us = t_read as f64 / MICROS as f64;
        assert!((3.5..7.0).contains(&us), "read RTT = {us} µs");
        tb.run_until_idle();
    }

    #[test]
    fn writes_complete_on_ack() {
        let mut tb = testbed();
        let src = tb.pin(0, 1 << 20);
        let dst = tb.pin(1, 1 << 20);
        tb.mem(0).write(src, &[9u8; 128]);
        let h = tb.post(
            0,
            1,
            WorkRequest::Write {
                remote_vaddr: dst,
                local_vaddr: src,
                len: 128,
            },
        );
        let t = tb.run_until_complete(0, h);
        assert!(t > 0, "ACK observed");
        tb.run_until_idle();
        assert_eq!(tb.retransmissions(0), 0);
    }

    #[test]
    fn lossy_link_recovers_by_retransmission() {
        let mut tb = testbed();
        tb.set_fault_model(LinkFaultModel::bernoulli(0.05));
        let src = tb.pin(0, 4 << 20);
        let dst = tb.pin(1, 4 << 20);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i % 239) as u8).collect();
        tb.mem(0).write(src, &data);
        let mut handles = Vec::new();
        // Ten 20 KB writes over a 5 %-lossy link.
        for i in 0..10u64 {
            let off = i * 20_000;
            handles.push(tb.post(
                0,
                1,
                WorkRequest::Write {
                    remote_vaddr: dst + off,
                    local_vaddr: src + off,
                    len: 20_000,
                },
            ));
        }
        for h in handles {
            tb.run_until_complete(0, h);
        }
        tb.set_fault_model(LinkFaultModel::bernoulli(0.0));
        tb.run_until_idle();
        assert_eq!(tb.mem(1).read(dst, data.len()), data, "data survives loss");
        assert!(tb.retransmissions(0) > 0, "loss actually happened");
    }

    #[test]
    fn rpc_without_kernel_is_naked() {
        let mut tb = testbed();
        tb.pin(0, 1 << 20);
        tb.pin(1, 1 << 20);
        let h = tb.post(
            0,
            1,
            WorkRequest::Rpc {
                rpc_op: RpcOpCode(0x7777),
                params: Bytes::from_static(b"whatever"),
            },
        );
        // The params packet is ACKed (receipt) — completion still happens —
        // and the fabric counts the unmatched request.
        tb.run_until_complete(0, h);
        tb.run_until_idle();
        assert_eq!(tb.fabric(1).unmatched(), 1);
    }

    #[test]
    fn deterministic_given_a_seed() {
        let run = || {
            let mut tb = testbed();
            tb.set_fault_model(LinkFaultModel::bernoulli(0.02));
            let src = tb.pin(0, 1 << 20);
            let dst = tb.pin(1, 1 << 20);
            tb.mem(0).write(src, &[5u8; 50_000]);
            let h = tb.post(
                0,
                1,
                WorkRequest::Write {
                    remote_vaddr: dst,
                    local_vaddr: src,
                    len: 50_000,
                },
            );
            let t = tb.run_until_complete(0, h);
            tb.run_until_idle();
            (t, tb.retransmissions(0))
        };
        assert_eq!(run(), run(), "same seed, same trace");
    }
}
