//! The benchmark's own drivers of each workload through the public
//! testbed API: a set-up phase ([`build`]) and a drive phase
//! ([`Rig::drive`]) that checks every output it produces.
//!
//! `bulk-write` has no corpus family, so its rig is the workload itself.
//! For the other three the untraced end-to-end run goes through
//! `ScenarioSpec::run`; their rigs rebuild the same shape (the same
//! `KvSpec`/`ShuffleSpec`/`ChainSpec` settings the corpus runner uses) so
//! the benchmark can time set-up on its own and, in the traced run, put
//! spans around `ClusterTestbed::step_batch` and `post`.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use strom_kernels::chains::{filter_agg_hll, filter_agg_hll_params};
use strom_kernels::framework::{decode_error, KernelChain, ERR_NOT_FOUND};
use strom_kernels::layouts::{build_kv_store, versioned_value_pattern, KvStore};
use strom_kernels::put::{encode_put_request, PutConfig, PUT_HEADER_LEN};
use strom_kernels::shuffle::{encode_histogram, ShuffleKernel, ShuffleParams};
use strom_kernels::traversal::Predicate;
use strom_kernels::{
    AggregateParams, FilterKernel, FilterParams, GetKernel, GetParams, PutKernel, TraversalKernel,
};
use strom_nic::cluster_shuffle::{dest_node, expected_partitions, pair_qpn, ShuffleSpec};
use strom_nic::{
    ChainSpec, ClusterTestbed, CompletionStatus, KvSpec, NodeId, Platform, RpcOpCode, SwitchParams,
    Testbed, WatchId, WorkRequest,
};
use strom_sim::arrivals::{ArrivalGen, ZipfSampler};
use strom_sim::time::{MICROS, NANOS};
use strom_sim::{EcnConfig, SimRng};
use strom_wire::bth::Qpn;

use crate::workloads::Workload;

/// Livelock bound for every drain loop (matches the corpus runners).
const EVENT_BUDGET: u64 = 200_000_000;
/// Trace ring capacity of the shuffle workload (as in the corpus).
pub const SHUFFLE_TRACE_CAPACITY: usize = 1 << 14;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a fold of one word.
pub fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// The workload sizes at scale 1.0 (one timed iteration).
pub mod size {
    /// `bulk-write`: bytes written per iteration.
    pub const BULK_BYTES: u64 = 64 << 20;
    /// `bulk-write`: bytes per RDMA WRITE.
    pub const BULK_MSG: u64 = 1 << 20;
    /// `bulk-write`: outstanding WRITEs (closed-loop window).
    pub const BULK_WINDOW: usize = 4;
    /// `bulk-write`: message slots in the bounded pinned regions.
    pub const BULK_SLOTS: u64 = 8;
    /// `kv-serve`: requests offered per iteration.
    pub const KV_REQUESTS: usize = 20_000;
    /// `kv-serve`: mean Poisson inter-arrival gap, ns.
    pub const KV_GAP_NS: u64 = 3_000;
    /// `shuffle-dcqcn`: 8 B values per node.
    pub const SHUFFLE_VALUES: usize = 1 << 19;
    /// `shuffle-dcqcn`: cluster size.
    pub const SHUFFLE_NODES: usize = 4;
    /// `chain-hll`: 8 B tuples streamed through the chain.
    pub const CHAIN_TUPLES: usize = 1_000_000;
}

/// Scales a size, never below `min`.
pub fn scaled(base: usize, scale: f64, min: usize) -> usize {
    ((base as f64 * scale).round() as usize).max(min)
}

/// Counters and spans the benchmark records around its own calls into
/// `ClusterTestbed`. With `spans` off only the (free) counts are kept.
#[derive(Debug, Default, Clone)]
pub struct Probe {
    /// Time every `step_batch` / `post` call.
    pub spans: bool,
    /// Events dispatched (sum of `step_batch` returns).
    pub events: u64,
    /// Host time inside `step_batch`.
    pub step_time: Duration,
    /// Work requests posted.
    pub posts: u64,
    /// Host time inside `post`.
    pub post_time: Duration,
}

impl Probe {
    /// A probe that times its calls.
    pub fn traced() -> Self {
        Probe {
            spans: true,
            ..Probe::default()
        }
    }

    /// One same-timestamp batch of events.
    pub fn step(&mut self, tb: &mut ClusterTestbed) -> u64 {
        let n = if self.spans {
            let t = Instant::now();
            let n = tb.step_batch();
            self.step_time += t.elapsed();
            n
        } else {
            tb.step_batch()
        };
        self.events += n;
        n
    }

    /// Posts one work request.
    pub fn post(
        &mut self,
        tb: &mut ClusterTestbed,
        node: NodeId,
        qpn: Qpn,
        wr: WorkRequest,
    ) -> u64 {
        self.posts += 1;
        if self.spans {
            let t = Instant::now();
            let h = tb.post(node, qpn, wr);
            self.post_time += t.elapsed();
            h
        } else {
            tb.post(node, qpn, wr)
        }
    }

    /// Steps until the queue drains or the budget runs out; returns
    /// whether it drained.
    pub fn drain(&mut self, tb: &mut ClusterTestbed) -> bool {
        let mut left = EVENT_BUDGET;
        while left > 0 {
            let n = self.step(tb);
            if n == 0 {
                return true;
            }
            left = left.saturating_sub(n);
        }
        false
    }

    /// Steps until `handle` on `node` has completed and simulated time
    /// has caught up with its completion; `false` if the queue drained
    /// first.
    pub fn until_complete(&mut self, tb: &mut ClusterTestbed, node: NodeId, handle: u64) -> bool {
        loop {
            if let Some(t) = tb.completed_at(node, handle) {
                if tb.now() >= t {
                    return true;
                }
            }
            if self.step(tb) == 0 {
                return tb.completed_at(node, handle).is_some();
            }
        }
    }
}

/// What one drive phase produced.
#[derive(Debug, Clone, Default)]
pub struct Drive {
    /// Host wall time of the drive phase, seconds (includes the checks).
    pub host_s: f64,
    /// Simulated time the traffic took, seconds.
    pub sim_s: f64,
    /// Payload bytes delivered and verified.
    pub payload_bytes: u64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// FNV-1a fold of the run's observables (reruns must match).
    pub fingerprint: u64,
}

/// A workload rig: a built testbed ready for its timed traffic.
pub trait Rig {
    /// Runs the traffic, checks every output, and reports.
    fn drive(&mut self, probe: &mut Probe) -> Drive;
    /// The testbed (for counters after the drive).
    fn testbed(&self) -> &ClusterTestbed;
}

/// Rig knobs beyond workload, seed and scale.
#[derive(Debug, Clone, Copy, Default)]
pub struct RigOptions {
    /// Capture every frame to an in-memory pcap (traced runs).
    pub capture: bool,
    /// Flip one destination byte after the first WRITE lands
    /// (`bulk-write` only; the smoke test's fault injection).
    pub corrupt: bool,
}

/// Builds the rig of `workload` (the timed set-up phase).
pub fn build(workload: Workload, seed: u64, scale: f64, opts: RigOptions) -> Box<dyn Rig> {
    match workload {
        Workload::BulkWrite => Box::new(BulkRig::new(seed, scale, opts)),
        Workload::KvServe => Box::new(KvRig::new(&kv_spec(seed, scale), opts)),
        Workload::ShuffleDcqcn => Box::new(ShuffleRig::new(&shuffle_spec(seed, scale), opts)),
        Workload::ChainHll => Box::new(ChainRig::new(&chain_spec(seed, scale), opts)),
    }
}

// ---------------------------------------------------------------- bulk

/// Closed-loop window of 1 MiB WRITEs from node 0 to node 1, cycling
/// through bounded pinned regions, each landing byte-compared.
pub struct BulkRig {
    tb: ClusterTestbed,
    src: u64,
    dst: u64,
    writes: u64,
    /// Random bytes; WRITE `k` carries [`window`]`(tape, k)`.
    tape: Vec<u8>,
    corrupt: bool,
}

impl BulkRig {
    fn new(seed: u64, scale: f64, opts: RigOptions) -> Self {
        let mut cfg = Platform::TenGig.config();
        cfg.seed = seed;
        let mut tb = Testbed::new(cfg).into_cluster();
        if opts.capture {
            tb.enable_capture();
        }
        tb.connect_qp(1);
        let region = size::BULK_SLOTS * size::BULK_MSG;
        let src = tb.pin(0, region);
        let dst = tb.pin(1, region);
        tb.bring_up();
        let mut rng = SimRng::seed(seed ^ 0xB01C);
        let tape: Vec<u8> = (0..2 * size::BULK_MSG / 8)
            .flat_map(|_| rng.next_u64().to_le_bytes())
            .collect();
        let writes = scaled((size::BULK_BYTES / size::BULK_MSG) as usize, scale, 1) as u64;
        BulkRig {
            tb,
            src,
            dst,
            writes,
            tape,
            corrupt: opts.corrupt,
        }
    }
}

/// The 1 MiB payload of WRITE `k`: a window of the 2 MiB tape at a
/// pseudo-random 8 B-aligned offset, so successive WRITEs to one slot
/// carry different bytes.
fn window(tape: &[u8], k: u64) -> &[u8] {
    let off = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 44) as usize & !7;
    &tape[off..off + size::BULK_MSG as usize]
}

impl Rig for BulkRig {
    fn drive(&mut self, probe: &mut Probe) -> Drive {
        let start = Instant::now();
        let t0 = self.tb.now();
        let msg = size::BULK_MSG;
        let mut inflight: VecDeque<(u64, u64)> = VecDeque::new();
        let mut next = 0u64;
        let mut out = Drive {
            attempted: self.writes,
            fingerprint: FNV_OFFSET,
            ..Drive::default()
        };
        while next < self.writes || !inflight.is_empty() {
            while inflight.len() < size::BULK_WINDOW && next < self.writes {
                let slot = next % size::BULK_SLOTS;
                self.tb
                    .mem(0)
                    .write(self.src + slot * msg, window(&self.tape, next));
                let h = probe.post(
                    &mut self.tb,
                    0,
                    1,
                    WorkRequest::Write {
                        remote_vaddr: self.dst + slot * msg,
                        local_vaddr: self.src + slot * msg,
                        len: msg as u32,
                    },
                );
                inflight.push_back((next, h));
                next += 1;
            }
            let (k, h) = inflight.pop_front().expect("window is non-empty");
            let done = probe.until_complete(&mut self.tb, 0, h);
            let addr = self.dst + (k % size::BULK_SLOTS) * msg;
            if done && self.corrupt && k == 0 {
                let b = self.tb.mem(1).read(addr + 4099, 1)[0];
                self.tb.mem(1).write(addr + 4099, &[!b]);
            }
            let ok = done
                && self.tb.completion_status(0, h) == Some(CompletionStatus::Success)
                && self.tb.mem(1).read(addr, msg as usize) == window(&self.tape, k);
            if ok {
                out.payload_bytes += msg;
            } else {
                out.failed += 1;
            }
            let at = self.tb.completed_at(0, h).unwrap_or(u64::MAX);
            out.fingerprint = fnv(fnv(out.fingerprint, at), u64::from(ok));
        }
        if !probe.drain(&mut self.tb) {
            out.failed += 1;
        }
        out.sim_s = (self.tb.now() - t0) as f64 * 1e-12;
        out.host_s = start.elapsed().as_secs_f64();
        out
    }

    fn testbed(&self) -> &ClusterTestbed {
        &self.tb
    }
}

// ------------------------------------------------------------------ kv

/// The `KvSpec` the corpus's `kv-serve` family builds, at benchmark size.
pub fn kv_spec(seed: u64, scale: f64) -> KvSpec {
    let mut spec = KvSpec::new(2, 2, size::KV_GAP_NS * NANOS, seed);
    spec.requests = scaled(size::KV_REQUESTS, scale, 8);
    spec
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KvOp {
    Get,
    GetMiss,
    Put,
    Traversal,
}

struct KvRequest {
    at: u64,
    client: usize,
    server: usize,
    op: KvOp,
    key: u64,
    nonce: u64,
}

const MISS_KEY_BASE: u64 = 1 << 40;
const INSERT_KEY_BASE: u64 = 1 << 41;

fn shard_of(key: u64, servers: usize) -> usize {
    ((key - 1) % servers as u64) as usize
}

/// The open-loop schedule, drawn exactly as the serving-tier runner
/// draws it (arrivals, client, op roll, Zipf key) from the spec's seed.
fn kv_schedule(spec: &KvSpec) -> Vec<KvRequest> {
    let total_keys = (spec.keys_per_server * spec.servers) as u64;
    let mut gen = ArrivalGen::new(spec.process, spec.seed);
    let zipf = ZipfSampler::new(total_keys, spec.zipf_theta);
    let mut rng = SimRng::seed(spec.seed ^ 0x4B5E_11E5);
    let (mut next_insert, mut next_miss) = (0u64, 0u64);
    (0..spec.requests)
        .map(|i| {
            let at = gen.next_arrival();
            let client = rng.below(spec.clients as u64) as usize;
            let roll = rng.below(100) as u8;
            let (op, key) = if roll < spec.get_pct {
                if (rng.below(100) as u8) < spec.miss_pct {
                    next_miss += 1;
                    (KvOp::GetMiss, MISS_KEY_BASE + next_miss)
                } else {
                    (KvOp::Get, zipf.sample(&mut rng) + 1)
                }
            } else if roll < spec.get_pct + spec.put_pct {
                if (rng.below(100) as u8) < spec.insert_pct {
                    next_insert += 1;
                    (KvOp::Put, INSERT_KEY_BASE + next_insert)
                } else {
                    (KvOp::Put, zipf.sample(&mut rng) + 1)
                }
            } else {
                (KvOp::Traversal, zipf.sample(&mut rng) + 1)
            };
            KvRequest {
                at,
                client,
                server: shard_of(key, spec.servers),
                op,
                key,
                nonce: i as u64 + 1,
            }
        })
        .collect()
}

/// The serving tier: 2 servers with GET/PUT/traversal kernels over a
/// chained hash table, 2 clients posting an open-loop Poisson schedule.
pub struct KvRig {
    tb: ClusterTestbed,
    spec: KvSpec,
    schedule: Vec<KvRequest>,
    stores: Vec<KvStore>,
    client_base: Vec<u64>,
    chunk: u64,
    /// Per key: PUTs scheduled, and a 256-bit set of the first value
    /// bytes of every version it may hold (preload + each PUT).
    held: HashMap<u64, (u64, [u64; 4])>,
}

impl KvRig {
    fn new(spec: &KvSpec, opts: RigOptions) -> Self {
        let m = spec.servers;
        let schedule = kv_schedule(spec);
        let mut held: HashMap<u64, (u64, [u64; 4])> = HashMap::new();
        for r in &schedule {
            let first = |nonce| versioned_value_pattern(r.key, nonce, 1)[0];
            let e = held.entry(r.key).or_insert_with(|| {
                let b = first(0);
                let mut set = [0u64; 4];
                set[usize::from(b >> 6)] |= 1 << (b & 63);
                (0, set)
            });
            if r.op == KvOp::Put {
                let b = first(r.nonce);
                e.0 += 1;
                e.1[usize::from(b >> 6)] |= 1 << (b & 63);
            }
        }
        let mut cfg = spec.platform.config();
        cfg.seed = spec.seed;
        let mut tb = ClusterTestbed::switched(cfg, m + spec.clients, spec.switch);
        if opts.capture {
            tb.enable_capture();
        }
        for c in 0..spec.clients {
            for s in 0..m {
                tb.connect_qp_between(s, m + c, kv_qpn(spec, c, s));
            }
        }
        let total_keys = (spec.keys_per_server * m) as u64;
        let mut inserts = vec![0u64; m];
        for r in &schedule {
            if r.key >= INSERT_KEY_BASE {
                inserts[r.server] += 1;
            }
        }
        let mut stores = Vec::with_capacity(m);
        for (s, &ins) in inserts.iter().enumerate() {
            let keys: Vec<u64> = (1..=total_keys).filter(|&k| shard_of(k, m) == s).collect();
            let spare = ins + 2;
            let len = KvStore::region_len(
                spec.primary_entries,
                keys.len() as u64 + spare,
                spec.value_size,
            );
            let base = tb.pin(s, len);
            let kv = build_kv_store(
                tb.mem(s),
                base,
                spec.primary_entries,
                &keys,
                spec.value_size,
                spare,
            );
            tb.deploy_kernel(s, Box::new(GetKernel::new()));
            tb.deploy_kernel(s, Box::new(TraversalKernel::new()));
            tb.deploy_kernel(s, Box::new(PutKernel::new()));
            tb.post_local_rpc(s, 0, RpcOpCode::PUT, PutConfig::for_store(&kv).encode());
            stores.push(kv);
        }
        let value = u64::from(spec.value_size);
        let chunk = (8 + value + PUT_HEADER_LEN as u64 + value).next_multiple_of(64);
        let client_base = (0..spec.clients)
            .map(|c| tb.pin(m + c, chunk * schedule.len() as u64))
            .collect();
        tb.bring_up();
        tb.run_until_idle();
        KvRig {
            tb,
            spec: spec.clone(),
            schedule,
            stores,
            client_base,
            chunk,
            held,
        }
    }
}

fn kv_qpn(spec: &KvSpec, c: usize, s: usize) -> Qpn {
    (c * spec.servers + s) as Qpn + 1
}

impl Rig for KvRig {
    fn drive(&mut self, probe: &mut Probe) -> Drive {
        let start = Instant::now();
        let m = self.spec.servers;
        let value = self.spec.value_size;
        let t0 = self.tb.now();
        let mut watches: Vec<WatchId> = Vec::with_capacity(self.schedule.len());
        for (i, r) in self.schedule.iter().enumerate() {
            let due = t0 + r.at;
            while self.tb.next_event_at().is_some_and(|t| t <= due) {
                probe.step(&mut self.tb);
            }
            if self.tb.now() < due {
                let now = self.tb.now();
                self.tb.advance(due - now);
            }
            let node = m + r.client;
            let qpn = kv_qpn(&self.spec, r.client, r.server);
            let slot = self.client_base[r.client] + self.chunk * i as u64;
            let store = &self.stores[r.server];
            let (watch_len, wr) = match r.op {
                KvOp::Get | KvOp::GetMiss => (
                    8,
                    WorkRequest::Rpc {
                        rpc_op: RpcOpCode::GET,
                        params: GetParams {
                            entry_addr: store.entry_addr(r.key),
                            key: r.key,
                            target_address: slot,
                            chained: true,
                        }
                        .encode(),
                    },
                ),
                KvOp::Put => {
                    let v = versioned_value_pattern(r.key, r.nonce, value);
                    let blob = encode_put_request(r.key, store.entry_addr(r.key), slot, &v);
                    let stage = slot + 8 + u64::from(value);
                    self.tb.mem(node).write(stage, &blob);
                    (
                        8,
                        WorkRequest::RpcWrite {
                            rpc_op: RpcOpCode::PUT,
                            local_vaddr: stage,
                            len: blob.len() as u32,
                        },
                    )
                }
                KvOp::Traversal => (
                    u64::from(value),
                    WorkRequest::Rpc {
                        rpc_op: RpcOpCode::TRAVERSAL,
                        params: store.table.get_params(r.key, slot).encode(),
                    },
                ),
            };
            watches.push(self.tb.add_watch(node, slot, watch_len));
            probe.post(&mut self.tb, node, qpn, wr);
        }
        let drained = probe.drain(&mut self.tb);

        // Every response must land; GET misses must be deliberate and
        // hits must carry a value the key could hold; PUTs must ack.
        let mut out = Drive {
            attempted: self.schedule.len() as u64,
            failed: u64::from(!drained),
            fingerprint: FNV_OFFSET,
            ..Drive::default()
        };
        let mut last = t0;
        for (i, r) in self.schedule.iter().enumerate() {
            let node = m + r.client;
            let slot = self.client_base[r.client] + self.chunk * i as u64;
            let Some(fired) = self.tb.watch_fired(watches[i]) else {
                out.failed += 1;
                continue;
            };
            last = last.max(fired);
            let head = self.tb.mem(node).read_u64(slot);
            let (puts, firsts) = self.held.get(&r.key).copied().unwrap_or((0, [0; 4]));
            // A value is legitimate when it is the pattern of a version
            // the key held: the preload (nonce 0) or one of its PUTs.
            let holds = |v: &[u8]| {
                v.len() == value as usize
                    && v.iter()
                        .enumerate()
                        .all(|(j, &b)| b == v[0].wrapping_add(j as u8))
                    && firsts[usize::from(v[0] >> 6)] >> (v[0] & 63) & 1 == 1
            };
            let ok = match (r.op, decode_error(head)) {
                (KvOp::GetMiss, Some(code)) => code == ERR_NOT_FOUND,
                (KvOp::Get, None) => {
                    head <= puts && holds(&self.tb.mem(node).read(slot + 8, value as usize))
                }
                (KvOp::Put, None) => (1..=puts).contains(&head),
                (KvOp::Traversal, _) => holds(&self.tb.mem(node).read(slot, value as usize)),
                _ => false,
            };
            if ok {
                out.payload_bytes += u64::from(value);
            } else {
                out.failed += 1;
            }
            out.fingerprint = fnv(fnv(fnv(out.fingerprint, r.key), fired - t0), head);
        }
        out.sim_s = (last - t0) as f64 * 1e-12;
        out.host_s = start.elapsed().as_secs_f64();
        out
    }

    fn testbed(&self) -> &ClusterTestbed {
        &self.tb
    }
}

// ------------------------------------------------------------- shuffle

/// The `ShuffleSpec` the corpus's lossy + ECN + DCQCN shuffle builds,
/// at benchmark size.
pub fn shuffle_spec(seed: u64, scale: f64) -> ShuffleSpec {
    let mut spec = ShuffleSpec::new(
        size::SHUFFLE_NODES,
        scaled(size::SHUFFLE_VALUES, scale, 64),
        seed,
    );
    spec.trace_capacity = Some(SHUFFLE_TRACE_CAPACITY);
    spec.retransmit_timeout = Some(1_000 * MICROS);
    spec.switch.egress_capacity = 32;
    spec.fault = strom_nic::LinkFaultModel::bernoulli(0.02);
    let mut mark = EcnConfig::step(8);
    mark.seed = seed ^ 0xECF;
    spec.switch.ecn = Some(mark);
    spec.cc = true;
    spec
}

/// All-to-all shuffle: every node RPC-WRITEs its peers' values through
/// their shuffle kernels into exact-capacity partitions.
pub struct ShuffleRig {
    tb: ClusterTestbed,
    /// `(src, dst, staging addr, bytes)` per flow.
    flows: Vec<(NodeId, NodeId, u64, u32)>,
    /// Values each node's kernel must receive.
    incoming: Vec<u64>,
}

impl ShuffleRig {
    fn new(spec: &ShuffleSpec, opts: RigOptions) -> Self {
        let n = spec.nodes;
        let expected = expected_partitions(spec);
        let mut cfg = spec.platform.config();
        cfg.seed = spec.seed;
        cfg.fault = spec.fault;
        cfg.cc = spec.cc;
        if let Some(timeout) = spec.retransmit_timeout {
            cfg.retransmit_timeout = timeout;
        }
        let mut tb = ClusterTestbed::switched(cfg, n, spec.switch);
        if let Some(capacity) = spec.trace_capacity {
            tb.enable_tracing(capacity);
        }
        if opts.capture {
            tb.enable_capture();
        }
        for i in 0..n {
            for j in i + 1..n {
                tb.connect_qp_between(i, j, pair_qpn(n, i, j));
            }
        }
        let mut flows = Vec::new();
        let mut incoming = Vec::with_capacity(n);
        let mut configs = Vec::with_capacity(n);
        for node in 0..n {
            let mut rng = SimRng::seed(spec.seed ^ (0x517u64 << 8) ^ node as u64);
            let mut staging: Vec<Vec<u8>> = vec![Vec::new(); n];
            for _ in 0..spec.values_per_node {
                let v = rng.next_u64();
                let dst = dest_node(v, n);
                if dst != node {
                    staging[dst].extend_from_slice(&v.to_le_bytes());
                }
            }
            let caps: Vec<u32> = (0..spec.local_partitions)
                .map(|p| (expected[&(node, p)].len() * 8) as u32)
                .collect();
            let staged: usize = staging.iter().map(Vec::len).sum();
            let receive: u64 = caps.iter().map(|&c| u64::from(c)).sum();
            let hist_len = spec.local_partitions as u64 * 16;
            let base = tb.pin(node, staged as u64 + hist_len + receive + 4096);
            let mut cursor = base;
            for (dst, bytes) in staging.iter().enumerate() {
                if !bytes.is_empty() {
                    tb.mem(node).write(cursor, bytes);
                    flows.push((node, dst, cursor, bytes.len() as u32));
                }
                cursor += bytes.len() as u64;
            }
            let hist = cursor;
            cursor += hist_len;
            let regions: Vec<(u64, u32)> = caps
                .iter()
                .map(|&c| {
                    let r = (cursor, c);
                    cursor += u64::from(c);
                    r
                })
                .collect();
            tb.mem(node).write(hist, &encode_histogram(&regions));
            incoming.push(receive / 8);
            configs.push(hist);
        }
        tb.bring_up();
        for (node, &hist) in configs.iter().enumerate() {
            tb.deploy_kernel(node, Box::new(ShuffleKernel::new()));
            tb.post_local_rpc(
                node,
                pair_qpn(n, node, (node + 1) % n),
                RpcOpCode::SHUFFLE,
                ShuffleParams {
                    histogram_addr: hist,
                    num_partitions: spec.local_partitions,
                }
                .encode(),
            );
        }
        tb.run_until_idle();
        ShuffleRig {
            tb,
            flows,
            incoming,
        }
    }
}

impl Rig for ShuffleRig {
    fn drive(&mut self, probe: &mut Probe) -> Drive {
        let start = Instant::now();
        let n = self.incoming.len();
        let t0 = self.tb.now();
        let handles: Vec<u64> = self
            .flows
            .iter()
            .map(|&(src, dst, addr, len)| {
                probe.post(
                    &mut self.tb,
                    src,
                    pair_qpn(n, src, dst),
                    WorkRequest::RpcWrite {
                        rpc_op: RpcOpCode::SHUFFLE,
                        local_vaddr: addr,
                        len,
                    },
                )
            })
            .collect();
        let mut out = Drive {
            attempted: self.flows.len() as u64,
            fingerprint: FNV_OFFSET,
            ..Drive::default()
        };
        let mut end = t0;
        for (&(src, _, _, len), &h) in self.flows.iter().zip(&handles) {
            let ok = probe.until_complete(&mut self.tb, src, h)
                && self.tb.completion_status(src, h) == Some(CompletionStatus::Success);
            end = end.max(self.tb.now());
            if ok {
                out.payload_bytes += u64::from(len);
            } else {
                out.failed += 1;
            }
            out.fingerprint = fnv(out.fingerprint, self.tb.completed_at(src, h).unwrap_or(0));
        }
        if !probe.drain(&mut self.tb) {
            out.failed += 1;
        }
        // Exactly-once: every kernel partitioned exactly its incoming
        // values and overflowed no exact-capacity partition.
        for node in 0..n {
            let k = self
                .tb
                .fabric(node)
                .kernel(RpcOpCode::SHUFFLE)
                .and_then(|k| k.as_any().downcast_ref::<ShuffleKernel>());
            let ok = k.is_some_and(|k| k.overflowed() == 0 && k.values() == self.incoming[node]);
            out.failed += u64::from(!ok);
        }
        out.fingerprint = fnv(out.fingerprint, self.tb.trace().fingerprint());
        out.sim_s = (end - t0) as f64 * 1e-12;
        out.host_s = start.elapsed().as_secs_f64();
        out
    }

    fn testbed(&self) -> &ClusterTestbed {
        &self.tb
    }
}

// --------------------------------------------------------------- chain

/// The `ChainSpec` the corpus's `chain-filter-agg-hll` family builds at
/// 100 G, at benchmark size.
pub fn chain_spec(seed: u64, scale: f64) -> ChainSpec {
    let mut spec = ChainSpec::new(scaled(size::CHAIN_TUPLES, scale, 64), seed);
    spec.platform = Platform::HundredGig;
    spec
}

/// The workload's tuples, drawn as the chain runner draws them.
pub fn chain_tuples(spec: &ChainSpec) -> Vec<u64> {
    let mut rng = SimRng::seed(spec.seed ^ 0xC4A1);
    (0..spec.tuples).map(|_| rng.next_u64() % 10_000).collect()
}

/// Filter predicate operand of the chain workload.
pub const CHAIN_OPERAND: u64 = 5_000;

/// The filter → aggregate → HLL parameters the chain runner invokes with.
pub fn chain_params(dest: u64, results: u64) -> bytes::Bytes {
    filter_agg_hll_params(
        &FilterParams {
            dest_addr: dest,
            dest_capacity: 4 << 20,
            predicate: Predicate::GreaterThan,
            operand: CHAIN_OPERAND,
            target_address: results,
        },
        &AggregateParams {
            target_address: results + 64,
        },
        results + 128,
    )
}

/// The chained pipeline on a two-node 100 G testbed: the client streams
/// its tuples by RPC WRITE into the server's chain.
pub struct ChainRig {
    tb: ClusterTestbed,
    src: u64,
    results: u64,
    len: u32,
    tuples: u64,
    passing: u64,
}

const CHAIN_CLIENT: NodeId = 0;
const CHAIN_SERVER: NodeId = 1;
const CHAIN_QP: Qpn = 1;

impl ChainRig {
    fn new(spec: &ChainSpec, opts: RigOptions) -> Self {
        let mut cfg = spec.platform.config();
        cfg.seed = spec.seed;
        cfg.fault = spec.fault;
        let mut tb = ClusterTestbed::switched(cfg, 2, SwitchParams::default());
        if opts.capture {
            tb.enable_capture();
        }
        tb.connect_qp_between(CHAIN_CLIENT, CHAIN_SERVER, CHAIN_QP);
        let client = tb.pin(CHAIN_CLIENT, 8 << 20);
        let server = tb.pin(CHAIN_SERVER, 8 << 20);
        tb.bring_up();
        tb.deploy_kernel(CHAIN_SERVER, Box::new(filter_agg_hll()));
        let h = tb.post(
            CHAIN_CLIENT,
            CHAIN_QP,
            WorkRequest::Rpc {
                rpc_op: RpcOpCode::CHAIN_FILTER_AGG_HLL,
                params: chain_params(server, client),
            },
        );
        tb.run_until_complete(CHAIN_CLIENT, h);
        tb.run_until_idle();
        let values = chain_tuples(spec);
        let data: Vec<u8> = values.iter().flat_map(|v| v.to_le_bytes()).collect();
        let src = client + 4096;
        tb.mem(CHAIN_CLIENT).write(src, &data);
        ChainRig {
            tb,
            src,
            results: client,
            len: data.len() as u32,
            tuples: values.len() as u64,
            passing: values.iter().filter(|&&v| v > CHAIN_OPERAND).count() as u64,
        }
    }
}

impl Rig for ChainRig {
    fn drive(&mut self, probe: &mut Probe) -> Drive {
        let start = Instant::now();
        let t0 = self.tb.now();
        let h = probe.post(
            &mut self.tb,
            CHAIN_CLIENT,
            CHAIN_QP,
            WorkRequest::RpcWrite {
                rpc_op: RpcOpCode::CHAIN_FILTER_AGG_HLL,
                local_vaddr: self.src,
                len: self.len,
            },
        );
        let done = probe.until_complete(&mut self.tb, CHAIN_CLIENT, h);
        let sim_s = (self.tb.now() - t0) as f64 * 1e-12;
        let drained = probe.drain(&mut self.tb);
        let summary = self.tb.mem(CHAIN_CLIENT).read(self.results, 16);
        let failed = self
            .tb
            .fabric(CHAIN_SERVER)
            .kernel(RpcOpCode::CHAIN_FILTER_AGG_HLL)
            .and_then(|k| k.as_any().downcast_ref::<KernelChain>())
            .is_none_or(KernelChain::failed);
        let ok = done
            && drained
            && !failed
            && self.tb.completion_status(CHAIN_CLIENT, h) == Some(CompletionStatus::Success)
            && FilterKernel::decode_summary(&summary) == Some((self.tuples, self.passing));
        let mut fp = fnv(
            FNV_OFFSET,
            self.tb.completed_at(CHAIN_CLIENT, h).unwrap_or(0),
        );
        for w in summary.chunks(8) {
            fp = fnv(fp, u64::from_le_bytes(w.try_into().expect("8 B words")));
        }
        Drive {
            host_s: start.elapsed().as_secs_f64(),
            sim_s,
            payload_bytes: if ok { u64::from(self.len) } else { 0 },
            attempted: 1,
            failed: u64::from(!ok),
            fingerprint: fp,
        }
    }

    fn testbed(&self) -> &ClusterTestbed {
        &self.tb
    }
}
