//! Cluster shuffle scaling: §6.4's shuffle scaled out over the switched
//! cluster, N = 2, 4, 8.
//!
//! Every node hash-partitions its local table by destination node and
//! streams each bucket to the owning peer as RDMA RPC WRITEs through
//! that peer's on-NIC shuffle kernel; all N·(N−1) flows contend for the
//! same store-and-forward switch concurrently. Each point runs twice —
//! fault-free and with Bernoulli loss on every link — and
//! [`run_shuffle`] verifies byte-exact, exactly-once delivery
//! internally, so every number reported here comes from a checked run.

use strom_nic::cluster_shuffle::{run_shuffle, ShuffleSpec};
use strom_nic::LinkFaultModel;
use strom_sim::report::{Figure, Series};
use strom_sim::time::MICROS;
use strom_sim::EcnConfig;

use super::Scale;

/// Node counts on the scaling curve.
pub const NODE_COUNTS: [usize; 3] = [2, 4, 8];

/// Per-link loss rate of the faulted series: high enough that every
/// scaling point (including quick-scale N = 2, ~100 frames) actually
/// loses frames and recovers them via retransmission.
pub const LOSS_RATE: f64 = 0.02;

/// The spec for one scaling point.
pub fn spec(nodes: usize, scale: Scale, lossy: bool) -> ShuffleSpec {
    let values_per_node = match scale {
        Scale::Quick => 16 * 1024,
        Scale::Full => 128 * 1024,
    };
    let mut spec = ShuffleSpec::new(nodes, values_per_node, 0x5CA_1E00 + nodes as u64);
    spec.local_partitions = 64;
    // A deep-buffered fabric: the all-to-all incast parks up to
    // (N−1) flows' worth of frames on one egress port, and the default
    // shallow 64-frame queue would congestion-collapse into tail-drop /
    // go-back-N duplicate storms. 1024 frames absorbs the worst-case
    // burst (~766 us of queueing at 10G); the retransmission timeout
    // must sit above that delay or every queued frame turns into a
    // spurious duplicate.
    spec.switch.egress_capacity = 1024;
    spec.retransmit_timeout = Some(1_000 * MICROS);
    if lossy {
        spec.fault = LinkFaultModel::bernoulli(LOSS_RATE);
    }
    spec
}

/// The congestion-control comparison point: the same lossy shuffle on a
/// *shallow*-buffered fabric (32 frames — the all-to-all incast bursts
/// well past it), with or without DCQCN. Without CC the overflow feeds
/// tail-drop / go-back-N storms; with CC the marker holds the queue
/// short, so both the drops and the loss-amplified retransmissions
/// collapse. The unit test gates the improvement ratio on this pair.
pub fn cc_spec(nodes: usize, scale: Scale, cc: bool) -> ShuffleSpec {
    let mut spec = spec(nodes, scale, true);
    // Fixed input size regardless of scale: the pair is a gate (CI
    // asserts the improvement ratio), so the operating point must not
    // move between quick and full runs. ~64 KiB per flow at N = 8 keeps
    // each egress port's incast burst far beyond the shallow buffer.
    spec.values_per_node = 64 * 1024;
    spec.switch.egress_capacity = 32;
    spec.cc = cc;
    if cc {
        let mut ecn = EcnConfig::step(8);
        ecn.seed = spec.seed ^ 0xECF;
        spec.switch.ecn = Some(ecn);
    }
    spec
}

/// The deep-buffer lossy spec with DCQCN switched on (marking at 64 of
/// the 1024-frame buffer), for the CC-enabled scaling series.
fn cc_deep_spec(nodes: usize, scale: Scale) -> ShuffleSpec {
    let mut spec = spec(nodes, scale, true);
    spec.cc = true;
    let mut ecn = EcnConfig::step(64);
    ecn.seed = spec.seed ^ 0xECF;
    spec.switch.ecn = Some(ecn);
    spec
}

/// Aggregate shuffle throughput and p99 RPC completion latency vs node
/// count, rendered as two figures over the same x axis: fault-free,
/// 2% loss, and 2% loss with DCQCN enabled.
pub fn run(scale: Scale) -> String {
    let ticks: Vec<String> = NODE_COUNTS.iter().map(|n| n.to_string()).collect();
    let lossy_label = format!("{}% loss", LOSS_RATE * 100.0);
    let cc_label = format!("{lossy_label} + DCQCN");
    let mut tput = [Vec::new(), Vec::new(), Vec::new()];
    let mut p99 = [Vec::new(), Vec::new(), Vec::new()];
    let (mut drops, mut retx) = (0u64, 0u64);
    let (mut cc_drops, mut cc_retx) = (0u64, 0u64);
    for (i, variant) in ["clean", "lossy", "cc"].into_iter().enumerate() {
        for &n in &NODE_COUNTS {
            let out = match variant {
                "clean" => run_shuffle(&spec(n, scale, false)),
                "lossy" => run_shuffle(&spec(n, scale, true)),
                _ => run_shuffle(&cc_deep_spec(n, scale)),
            };
            tput[i].push(out.aggregate_gbps);
            p99[i].push(out.p99_rpc_ps.map(|ps| ps as f64 / 1e6));
            if variant == "lossy" {
                drops += out.tail_drops;
                retx += out.retransmissions;
            } else if variant == "cc" {
                cc_drops += out.tail_drops;
                cc_retx += out.retransmissions;
            }
        }
    }
    let throughput = Figure::new(
        "Shuffle scaling: aggregate all-to-all throughput (10G switched cluster)",
        "nodes",
        ticks.clone(),
        "GB/s",
    )
    .push_series(Series::new("fault-free", tput[0].clone()))
    .push_series(Series::new(lossy_label.clone(), tput[1].clone()))
    .push_series(Series::new(cc_label.clone(), tput[2].clone()));
    let latency = Figure::new(
        "Shuffle scaling: p99 RPC WRITE completion latency",
        "nodes",
        ticks,
        "us",
    )
    .push_series(Series::with_gaps("fault-free", p99[0].clone()))
    .push_series(Series::with_gaps(lossy_label, p99[1].clone()))
    .push_series(Series::with_gaps(cc_label, p99[2].clone()))
    .push_note(format!(
        "lossy series: tail_drops={drops} retransmissions={retx}; \
         with DCQCN: tail_drops={cc_drops} retransmissions={cc_retx}; \
         every run verified byte-exact, exactly-once"
    ));
    format!("{}\n{}", throughput.render(), latency.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the CC comparison pair: on the shallow
    /// fabric at 2% loss, enabling DCQCN cuts both switch tail drops and
    /// retransmissions at least 5×.
    #[test]
    fn dcqcn_collapses_drops_and_retransmission_storms() {
        let off = run_shuffle(&cc_spec(8, Scale::Quick, false));
        let on = run_shuffle(&cc_spec(8, Scale::Quick, true));
        assert!(
            off.tail_drops >= 5 * on.tail_drops.max(1),
            "tail drops: {} (no CC) vs {} (DCQCN)",
            off.tail_drops,
            on.tail_drops
        );
        assert!(
            off.retransmissions >= 5 * on.retransmissions.max(1),
            "retransmissions: {} (no CC) vs {} (DCQCN)",
            off.retransmissions,
            on.retransmissions
        );
    }
}
