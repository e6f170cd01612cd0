//! Composable link fault injection.
//!
//! The paper's RoCE stack exists to survive an imperfect wire: per-QP
//! retransmission timers, the one-NAK-per-gap responder rule, and ICRC
//! validation (§4.1). This module models the wire's misbehaviour so those
//! mechanisms can be exercised deterministically:
//!
//! - **Loss** — independent Bernoulli drops or bursty Gilbert–Elliott
//!   loss (a two-state Markov chain: a mostly-clean *good* state and a
//!   lossy *bad* state, capturing real-link error bursts).
//! - **Corruption** — a random bit flip in the encoded frame. The
//!   receiver's ICRC (or IPv4 header checksum) detects it and the frame
//!   degrades into a loss, exactly as on real hardware.
//! - **Reordering** — a frame is held back by a random jitter delay,
//!   letting later frames overtake it.
//! - **Duplication** — the frame is delivered twice.
//!
//! Every decision draws from the testbed's seeded [`strom_sim::SimRng`],
//! so a chaos run is exactly reproducible from its seed plus the
//! [`LinkFaultModel`] in force.

use strom_sim::time::TimeDelta;
use strom_sim::SimRng;

/// The frame-loss component of a [`LinkFaultModel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// No injected loss.
    None,
    /// Each frame is dropped independently with this probability.
    Bernoulli(f64),
    /// Two-state Markov (bursty) loss: the link flips between a good and
    /// a bad state at every frame, with a per-state drop probability.
    GilbertElliott {
        /// P(good → bad) evaluated per frame.
        p_good_to_bad: f64,
        /// P(bad → good) evaluated per frame.
        p_bad_to_good: f64,
        /// Drop probability while in the good state.
        loss_good: f64,
        /// Drop probability while in the bad state.
        loss_bad: f64,
    },
}

/// Per-direction link state carried across frames (the Gilbert–Elliott
/// Markov chain position). Lives in the testbed, not the config, so the
/// config stays a plain value.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkFaultState {
    /// Whether the Gilbert–Elliott chain is currently in the bad state.
    pub bad: bool,
}

/// A composable description of how the wire misbehaves.
///
/// All knobs are plain values; the model is `Copy` and lives inside
/// [`crate::NicConfig`]. The default injects nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkFaultModel {
    /// Frame-loss process.
    pub loss: LossModel,
    /// Probability that a (non-dropped) frame has one bit flipped.
    pub corrupt_rate: f64,
    /// Probability that a frame is held back by a jitter delay, letting
    /// frames behind it arrive first.
    pub reorder_rate: f64,
    /// Maximum extra delay for a reordered frame; the actual delay is
    /// drawn uniformly from `[1, reorder_jitter]` picoseconds.
    pub reorder_jitter: TimeDelta,
    /// Probability that a frame is delivered twice.
    pub duplicate_rate: f64,
}

impl Default for LinkFaultModel {
    fn default() -> Self {
        Self::none()
    }
}

impl LinkFaultModel {
    /// A perfectly clean wire.
    pub fn none() -> Self {
        LinkFaultModel {
            loss: LossModel::None,
            corrupt_rate: 0.0,
            reorder_rate: 0.0,
            reorder_jitter: 0,
            duplicate_rate: 0.0,
        }
    }

    /// Independent Bernoulli loss only: each frame is dropped with
    /// probability `rate`, and nothing else is injected.
    pub fn bernoulli(rate: f64) -> Self {
        LinkFaultModel {
            loss: if rate > 0.0 {
                LossModel::Bernoulli(rate)
            } else {
                LossModel::None
            },
            ..Self::none()
        }
    }

    /// Whether this model can never inject anything (fast path).
    pub fn is_quiet(&self) -> bool {
        matches!(self.loss, LossModel::None)
            && self.corrupt_rate <= 0.0
            && self.reorder_rate <= 0.0
            && self.duplicate_rate <= 0.0
    }

    /// Decides whether the next frame on this link direction is dropped,
    /// advancing the Gilbert–Elliott chain in `state`.
    pub fn should_drop(&self, state: &mut LinkFaultState, rng: &mut SimRng) -> bool {
        match self.loss {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.chance(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Advance the chain first, then sample the per-state loss:
                // the frame experiences the state the link is in *now*.
                if state.bad {
                    if rng.chance(p_bad_to_good) {
                        state.bad = false;
                    }
                } else if rng.chance(p_good_to_bad) {
                    state.bad = true;
                }
                rng.chance(if state.bad { loss_bad } else { loss_good })
            }
        }
    }

    /// Decides whether the frame is corrupted in flight.
    pub fn should_corrupt(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.corrupt_rate)
    }

    /// Decides the extra jitter delay for a reordered frame; `None` means
    /// the frame is delivered in order.
    pub fn reorder_delay(&self, rng: &mut SimRng) -> Option<TimeDelta> {
        if self.reorder_jitter > 0 && rng.chance(self.reorder_rate) {
            Some(rng.range(1, self.reorder_jitter + 1))
        } else {
            None
        }
    }

    /// Decides whether the frame is duplicated.
    pub fn should_duplicate(&self, rng: &mut SimRng) -> bool {
        rng.chance(self.duplicate_rate)
    }
}

/// Flips one uniformly chosen bit of `frame` (in-flight corruption).
pub fn flip_random_bit(frame: &mut [u8], rng: &mut SimRng) {
    if frame.is_empty() {
        return;
    }
    let bit = rng.below(frame.len() as u64 * 8);
    frame[(bit / 8) as usize] ^= 1 << (bit % 8);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_is_quiet() {
        let m = LinkFaultModel::default();
        assert!(m.is_quiet());
        let mut rng = SimRng::seed(1);
        let mut st = LinkFaultState::default();
        for _ in 0..100 {
            assert!(!m.should_drop(&mut st, &mut rng));
            assert!(!m.should_corrupt(&mut rng));
            assert!(m.reorder_delay(&mut rng).is_none());
            assert!(!m.should_duplicate(&mut rng));
        }
    }

    #[test]
    fn bernoulli_matches_requested_rate() {
        let m = LinkFaultModel::bernoulli(0.25);
        let mut rng = SimRng::seed(7);
        let mut st = LinkFaultState::default();
        let drops = (0..10_000)
            .filter(|_| m.should_drop(&mut st, &mut rng))
            .count();
        assert!((2200..2800).contains(&drops), "drops = {drops}");
        assert!(!st.bad, "bernoulli never enters the bad state");
    }

    #[test]
    fn zero_rate_bernoulli_is_quiet() {
        assert!(LinkFaultModel::bernoulli(0.0).is_quiet());
        assert!(!LinkFaultModel::bernoulli(0.1).is_quiet());
    }

    #[test]
    fn gilbert_elliott_bursts() {
        // A sticky bad state produces clustered drops: the overall loss
        // rate sits between loss_good and loss_bad, and consecutive-drop
        // runs appear far more often than under Bernoulli at the same
        // average rate.
        let m = LinkFaultModel {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.02,
                p_bad_to_good: 0.2,
                loss_good: 0.0,
                loss_bad: 0.8,
            },
            ..LinkFaultModel::none()
        };
        let mut rng = SimRng::seed(42);
        let mut st = LinkFaultState::default();
        let outcomes: Vec<bool> = (0..20_000)
            .map(|_| m.should_drop(&mut st, &mut rng))
            .collect();
        let drops = outcomes.iter().filter(|&&d| d).count();
        // Stationary bad-state share = 0.02 / (0.02 + 0.2) ≈ 9 %, so the
        // long-run loss rate is ≈ 7.3 %.
        assert!((800..2000).contains(&drops), "drops = {drops}");
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count();
        // Under independent loss at the same rate, P(pair) = p² would
        // give ≈ drops²/N pairs; bursts give several times more.
        let independent_pairs = drops * drops / outcomes.len();
        assert!(
            pairs > independent_pairs * 3,
            "pairs = {pairs} vs independent {independent_pairs}"
        );
    }

    #[test]
    fn reorder_delay_respects_jitter_bound() {
        let m = LinkFaultModel {
            reorder_rate: 1.0,
            reorder_jitter: 500,
            ..LinkFaultModel::none()
        };
        let mut rng = SimRng::seed(3);
        for _ in 0..1000 {
            let d = m.reorder_delay(&mut rng).expect("rate 1.0 always fires");
            assert!((1..=500).contains(&d), "delay = {d}");
        }
    }

    #[test]
    fn reorder_without_jitter_never_fires() {
        let m = LinkFaultModel {
            reorder_rate: 1.0,
            reorder_jitter: 0,
            ..LinkFaultModel::none()
        };
        let mut rng = SimRng::seed(4);
        assert!(m.reorder_delay(&mut rng).is_none());
    }

    #[test]
    fn bit_flip_changes_exactly_one_bit() {
        let mut rng = SimRng::seed(5);
        for len in [1usize, 7, 64, 1500] {
            let original = vec![0xA5u8; len];
            let mut frame = original.clone();
            flip_random_bit(&mut frame, &mut rng);
            let flipped: u32 = original
                .iter()
                .zip(&frame)
                .map(|(a, b)| (a ^ b).count_ones())
                .sum();
            assert_eq!(flipped, 1, "len = {len}");
        }
    }

    #[test]
    fn bit_flip_on_empty_frame_is_a_noop() {
        let mut rng = SimRng::seed(6);
        flip_random_bit(&mut [], &mut rng);
    }

    #[test]
    fn decisions_are_deterministic_per_seed() {
        let m = LinkFaultModel {
            loss: LossModel::GilbertElliott {
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.3,
                loss_good: 0.01,
                loss_bad: 0.5,
            },
            corrupt_rate: 0.1,
            reorder_rate: 0.2,
            reorder_jitter: 1000,
            duplicate_rate: 0.05,
        };
        let run = || {
            let mut rng = SimRng::seed(99);
            let mut st = LinkFaultState::default();
            (0..500)
                .map(|_| {
                    (
                        m.should_drop(&mut st, &mut rng),
                        m.should_corrupt(&mut rng),
                        m.reorder_delay(&mut rng),
                        m.should_duplicate(&mut rng),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }
}
