//! Channel parameters.

use mee_types::{Cycles, ModelError};

/// How the trojan sweeps its eviction set when sending a `1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionStrategy {
    /// One forward pass only. Cheaper, but unreliable under the MEE cache's
    /// approximate-LRU replacement (the ablation experiment quantifies it).
    ForwardOnly,
    /// Forward pass then backward pass — the paper's §5.3 design. Costs
    /// roughly 9000 cycles per `1` but keeps the error rate low.
    TwoPhase,
}

/// Parameters shared by the trojan and the spy.
///
/// ```
/// use mee_attack::channel::ChannelConfig;
/// use mee_types::Cycles;
///
/// let cfg = ChannelConfig {
///     window: Cycles::new(15_000), // the paper's sweet spot (§5.4)
///     ..ChannelConfig::default()
/// };
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChannelConfig {
    /// The timing window `T_sync`: one bit per window.
    pub window: Cycles,
    /// The agreed index in the consecutive versions data region — i.e. which
    /// of the 8 512-byte units of a 4 KiB page both parties use (§5.3: "any
    /// arbitrary index can be used").
    pub agreed_offset: usize,
    /// The trojan's eviction sweep strategy.
    pub strategy: EvictionStrategy,
    /// Whether the trojan rotates the sweep's starting element between
    /// `1`s. Prevents absorbing replacement-state cycles under the
    /// deterministic PLRU model (see [`EvictionSweep`](crate::channel::EvictionSweep)).
    pub rotate_sweep: bool,
    /// Candidates the trojan feeds Algorithm 1 (≥ 64 required; more gives
    /// headroom on noisy machines).
    pub trojan_candidates: usize,
    /// Candidate addresses the spy tries when searching for its monitor
    /// address (each conflicts with probability 1/8).
    pub spy_candidates: usize,
    /// Repetitions for majority-voted eviction tests during setup.
    pub setup_reps: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            window: Cycles::new(15_000),
            agreed_offset: 3,
            strategy: EvictionStrategy::TwoPhase,
            rotate_sweep: true,
            trojan_candidates: 160,
            spy_candidates: 96,
            setup_reps: 3,
        }
    }
}

impl ChannelConfig {
    /// The establishment profile for pooled seed sweeps.
    ///
    /// A 16-session sweep spends almost all of its time in Algorithm 1 and
    /// the spy's monitor search, while the statistics under test live in
    /// the *transmissions*. This profile keeps every transmission parameter
    /// identical to [`ChannelConfig::default`] (window, strategy, offset —
    /// so sweep BERs remain comparable to single-session runs) and trims
    /// only the candidate pools to Algorithm 1's 64-candidate floor. The
    /// vote count stays at 3: shrinking it to 2 turns the 2-of-3 majority
    /// into a stricter unanimous vote, which makes the conflict searches
    /// *slower* on noisy machines, not faster, and a single vote loses
    /// roughly one session in sixteen to establishment noise.
    pub fn sweep_setup() -> Self {
        ChannelConfig {
            trojan_candidates: 64,
            spy_candidates: 64,
            ..Self::default()
        }
    }

    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for a zero window, an offset
    /// outside `0..8`, or degenerate candidate counts.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if self.window == Cycles::ZERO {
            return fail("window must be non-zero".into());
        }
        if self.agreed_offset >= 8 {
            return fail(format!(
                "agreed offset {} must select one of 8 version blocks",
                self.agreed_offset
            ));
        }
        if self.trojan_candidates < 64 {
            return fail("Algorithm 1 needs at least 64 trojan candidates".into());
        }
        if self.spy_candidates == 0 {
            return fail("spy needs at least one candidate".into());
        }
        if self.setup_reps == 0 {
            return fail("setup repetitions must be at least 1".into());
        }
        Ok(())
    }
}

/// How the reliable link degrades gracefully when the channel turns
/// hostile (see [`ReliableLink`](crate::channel::ReliableLink)).
///
/// Two mechanisms compose:
///
/// * **window ladder** — when the frame-error rate over a sliding window
///   of recent attempts exceeds `fer_threshold`, both directions widen
///   their timing window to the next rung (default 15 000 → 30 000 →
///   60 000 cycles). Wider windows make preemption bursts and drift
///   proportionally smaller relative to a bit slot, at an honestly
///   reported cost in goodput;
/// * **exponential backoff** — after each failed attempt both cores idle
///   for `backoff_base · 2^(consecutive_failures − 1)` cycles (capped at
///   `2^max_backoff_exp`), letting an interrupt storm pass instead of
///   burning retries into it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPolicy {
    /// Timing windows to escalate through, ascending. The first rung
    /// should be the session's operating window.
    pub window_ladder: Vec<Cycles>,
    /// Number of recent frame attempts tracked for the FER estimate.
    pub fer_window: usize,
    /// Escalate when `failures / attempts` over the tracked attempts
    /// exceeds this (in `(0, 1]`).
    pub fer_threshold: f64,
    /// Idle time after the first consecutive failure.
    pub backoff_base: Cycles,
    /// Cap on the backoff exponent.
    pub max_backoff_exp: u32,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            window_ladder: vec![
                Cycles::new(15_000),
                Cycles::new(30_000),
                Cycles::new(60_000),
            ],
            fer_window: 8,
            fer_threshold: 0.5,
            backoff_base: Cycles::new(30_000),
            max_backoff_exp: 4,
        }
    }
}

impl RecoveryPolicy {
    /// A policy that never escalates or backs off — the pre-recovery
    /// behaviour, useful as an experimental control.
    pub fn disabled() -> Self {
        RecoveryPolicy {
            window_ladder: vec![Cycles::new(15_000)],
            fer_window: 8,
            fer_threshold: 2.0, // a rate never exceeds 1, so never escalate
            backoff_base: Cycles::ZERO,
            max_backoff_exp: 0,
        }
    }

    /// Validates the policy.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for an empty or non-ascending
    /// ladder, a zero FER window, or a non-positive FER threshold.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if self.window_ladder.is_empty() {
            return fail("recovery ladder must have at least one rung".into());
        }
        if self.window_ladder.contains(&Cycles::ZERO) {
            return fail("recovery ladder windows must be non-zero".into());
        }
        if self.window_ladder.windows(2).any(|w| w[0] >= w[1]) {
            return fail("recovery ladder must be strictly ascending".into());
        }
        if self.fer_window == 0 {
            return fail("FER window must track at least one attempt".into());
        }
        if self.fer_threshold.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return fail(format!(
                "FER threshold {} must be positive",
                self.fer_threshold
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_default_is_the_documented_ladder() {
        let p = RecoveryPolicy::default();
        p.validate().unwrap();
        let rungs: Vec<u64> = p.window_ladder.iter().map(|w| w.raw()).collect();
        assert_eq!(rungs, vec![15_000, 30_000, 60_000]);
    }

    #[test]
    fn recovery_validation_rejects_degenerate_policies() {
        let bad = [
            RecoveryPolicy {
                window_ladder: vec![],
                ..RecoveryPolicy::default()
            },
            RecoveryPolicy {
                window_ladder: vec![Cycles::new(30_000), Cycles::new(15_000)],
                ..RecoveryPolicy::default()
            },
            RecoveryPolicy {
                window_ladder: vec![Cycles::ZERO],
                ..RecoveryPolicy::default()
            },
            RecoveryPolicy {
                fer_window: 0,
                ..RecoveryPolicy::default()
            },
            RecoveryPolicy {
                fer_threshold: 0.0,
                ..RecoveryPolicy::default()
            },
        ];
        for p in bad {
            assert!(p.validate().is_err(), "accepted {p:?}");
        }
        RecoveryPolicy::disabled().validate().unwrap();
    }

    #[test]
    fn default_is_the_papers_operating_point() {
        let cfg = ChannelConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.window, Cycles::new(15_000));
        assert_eq!(cfg.strategy, EvictionStrategy::TwoPhase);
    }

    #[test]
    fn validation_rejects_degenerate_configs() {
        let bad = [
            ChannelConfig {
                window: Cycles::ZERO,
                ..ChannelConfig::default()
            },
            ChannelConfig {
                agreed_offset: 8,
                ..ChannelConfig::default()
            },
            ChannelConfig {
                trojan_candidates: 32,
                ..ChannelConfig::default()
            },
            ChannelConfig {
                spy_candidates: 0,
                ..ChannelConfig::default()
            },
            ChannelConfig {
                setup_reps: 0,
                ..ChannelConfig::default()
            },
        ];
        for cfg in bad {
            assert!(cfg.validate().is_err(), "accepted {cfg:?}");
        }
    }
}
