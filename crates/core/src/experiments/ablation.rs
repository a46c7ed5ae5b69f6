//! Ablation: the trojan's sweep discipline (§5.3) across MEE-cache
//! replacement policies.
//!
//! The paper argues the two-phase (forward + backward) eviction exists
//! because the MEE cache replacement is "approximate LRU". This experiment
//! crosses sweep strategy × sweep-order rotation × replacement policy.
//! Findings in this model:
//!
//! * every *recency-based* policy supports the channel at the paper's
//!   operating point, with fixed sweep orders consistently worse than
//!   rotating ones (fixed orders can fall into replacement-state cycles
//!   that leave the monitor line resident);
//! * under *random* replacement, Algorithm 1 itself collapses — the attack
//!   needs a policy with recency structure, corroborating the paper's
//!   premise that the real MEE cache behaves like an approximate LRU;
//! * under *SRRIP*, whose scan-resistant insertion leaves new fills one
//!   step from eviction, priming is futile and the attack also fails —
//!   suggesting an insertion-policy change as an MEE-cache hardening knob
//!   (complementing the §5.5 discussion).

use std::fmt;

use mee_machine::{MachineConfig, PolicyKind};
use mee_types::ModelError;

use crate::channel::{random_bits, ChannelConfig, EvictionStrategy, Session};
use crate::report;
use crate::setup::AttackSetup;

/// One ablation cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AblationPoint {
    /// The MEE-cache replacement policy.
    pub policy: PolicyKind,
    /// The trojan's sweep strategy.
    pub strategy: EvictionStrategy,
    /// Whether the sweep's start element rotates between `1`s.
    pub rotate: bool,
    /// Measured bit error rate; `None` when the channel could not even be
    /// established (Algorithm 1 needs replacement behaviour with *some*
    /// recency structure — under pure random eviction it collapses).
    pub error_rate: Option<f64>,
}

/// Ablation output.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationResult {
    /// All policy × strategy cells.
    pub points: Vec<AblationPoint>,
    /// Bits per cell.
    pub bits: usize,
}

impl AblationResult {
    /// Error rate of one cell (`None` if missing or not established).
    pub fn rate(
        &self,
        policy: PolicyKind,
        strategy: EvictionStrategy,
        rotate: bool,
    ) -> Option<f64> {
        self.points
            .iter()
            .find(|p| p.policy == policy && p.strategy == strategy && p.rotate == rotate)
            .and_then(|p| p.error_rate)
    }
}

/// Runs the ablation grid with `bits` random bits per cell.
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_ablation(seed: u64, bits: usize) -> Result<AblationResult, ModelError> {
    let policies = [
        PolicyKind::TreePlru,
        PolicyKind::TrueLru,
        PolicyKind::Srrip,
        PolicyKind::Random {
            seed: seed ^ 0xabcd,
        },
    ];
    let strategies = [EvictionStrategy::TwoPhase, EvictionStrategy::ForwardOnly];
    let mut points = Vec::new();
    for (i, &policy) in policies.iter().enumerate() {
        for (j, &strategy) in strategies.iter().enumerate() {
            for (k, &rotate) in [true, false].iter().enumerate() {
                let cfg = MachineConfig {
                    mee_policy: policy,
                    ..MachineConfig::default()
                };
                let mut setup = AttackSetup::with_config(
                    cfg,
                    seed.wrapping_add((i * 100 + j * 10 + k) as u64),
                )?;
                let chan_cfg = ChannelConfig {
                    strategy,
                    rotate_sweep: rotate,
                    ..ChannelConfig::default()
                };
                let error_rate = match Session::establish(&mut setup, &chan_cfg) {
                    Ok(session) => {
                        let payload = random_bits(bits, seed.wrapping_add(99 + i as u64));
                        Some(session.transmit(&mut setup, &payload)?.error_rate())
                    }
                    // Establishment itself can fail: Algorithm 1 has nothing
                    // to grip when the replacement policy carries no recency.
                    Err(ModelError::InvalidConfig { .. }) => None,
                    Err(other) => return Err(other),
                };
                points.push(AblationPoint {
                    policy,
                    strategy,
                    rotate,
                    error_rate,
                });
            }
        }
    }
    Ok(AblationResult { points, bits })
}

impl fmt::Display for AblationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Ablation — eviction strategy × MEE replacement policy \
             ({} bits per cell, error rate shown)",
            self.bits
        )?;
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                vec![
                    format!("{:?}", p.policy),
                    format!("{:?}", p.strategy),
                    if p.rotate { "rotating" } else { "fixed" }.into(),
                    p.error_rate
                        .map(report::pct)
                        .unwrap_or_else(|| "channel not established".into()),
                ]
            })
            .collect();
        f.write_str(&report::table(
            &["policy", "strategy", "sweep order", "error rate"],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recency_policies_work_and_random_replacement_breaks_the_attack() {
        let r = run_ablation(108, 256).unwrap();
        // Every recency-based cell communicates at the paper's operating
        // point.
        for policy in [PolicyKind::TreePlru, PolicyKind::TrueLru] {
            for strategy in [EvictionStrategy::TwoPhase, EvictionStrategy::ForwardOnly] {
                for rotate in [true, false] {
                    let rate = r
                        .rate(policy, strategy, rotate)
                        .expect("recency policy must establish");
                    assert!(
                        rate < 0.10,
                        "{policy:?}/{strategy:?}/rotate={rotate}: error {rate}"
                    );
                }
            }
        }
        // The production configuration (two-phase + rotation) is solid.
        let prod = r
            .rate(PolicyKind::TreePlru, EvictionStrategy::TwoPhase, true)
            .unwrap();
        assert!(prod < 0.05, "production config error {prod}");
        // Under random replacement Algorithm 1 has nothing to grip: the
        // whole attack fails at establishment.
        let random = PolicyKind::Random { seed: 108 ^ 0xabcd };
        for strategy in [EvictionStrategy::TwoPhase, EvictionStrategy::ForwardOnly] {
            assert!(
                r.rate(random, strategy, true).is_none(),
                "random replacement unexpectedly supported the channel"
            );
        }
        // SRRIP's scan-resistant insertion (fills enter at a distant
        // re-reference prediction) makes a freshly primed versions line the
        // first victim of any conflicting fill: Algorithm 1's index/peel
        // logic degenerates and the attack fails at establishment — an
        // incidental mitigation insight.
        for strategy in [EvictionStrategy::TwoPhase, EvictionStrategy::ForwardOnly] {
            assert!(
                r.rate(PolicyKind::Srrip, strategy, true).is_none(),
                "SRRIP unexpectedly supported the channel"
            );
        }
    }
}
