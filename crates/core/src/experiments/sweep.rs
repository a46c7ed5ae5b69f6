//! Seed sweeps over the experiment drivers, run in parallel through
//! [`mee_sweep`].
//!
//! The paper's quantitative claims are statistical: the Fig. 5 latency
//! histogram, the Fig. 6 BER contrast, and the §5.4 headline numbers all
//! pool many independent sessions. A [`SweepPlan`] names such a pool — a
//! root seed, a session count, and an optional thread override — and its
//! [`runner`](SweepPlan::runner) runs one full experiment per session with
//! the per-session seed split from the root via
//! [`mee_sweep::session_seeds`]; [`run_channel_sweep`] does so for the
//! channel. Results come back in session order and are **bit-identical to
//! serial execution** for any thread count, so a sweep can be reproduced
//! one session at a time: session `i` of root seed `r` is exactly the
//! experiment at seed `stream_seed(r, i)`.

use mee_sweep::{percentile, SessionSpec, Sweep};
use mee_types::{Cycles, ModelError};

use crate::channel::{random_bits, ChannelConfig, Session};
use crate::setup::AttackSetup;

/// A pooled multi-session run: root seed, session count, thread override.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepPlan {
    /// The root seed every per-session seed is split from.
    pub root_seed: u64,
    /// Number of independent sessions to pool.
    pub sessions: usize,
    /// Worker-thread override; `None` uses `MEE_SWEEP_THREADS` or the
    /// host's available parallelism.
    pub threads: Option<usize>,
}

impl SweepPlan {
    /// A plan with the environment-default thread count.
    pub fn new(root_seed: u64, sessions: usize) -> Self {
        SweepPlan {
            root_seed,
            sessions,
            threads: None,
        }
    }

    /// Pins the worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// The runner this plan executes on.
    pub fn runner(&self) -> Sweep {
        Sweep::new().threads(self.threads)
    }

    /// The per-session specs (index + split seed) of this plan.
    pub fn session_specs(&self) -> Vec<SessionSpec> {
        mee_sweep::session_seeds(self.root_seed, self.sessions)
    }
}

/// One session of a channel seed sweep, reduced to the numbers the
/// statistical tests and the bench trajectory pool.
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelSweepPoint {
    /// Position in the sweep.
    pub index: usize,
    /// The session's split seed (replay: `AttackSetup::new(seed)`).
    pub seed: u64,
    /// Payload length in bits.
    pub bits: usize,
    /// Positional bit errors.
    pub bit_errors: usize,
    /// Achieved rate in KB/s of simulated time.
    pub kbps: f64,
    /// Simulated duration of the transmission.
    pub elapsed: Cycles,
    /// Median spy probe time.
    pub probe_p50: Cycles,
    /// 95th-percentile spy probe time.
    pub probe_p95: Cycles,
}

impl ChannelSweepPoint {
    /// Bit error rate in `[0, 1]`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.bit_errors as f64 / self.bits as f64
    }
}

/// Runs `plan.sessions` independent end-to-end channel sessions (noisy
/// machine, establish + transmit of `bits` seed-derived random bits each)
/// and returns one [`ChannelSweepPoint`] per session, in session order.
///
/// # Errors
///
/// Returns the lowest-indexed failing session's error, deterministically.
pub fn run_channel_sweep(
    plan: &SweepPlan,
    cfg: &ChannelConfig,
    bits: usize,
) -> Result<Vec<ChannelSweepPoint>, ModelError> {
    plan.runner()
        .try_seed_sweep(plan.root_seed, plan.sessions, |spec| {
            let mut setup = AttackSetup::new(spec.seed)?;
            let session = Session::establish(&mut setup, cfg)?;
            let payload = random_bits(bits, spec.seed);
            let out = session.transmit(&mut setup, &payload)?;
            let mut probes: Vec<u64> = out.probe_times.iter().map(|t| t.raw()).collect();
            probes.sort_unstable();
            Ok(ChannelSweepPoint {
                index: spec.index,
                seed: spec.seed,
                bits,
                bit_errors: out.errors.count(),
                kbps: out.kbps,
                elapsed: out.elapsed,
                probe_p50: Cycles::new(percentile(&probes, 50.0)),
                probe_p95: Cycles::new(percentile(&probes, 95.0)),
            })
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_specs_follow_the_stream_seed_convention() {
        let plan = SweepPlan::new(2019, 4).threads(2);
        let specs = plan.session_specs();
        assert_eq!(specs.len(), 4);
        assert_eq!(specs[1].seed, mee_rng::stream_seed(2019, 1));
        assert_eq!(plan.runner().thread_count(), 2);
    }

    #[test]
    fn channel_sweep_is_thread_count_invariant() {
        // The determinism guarantee, end to end on real sessions: the same
        // plan on 1 and 3 threads produces bit-identical points.
        let cfg = ChannelConfig::sweep_setup();
        let serial = run_channel_sweep(&SweepPlan::new(7, 3).threads(1), &cfg, 8).unwrap();
        let parallel = run_channel_sweep(&SweepPlan::new(7, 3).threads(3), &cfg, 8).unwrap();
        assert_eq!(serial, parallel);
        assert!(serial.iter().all(|p| p.bits == 8));
        // Replayability: a session rerun standalone from its JSON-visible
        // seed matches the sweep's own result.
        let spec = SweepPlan::new(7, 3).session_specs()[2];
        let alone = run_channel_sweep(
            &SweepPlan {
                root_seed: 7,
                sessions: 3,
                threads: Some(1),
            },
            &cfg,
            8,
        )
        .unwrap()[2]
            .clone();
        assert_eq!(alone.seed, spec.seed);
    }
}
