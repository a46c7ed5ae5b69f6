//! Figure 8: channel robustness under four noise environments, sending the
//! 128-bit `100100…` sequence.

use std::fmt;

use mee_machine::{ActorRef, CoreId, NoopHook};
use mee_types::ModelError;

use crate::channel::{paper_100_pattern, ChannelConfig, Session, TransmitOutcome};
use crate::noise::{MeeNoiseActor, MemStressActor};
use crate::report;
use crate::setup::AttackSetup;

/// The four panels of Figure 8.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NoiseEnvironment {
    /// (a) no noise.
    None,
    /// (b) main-memory / LLC stress that never touches the MEE.
    MemStress,
    /// (c) another tenant loading integrity-tree data at 512 B stride.
    MeeStride512,
    /// (d) the same at 4 KiB stride.
    MeeStride4k,
}

impl NoiseEnvironment {
    /// All four panels in paper order.
    pub const ALL: [NoiseEnvironment; 4] = [
        NoiseEnvironment::None,
        NoiseEnvironment::MemStress,
        NoiseEnvironment::MeeStride512,
        NoiseEnvironment::MeeStride4k,
    ];

    /// Panel label.
    pub fn label(self) -> &'static str {
        match self {
            NoiseEnvironment::None => "(a) no noise",
            NoiseEnvironment::MemStress => "(b) main memory / cache stress",
            NoiseEnvironment::MeeStride512 => "(c) MEE noise, 512 B stride",
            NoiseEnvironment::MeeStride4k => "(d) MEE noise, 4 KiB stride",
        }
    }
}

/// Figure-8 output: one transmission per environment.
#[derive(Debug, Clone)]
pub struct Fig8Result {
    /// `(environment, outcome)` in paper order.
    pub runs: Vec<(NoiseEnvironment, TransmitOutcome)>,
    /// Bits per run.
    pub bits: usize,
}

/// Runs one environment.
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_environment(
    seed: u64,
    env: NoiseEnvironment,
    bits: usize,
) -> Result<TransmitOutcome, ModelError> {
    let mut setup = AttackSetup::new(seed)?;
    let cfg = ChannelConfig::default();
    let session = Session::establish(&mut setup, &cfg)?;
    let payload = paper_100_pattern(bits);
    let noise_core = CoreId::new(2);
    match env {
        NoiseEnvironment::None => session.transmit(&mut setup, &payload),
        NoiseEnvironment::MemStress => {
            let (proc, mut actor) = MemStressActor::install_on(&mut setup, 512)?;
            let mut noise: Vec<ActorRef<'_>> = vec![(noise_core, proc, &mut actor)];
            session.transmit_hooked(&mut setup, &payload, &mut noise, &mut NoopHook)
        }
        NoiseEnvironment::MeeStride512 => {
            let (proc, mut actor) = MeeNoiseActor::install_on(&mut setup, 512, 128)?;
            let mut noise: Vec<ActorRef<'_>> = vec![(noise_core, proc, &mut actor)];
            session.transmit_hooked(&mut setup, &payload, &mut noise, &mut NoopHook)
        }
        NoiseEnvironment::MeeStride4k => {
            let (proc, mut actor) = MeeNoiseActor::install_on(&mut setup, 4096, 256)?;
            let mut noise: Vec<ActorRef<'_>> = vec![(noise_core, proc, &mut actor)];
            session.transmit_hooked(&mut setup, &payload, &mut noise, &mut NoopHook)
        }
    }
}

/// Runs all four environments (fresh machine per panel, same seed base).
///
/// # Errors
///
/// Propagates machine and setup errors.
pub fn run_fig8(seed: u64, bits: usize) -> Result<Fig8Result, ModelError> {
    let mut runs = Vec::with_capacity(4);
    for env in NoiseEnvironment::ALL {
        runs.push((env, run_environment(seed, env, bits)?));
    }
    Ok(Fig8Result { runs, bits })
}

impl fmt::Display for Fig8Result {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 8 — {}-bit '100100…' sequence under noise (window 15000 cycles)",
            self.bits
        )?;
        let rows: Vec<Vec<String>> = self
            .runs
            .iter()
            .map(|(env, out)| {
                vec![
                    env.label().to_string(),
                    out.errors.count().to_string(),
                    report::pct(out.error_rate()),
                    format!(
                        "{:?}",
                        out.errors.positions.iter().take(8).collect::<Vec<_>>()
                    ),
                ]
            })
            .collect();
        f.write_str(&report::table(
            &[
                "environment",
                "error bits",
                "error rate",
                "first error positions",
            ],
            &rows,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8_noise_ordering() {
        let r = run_fig8(105, 128).unwrap();
        let rate = |env: NoiseEnvironment| {
            r.runs
                .iter()
                .find(|(e, _)| *e == env)
                .map(|(_, o)| o.error_rate())
                .unwrap()
        };
        // (a): a handful of errors at most (paper: 1/128).
        assert!(
            rate(NoiseEnvironment::None) < 0.06,
            "quiet: {}",
            rate(NoiseEnvironment::None)
        );
        // (b): memory stress has minimal impact — the MEE cache is not
        // accessed.
        assert!(
            rate(NoiseEnvironment::MemStress) < rate(NoiseEnvironment::MeeStride4k) + 0.05,
            "mem stress should not be the worst environment"
        );
        // (c)/(d): MEE pressure hurts (paper: 4–5 errors in 128 bits).
        let worst = rate(NoiseEnvironment::MeeStride512).max(rate(NoiseEnvironment::MeeStride4k));
        assert!(
            worst >= rate(NoiseEnvironment::None),
            "MEE noise had no effect at all"
        );
        assert!(worst < 0.35, "MEE noise destroyed the channel: {worst}");
        let text = r.to_string();
        assert!(text.contains("(a) no noise"));
        assert!(text.contains("(d) MEE noise"));
    }
}
