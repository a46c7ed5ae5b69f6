//! Resilience under structured adversity (robustness extension).
//!
//! The paper evaluates the channel on a quiet testbed; a real deployment
//! faces preemption storms, migrations, EPC paging, timer drift, and
//! co-runners thrashing the very MEE-cache sets the channel modulates.
//! This experiment sweeps those faults across three intensities
//! ([`FaultIntensity`]) and measures, per intensity:
//!
//! * **raw** — the plain channel with no recovery at the paper's 15 000
//!   cycle window: its BER shows how hard the faults actually hit;
//! * **robust** — one self-healing transmission
//!   ([`Session::transmit_robust`]): preamble lock, desync detection,
//!   adaptive thresholding, Hamming correction — but no retransmission;
//! * **recovering** — the full ARQ stack
//!   ([`ReliableLink`]) with exponential backoff and the graceful
//!   window-degradation ladder, reporting residual errors and the
//!   honestly-measured goodput.
//!
//! Every phase replays a seed-derived [`FaultPlan`], so a table cell can
//! be reproduced in isolation from the seed alone.

use std::fmt;

use mee_faults::{FaultInjector, FaultIntensity, FaultPlan, FaultTargets};
use mee_rng::stream_seed;
use mee_types::{Cycles, ModelError, VirtAddr, PAGE_SIZE};

use crate::channel::{random_bits, ChannelConfig, ReliableLink, Session};
use crate::setup::AttackSetup;

/// One intensity's row of the resilience table.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePoint {
    /// The fault intensity this row was measured under.
    pub intensity: FaultIntensity,
    /// Fault events that actually fired across all three phases.
    pub faults_applied: usize,
    /// Bits sent in the raw and robust phases.
    pub raw_bits: usize,
    /// Bit errors of the plain, non-recovering channel.
    pub raw_errors: usize,
    /// Bit errors after session-level self-healing (no ARQ).
    pub robust_errors: usize,
    /// Whether the robust phase's desync sanity check tripped.
    pub desynced: bool,
    /// Whether the robust phase re-locked the preamble off offset 0.
    pub resynced: bool,
    /// Online threshold recalibrations during the robust decode.
    pub recalibrations: usize,
    /// Payload bits pushed through the recovering ARQ stack.
    pub payload_bits: usize,
    /// Errors remaining in the ARQ-delivered payload.
    pub residual_errors: usize,
    /// ARQ retransmissions.
    pub retransmissions: usize,
    /// Times the ARQ widened its timing window.
    pub window_escalations: usize,
    /// The timing window the ARQ finished on.
    pub final_window: Cycles,
    /// Honest goodput of the ARQ transfer, from measured elapsed time.
    pub goodput_kbps: f64,
}

impl ResiliencePoint {
    /// Raw (non-recovering) bit error rate.
    #[must_use]
    pub fn raw_ber(&self) -> f64 {
        self.raw_errors as f64 / self.raw_bits as f64
    }

    /// Bit error rate after session-level self-healing.
    #[must_use]
    pub fn robust_ber(&self) -> f64 {
        self.robust_errors as f64 / self.raw_bits as f64
    }

    /// Residual error rate of the recovering stack.
    #[must_use]
    pub fn residual_rate(&self) -> f64 {
        self.residual_errors as f64 / self.payload_bits as f64
    }
}

/// The resilience table of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceResult {
    /// The machine/establishment seed.
    pub seed: u64,
    /// Payload length per phase, in bits.
    pub bits: usize,
    /// One row per [`FaultIntensity`], in [`FaultIntensity::ALL`] order.
    pub points: Vec<ResiliencePoint>,
}

impl ResilienceResult {
    /// The row for one intensity.
    #[must_use]
    pub fn point(&self, intensity: FaultIntensity) -> &ResiliencePoint {
        self.points
            .iter()
            .find(|p| p.intensity == intensity)
            .expect("every intensity has a row")
    }
}

impl fmt::Display for ResilienceResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Resilience under fault injection (seed {}, {} bits/phase)",
            self.seed, self.bits
        )?;
        writeln!(
            f,
            "{:<7} {:>6} {:>8} {:>10} {:>7} {:>6} {:>5} {:>6} {:>9} {:>8}",
            "plan",
            "faults",
            "raw_ber",
            "robust_ber",
            "resid",
            "retx",
            "escal",
            "recal",
            "final_w",
            "KB/s"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:<7} {:>6} {:>8.4} {:>10.4} {:>7.4} {:>6} {:>5} {:>6} {:>9} {:>8.2}",
                p.intensity.label(),
                p.faults_applied,
                p.raw_ber(),
                p.robust_ber(),
                p.residual_rate(),
                p.retransmissions,
                p.window_escalations,
                p.recalibrations,
                p.final_window.raw(),
                p.goodput_kbps,
            )?;
        }
        Ok(())
    }
}

/// The fault targets of an established session: its two cores, the page
/// hosting the receiver's monitor address, and the MEE-cache set the
/// channel modulates.
///
/// # Errors
///
/// Propagates translation errors for the monitor address.
pub fn session_fault_targets(
    setup: &AttackSetup,
    session: &Session,
) -> Result<FaultTargets, ModelError> {
    let geo = *setup.machine.mee().geometry();
    let sets = setup.machine.mee().cache().config().sets;
    let pa = setup
        .machine
        .translate(session.receiver.proc, session.monitor)?;
    let set = geo
        .version_line(geo.walk_path(pa.line()).version)
        .set_index(sets);
    let page = VirtAddr::new(session.monitor.raw() & !(PAGE_SIZE as u64 - 1));
    Ok(
        FaultTargets::cores(session.receiver.core, session.sender.core)
            .with_victim_page(session.receiver.proc, page)
            .with_mee_set(set),
    )
}

/// Phase tags used to split per-phase fault streams from one seed.
const PHASE_RAW: u64 = 0;
const PHASE_ROBUST: u64 = 1;
const PHASE_ARQ: u64 = 2;

fn machine_now(setup: &AttackSetup, session: &Session) -> Cycles {
    setup
        .machine
        .core_now(session.sender.core)
        .max(setup.machine.core_now(session.receiver.core))
}

/// Runs the resilience experiment for one seed: for each intensity,
/// measures the raw channel, one robust transmission, and a full ARQ
/// transfer, each under an independent seed-derived fault plan.
///
/// # Errors
///
/// Propagates machine, establishment, and ARQ-exhaustion errors.
pub fn run_resilience(seed: u64, bits: usize) -> Result<ResilienceResult, ModelError> {
    let cfg = ChannelConfig::sweep_setup();
    let payload = random_bits(bits, stream_seed(seed, 0xBE));
    // Root of every fault stream of this result; phase plans split off it.
    let fault_root = stream_seed(seed, 0xFA);
    let mut points = Vec::with_capacity(FaultIntensity::ALL.len());
    for (idx, intensity) in FaultIntensity::ALL.into_iter().enumerate() {
        let phase_seed = |phase: u64| stream_seed(fault_root, idx as u64 * 3 + phase);

        // Phases raw + robust share one machine and one establishment.
        let mut setup = AttackSetup::new(seed)?;
        let session = Session::establish(&mut setup, &cfg)?;
        let targets = session_fault_targets(&setup, &session)?;
        let span = Cycles::new(bits as u64 * cfg.window.raw() * 4 + 2_000_000);

        let raw_plan = FaultPlan::generate(
            intensity,
            &targets,
            machine_now(&setup, &session),
            span,
            phase_seed(PHASE_RAW),
        );
        let mut raw_inj = FaultInjector::new(raw_plan);
        let raw = session.transmit_hooked(&mut setup, &payload, &mut [], &mut raw_inj)?;

        let robust_plan = FaultPlan::generate(
            intensity,
            &targets,
            machine_now(&setup, &session),
            span,
            phase_seed(PHASE_ROBUST),
        );
        let mut robust_inj = FaultInjector::new(robust_plan);
        let robust = session.transmit_robust(&mut setup, &payload, &mut robust_inj)?;

        // The recovering phase gets a fresh machine (same seed): the ARQ
        // establishes its own forward + reverse sessions.
        let mut arq_setup = AttackSetup::new(seed)?;
        let mut link = ReliableLink::establish(&mut arq_setup, &cfg)?;
        let arq_targets = session_fault_targets(&arq_setup, link.forward())?;
        // The storm covers the *nominal* transfer span — like a real
        // interrupt storm it is dense but finite, and the recovering
        // stack's job (backoff, window widening, retransmission) is to
        // outlast it: retries pushed past the storm's tail complete in
        // quiet air. Density (events per cycle), not the span, sets the
        // intensity.
        let arq_span = span;
        let arq_plan = FaultPlan::generate(
            intensity,
            &arq_targets,
            machine_now(&arq_setup, link.forward()),
            arq_span,
            phase_seed(PHASE_ARQ),
        );
        let mut arq_inj = FaultInjector::new(arq_plan);
        let (delivered, stats) = link.send_with(&mut arq_setup, &payload, &mut arq_inj)?;
        let residual_errors = delivered
            .iter()
            .zip(payload.iter())
            .filter(|(a, b)| a != b)
            .count()
            + payload.len().abs_diff(delivered.len());
        let goodput_kbps = link.goodput_kbps(&arq_setup, payload.len(), &stats);

        points.push(ResiliencePoint {
            intensity,
            faults_applied: raw_inj.applied().len()
                + robust_inj.applied().len()
                + arq_inj.applied().len(),
            raw_bits: bits,
            raw_errors: raw.errors.count(),
            robust_errors: robust.errors.count(),
            desynced: robust.desynced,
            resynced: robust.resync_offset.is_some(),
            recalibrations: robust.recalibrations,
            payload_bits: bits,
            residual_errors,
            retransmissions: stats.retransmissions,
            window_escalations: stats.window_escalations,
            final_window: stats.final_window,
            goodput_kbps,
        });
    }
    Ok(ResilienceResult { seed, bits, points })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_intensity_applies_no_faults_and_stays_clean() {
        let r = run_resilience(901, 32).unwrap();
        let off = r.point(FaultIntensity::Off);
        assert_eq!(off.faults_applied, 0);
        assert_eq!(off.residual_errors, 0, "quiet ARQ must deliver exactly");
        assert_eq!(off.window_escalations, 0);
        assert!(off.goodput_kbps > 0.0);
        assert_eq!(r.points.len(), FaultIntensity::ALL.len());
    }

    #[test]
    fn resilience_is_replayable() {
        let a = run_resilience(902, 24).unwrap();
        let b = run_resilience(902, 24).unwrap();
        assert_eq!(a, b, "same seed must reproduce the table bit-for-bit");
    }
}
