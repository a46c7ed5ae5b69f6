//! The covert channel under a deterministic fault storm: a seed-derived
//! [`FaultPlan`] preempts the spy, skews clocks, migrates cores, and
//! thrashes the MEE-cache set mid-transfer — first against the plain
//! channel (which is shredded), then against the self-healing stack
//! (adaptive thresholding + preamble re-lock) and the full recovering ARQ
//! (retransmission, exponential backoff, window-widening ladder), which
//! delivers the payload exactly at an honestly reduced rate.
//!
//! ```text
//! cargo run --example faulty_channel
//! ```

use mee_covert::attack::channel::{random_bits, ChannelConfig, ReliableLink, Session};
use mee_covert::attack::experiments::session_fault_targets;
use mee_covert::faults::{FaultInjector, FaultIntensity, FaultPlan};
use mee_covert::types::{Cycles, ModelError};

fn main() -> Result<(), ModelError> {
    let seed = mee_covert::testbed::SEED;
    let cfg = ChannelConfig::sweep_setup();
    let payload = mee_covert::rng::stream_seed(seed, 0xBE);
    let payload = random_bits(96, payload);

    // ---- Phase 1: the plain channel under a heavy storm. -----------------
    let mut setup = mee_covert::testbed::noisy_setup(seed)?;
    let session = Session::establish(&mut setup, &cfg)?;
    let targets = session_fault_targets(&setup, &session)?;
    let now = setup.machine.core_now(session.sender.core);
    let span = Cycles::new(payload.len() as u64 * cfg.window.raw() * 4 + 2_000_000);
    let plan = FaultPlan::generate(FaultIntensity::Heavy, &targets, now, span, seed);
    println!(
        "fault plan: {} events (preemptions, migrations, clock drift, MEE thrash)",
        plan.len()
    );

    let mut injector = FaultInjector::new(plan.clone());
    let raw = session.transmit_hooked(&mut setup, &payload, &mut [], &mut injector)?;
    println!(
        "plain channel under the storm: {} bit errors in {} bits ({:.1}%)",
        raw.errors.count(),
        payload.len(),
        raw.errors.rate() * 100.0
    );

    // ---- Phase 2: one self-healing transmission (no retransmission). -----
    let mut injector = FaultInjector::new(plan.shifted(Cycles::new(2_000_000)));
    let robust = session.transmit_robust(&mut setup, &payload, &mut injector)?;
    println!(
        "self-healing transmission: {} bit errors ({:.1}%), desynced={}, {} recalibrations",
        robust.errors.count(),
        robust.error_rate() * 100.0,
        robust.desynced,
        robust.recalibrations
    );

    // ---- Phase 3: the recovering ARQ stack rides the storm out. ----------
    let mut setup = mee_covert::testbed::noisy_setup(seed)?;
    let mut link = ReliableLink::establish(&mut setup, &cfg)?;
    let arq_targets = session_fault_targets(&setup, link.forward())?;
    let now = setup.machine.core_now(link.forward().sender.core);
    let arq_plan = FaultPlan::generate(FaultIntensity::Heavy, &arq_targets, now, span, seed);
    let mut injector = FaultInjector::new(arq_plan);
    let (delivered, stats) = link.send_with(&mut setup, &payload, &mut injector)?;

    let residual = delivered
        .iter()
        .zip(payload.iter())
        .filter(|(a, b)| a != b)
        .count();
    println!(
        "recovering ARQ: {} residual errors, {} retransmissions, {} window escalations \
         (finished at a {}-cycle window), {:.2} KBps honest goodput",
        residual,
        stats.retransmissions,
        stats.window_escalations,
        stats.final_window.raw(),
        link.goodput_kbps(&setup, payload.len(), &stats)
    );
    assert_eq!(
        delivered, payload,
        "the ARQ must deliver the payload exactly"
    );
    println!(
        "payload delivered exactly despite {} injected faults",
        injector.applied().len()
    );
    Ok(())
}
