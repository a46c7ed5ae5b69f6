//! Workspace-level robustness claims of the fault-injection extension:
//!
//! * the heavy fault plan genuinely degrades the *non-recovering* channel
//!   (pooled BER at least 5× the unfaulted baseline);
//! * the *recovering* stack (ARQ + backoff + window ladder) still delivers
//!   with a residual error rate under 1% — in fact exactly — at an
//!   honestly-reported reduced goodput;
//! * a hand-built periodic fault plan that corrupts every other ARQ round
//!   costs retransmissions, never correctness.

use mee_covert::attack::channel::{random_bits, ChannelConfig, ReliableLink};
use mee_covert::attack::experiments::{run_resilience, session_fault_targets};
use mee_covert::attack::setup::AttackSetup;
use mee_covert::faults::{FaultEvent, FaultInjector, FaultIntensity, FaultKind, FaultPlan};
use mee_covert::sweep::Sweep;
use mee_covert::testbed;
use mee_covert::types::Cycles;

const BITS: usize = 48;

/// Pools the resilience table over a few sessions split from the
/// workspace seed (session i replays standalone as
/// `run_resilience(stream_seed(SEED, i), BITS)`).
fn pooled_tables() -> Vec<mee_covert::attack::experiments::ResilienceResult> {
    Sweep::with_threads(2)
        .try_seed_sweep(testbed::SEED, 3, |spec| run_resilience(spec.seed, BITS))
        .expect("resilience sweep")
}

#[test]
fn heavy_plan_degrades_the_raw_channel_at_least_5x() {
    let tables = pooled_tables();
    let errors = |intensity: FaultIntensity| -> usize {
        tables
            .iter()
            .map(|t| t.point(intensity).raw_errors)
            .sum::<usize>()
    };
    let off = errors(FaultIntensity::Off);
    let heavy = errors(FaultIntensity::Heavy);
    // Floor the baseline at one pooled error so a clean baseline does not
    // make the ratio vacuous.
    assert!(
        heavy >= 5 * off.max(1),
        "heavy plan too gentle: {heavy} pooled errors vs baseline {off} \
         (needs >= 5x) over {} bits",
        tables.len() * BITS
    );
    // And the faults must actually have fired.
    for t in &tables {
        assert!(t.point(FaultIntensity::Heavy).faults_applied > 50);
        assert_eq!(t.point(FaultIntensity::Off).faults_applied, 0);
    }
}

#[test]
fn recovering_stack_stays_under_one_percent_residual_under_heavy_faults() {
    for t in pooled_tables() {
        for p in &t.points {
            assert!(
                p.residual_rate() < 0.01,
                "{} plan: residual {:.4} on seed {}",
                p.intensity.label(),
                p.residual_rate(),
                t.seed
            );
            assert!(
                p.goodput_kbps > 0.0,
                "goodput must be measured, not estimated"
            );
        }
        let heavy = t.point(FaultIntensity::Heavy);
        let off = t.point(FaultIntensity::Off);
        // The degraded link must report honestly degraded goodput: the
        // heavy cell pays for its retransmissions and widened windows.
        if heavy.window_escalations > 0 {
            assert!(
                heavy.goodput_kbps < off.goodput_kbps,
                "widened windows cannot be free: heavy {:.2} vs off {:.2} KBps",
                heavy.goodput_kbps,
                off.goodput_kbps
            );
        }
    }
}

/// Satellite: a periodic plan corrupting every other ARQ round (one MEE
/// set thrash per ~2 frame rounds, for the whole transfer) forces
/// retransmissions but zero residual errors, and the retransmission count
/// stays bounded — the link never thrashes.
#[test]
fn arq_rides_out_a_periodic_frame_corruption_plan() {
    let cfg = ChannelConfig::sweep_setup();
    let mut setup = AttackSetup::new(testbed::SEED).unwrap();
    let mut link = ReliableLink::establish(&mut setup, &cfg).unwrap();
    let targets = session_fault_targets(&setup, link.forward()).unwrap();
    let set = targets.mee_set.expect("session targets carry the MEE set");

    // One ARQ round (frame + ACK) is ~28 windows at the 15 000-cycle
    // window; thrash the channel's MEE set once every second round so
    // every other frame decodes with versions-misses and fails its CRC.
    // The storm is periodic but finite (~2× the nominal transfer), so
    // retries pushed past its tail complete in quiet air — the same
    // finite-storm model the resilience experiment uses.
    let round = Cycles::new(28 * cfg.window.raw());
    let start = setup.machine.core_now(link.forward().sender.core) + Cycles::new(100_000);
    let events: Vec<FaultEvent> = (0..8)
        .map(|k| FaultEvent {
            at: start + Cycles::new(2 * round.raw() * k + round.raw() / 2),
            kind: FaultKind::MeeSetThrash { set },
        })
        .collect();
    let plan = FaultPlan::new(events);

    let payload = random_bits(64, testbed::SEED);
    let mut injector = FaultInjector::new(plan);
    let (delivered, stats) = link.send_with(&mut setup, &payload, &mut injector).unwrap();

    assert_eq!(delivered, payload, "residual errors under periodic faults");
    assert!(
        injector.applied().len() >= 4,
        "the periodic plan barely fired ({} events)",
        injector.applied().len()
    );
    assert!(
        stats.retransmissions >= 1,
        "periodic corruption should cost at least one retransmission"
    );
    assert!(
        stats.retransmissions <= 3 * stats.frames,
        "link thrashing: {} retransmissions for {} frames",
        stats.retransmissions,
        stats.frames
    );
}

/// The whole resilience table replays bit-for-bit from its seed.
#[test]
fn resilience_table_replays_from_seed_alone() {
    let a = run_resilience(7, 24).unwrap();
    let b = run_resilience(7, 24).unwrap();
    assert_eq!(a, b);
    assert_eq!(format!("{a}"), format!("{b}"));
}
