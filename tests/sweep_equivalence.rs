//! The sweep runner's core guarantee, proven at the workspace level on
//! real channel sessions: a parallel sweep is **byte-identical** to the
//! serial run, for any worker count.
//!
//! (The `mee-sweep` crate proves the same for plain closures across many
//! thread counts, plus the wall-clock smoke check; this test closes the
//! loop over an actual establish-and-transmit pipeline where each session
//! owns a full simulated machine.)

use mee_covert::attack::channel::ChannelConfig;
use mee_covert::attack::experiments::{run_channel_sweep, SweepPlan};
use mee_covert::testbed;

#[test]
fn parallel_channel_sweep_is_byte_identical_to_serial() {
    let cfg = ChannelConfig::sweep_setup();
    let serial = run_channel_sweep(&SweepPlan::new(testbed::SEED, 3).threads(1), &cfg, 8).unwrap();
    assert_eq!(serial.len(), 3);
    // 2 threads over 3 sessions forces an uneven schedule; 8 threads
    // oversubscribes (more workers than sessions *and* likely more than
    // the host has cores).
    for threads in [2usize, 8] {
        let parallel =
            run_channel_sweep(&SweepPlan::new(testbed::SEED, 3).threads(threads), &cfg, 8).unwrap();
        assert_eq!(serial, parallel, "{threads} threads diverged from serial");
        // Belt and braces for the "byte-identical" claim: the full debug
        // rendering (every field, f64s included) matches character for
        // character.
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
    // Session seeds follow the published convention, so any session can be
    // replayed standalone from its sweep record.
    let specs = SweepPlan::new(testbed::SEED, 3).session_specs();
    for (point, spec) in serial.iter().zip(&specs) {
        assert_eq!(point.seed, spec.seed);
        assert_eq!(
            point.seed,
            mee_covert::rng::stream_seed(testbed::SEED, spec.index as u64)
        );
    }
}

/// The resilience sweep — whose sessions replay seed-derived fault plans,
/// retransmit, and widen their windows — is just as schedule-independent
/// as the clean channel sweep: parallel runs are byte-identical to serial.
#[test]
fn parallel_resilience_sweep_is_byte_identical_to_serial() {
    use mee_covert::attack::experiments::run_resilience_sweep;

    let bits = 24;
    let serial = run_resilience_sweep(&SweepPlan::new(testbed::SEED, 2).threads(1), bits).unwrap();
    assert_eq!(serial.len(), 2);
    for threads in [2usize, 8] {
        let parallel =
            run_resilience_sweep(&SweepPlan::new(testbed::SEED, 2).threads(threads), bits).unwrap();
        assert_eq!(serial, parallel, "{threads} threads diverged from serial");
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
    // Each session's result must match its standalone replay: the sweep
    // adds scheduling, never state.
    for (spec, result) in &serial {
        let replay = mee_covert::attack::experiments::run_resilience(spec.seed, bits).unwrap();
        assert_eq!(
            *result, replay,
            "session {} diverged from replay",
            spec.index
        );
    }
}
