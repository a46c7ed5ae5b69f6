//! The sweep runner's core guarantee, proven at the workspace level on
//! real channel sessions: a parallel sweep is **byte-identical** to the
//! serial run, for any worker count.
//!
//! (The `mee-sweep` crate proves the same for plain closures across many
//! thread counts, plus the wall-clock smoke check; this test closes the
//! loop over an actual establish-and-transmit pipeline where each session
//! owns a full simulated machine.)

use mee_covert::attack::channel::ChannelConfig;
use mee_covert::attack::experiments::{channel_point, run_resilience};
use mee_covert::sweep::Sweep;
use mee_covert::testbed;

#[test]
fn parallel_channel_sweep_is_byte_identical_to_serial() {
    let cfg = ChannelConfig::sweep_setup();
    let run = |sweep: Sweep| {
        sweep
            .try_seed_sweep(testbed::SEED, 3, |spec| channel_point(spec.seed, &cfg, 8))
            .unwrap()
    };
    let serial = run(Sweep::serial());
    assert_eq!(serial.len(), 3);
    // 2 threads over 3 sessions forces an uneven schedule; 8 threads
    // oversubscribes (more workers than sessions *and* likely more than
    // the host has cores).
    for threads in [2usize, 8] {
        let parallel = run(Sweep::with_threads(threads));
        assert_eq!(serial, parallel, "{threads} threads diverged from serial");
        // Belt and braces for the "byte-identical" claim: the full debug
        // rendering (every field, f64s included) matches character for
        // character.
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
    // Session seeds follow the published convention, so any session can be
    // replayed standalone from its sweep record.
    for (index, point) in serial.iter().enumerate() {
        assert_eq!(
            point.seed,
            mee_covert::rng::stream_seed(testbed::SEED, index as u64)
        );
    }
    assert_eq!(channel_point(serial[2].seed, &cfg, 8).unwrap(), serial[2]);
}

/// The resilience sweep — whose sessions replay seed-derived fault plans,
/// retransmit, and widen their windows — is just as schedule-independent
/// as the clean channel sweep: parallel runs are byte-identical to serial.
#[test]
fn parallel_resilience_sweep_is_byte_identical_to_serial() {
    let bits = 24;
    let run = |sweep: Sweep| {
        sweep
            .try_seed_sweep(testbed::SEED, 2, |spec| {
                run_resilience(spec.seed, bits).map(|r| (spec, r))
            })
            .unwrap()
    };
    let serial = run(Sweep::serial());
    assert_eq!(serial.len(), 2);
    for threads in [2usize, 8] {
        let parallel = run(Sweep::with_threads(threads));
        assert_eq!(serial, parallel, "{threads} threads diverged from serial");
        assert_eq!(format!("{serial:?}"), format!("{parallel:?}"));
    }
    // Each session's result must match its standalone replay: the sweep
    // adds scheduling, never state.
    for (spec, result) in &serial {
        let replay = run_resilience(spec.seed, bits).unwrap();
        assert_eq!(
            *result, replay,
            "session {} diverged from replay",
            spec.index
        );
    }
}
