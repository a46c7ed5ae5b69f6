//! Cross-crate tests of the observability layer (`mee-obs`) as threaded
//! through the machine, engine, fault injector, and channel: metrics must
//! reconcile exactly with the engine's own counters, a traced session
//! must cover every event category, and the bounded ring must degrade
//! deterministically when it overflows.

use std::collections::BTreeSet;

use mee_covert::attack::channel::{random_bits, ChannelConfig, Session};
use mee_covert::attack::experiments::session_fault_targets;
use mee_covert::attack::setup::AttackSetup;
use mee_covert::faults::{FaultInjector, FaultIntensity, FaultPlan};
use mee_covert::obs::{EventKind, MemOpKind};
use mee_covert::testbed;
use mee_covert::types::Cycles;

/// One traced covert-channel session under a light fault plan: the
/// full-stack fixture every test in this file dissects.
fn traced_session(seed: u64, capacity: usize) -> AttackSetup {
    let cfg = ChannelConfig::sweep_setup();
    let mut setup = AttackSetup::new(seed).unwrap();
    setup.machine.enable_tracing(capacity);
    let session = Session::establish(&mut setup, &cfg).unwrap();
    let targets = session_fault_targets(&setup, &session).unwrap();
    let now = setup.machine.core_now(session.sender.core);
    let payload = random_bits(64, seed);
    let span = Cycles::new(payload.len() as u64 * cfg.window.raw() * 4 + 2_000_000);
    let plan = FaultPlan::generate(FaultIntensity::Light, &targets, now, span, seed);
    let mut injector = FaultInjector::new(plan);
    let _ = session
        .transmit_hooked(&mut setup, &payload, &mut [], &mut injector)
        .unwrap();
    assert!(!injector.applied().is_empty(), "fault plan never fired");
    setup
}

/// Tracing enabled before the first op ⇒ the registry's per-core MEE-hit
/// histograms, summed, equal the engine's end-of-run walk statistics
/// *exactly* — not approximately. Any drift means a walk was observed by
/// one bookkeeper and not the other.
#[test]
fn metrics_reconcile_exactly_with_engine_stats() {
    let setup = traced_session(testbed::SEED, 1 << 20);
    let machine = &setup.machine;
    let metrics = machine.obs().metrics.as_ref().unwrap();
    let stats = machine.mee().stats();
    assert_eq!(
        metrics.mee_hits_total(),
        stats.hits_by_level,
        "traced walk histogram diverged from the engine's own counters"
    );
    let walks: u64 = stats.hits_by_level.iter().sum();
    assert!(walks > 0, "session performed no protected walks");

    // The per-set walk counters partition the same population.
    let set_walks: u64 = metrics.mee_set_walks().iter().sum();
    assert_eq!(set_walks, walks, "per-set walk counters lost walks");
}

/// A full session's trace covers all four event categories: memory ops,
/// integrity-tree steps, fault firings, and channel phase markers.
#[test]
fn traced_session_covers_all_four_categories() {
    let setup = traced_session(testbed::SEED, 1 << 20);
    let events = setup.machine.obs().events();
    let categories: BTreeSet<&'static str> = events.iter().map(|e| e.kind.category()).collect();
    for want in ["memory", "tree", "fault", "channel"] {
        assert!(
            categories.contains(want),
            "missing {want:?} in {categories:?}"
        );
    }
    // The log is in recording order, not timestamp order (a memory op's
    // completion event is stamped at issue time but recorded after the
    // walk steps it caused), so order is asserted by the byte-identity
    // tests in determinism.rs, not by timestamp monotonicity here.
    // Both channel roles show up as memory traffic.
    let op_cores: BTreeSet<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::MemOp { core, op, .. } if op != MemOpKind::Clflush => Some(core),
            _ => None,
        })
        .collect();
    assert!(
        op_cores.len() >= 2,
        "expected traffic from both cores, got {op_cores:?}"
    );
}

/// An undersized ring drops the *oldest* events, counts what it dropped,
/// and retains a deterministic suffix — the same suffix a full-capacity
/// trace ends with.
#[test]
fn bounded_ring_drops_oldest_and_keeps_a_deterministic_suffix() {
    let full = traced_session(testbed::SEED, 1 << 20);
    let small = traced_session(testbed::SEED, 4096);

    let full_ring = full.machine.obs().ring().unwrap();
    let small_ring = small.machine.obs().ring().unwrap();
    assert_eq!(full_ring.dropped(), 0, "the reference ring must not wrap");
    let total = full.machine.obs().events().len();
    assert!(total > 4096, "fixture too small to overflow the 4096 ring");
    assert_eq!(
        small_ring.dropped() as usize,
        total - 4096,
        "drop counter must account for every overwritten event"
    );

    let tail = &full.machine.obs().events()[total - 4096..];
    assert_eq!(
        small.machine.obs().events(),
        tail,
        "undersized ring must retain exactly the newest events"
    );
}

/// Disabling tracing detaches the sink mid-run: later ops record nothing,
/// and the machine reports itself untraced.
#[test]
fn disable_tracing_stops_recording() {
    let mut setup = traced_session(testbed::SEED, 1 << 20);
    assert!(setup.machine.obs().is_enabled());
    setup.machine.disable_tracing();
    assert!(!setup.machine.obs().is_enabled());
    assert!(setup.machine.obs().events().is_empty());
    assert!(setup.machine.obs().metrics.is_none());
}

/// Every channel transmits through the one windowed runner, so each marks
/// its transmission exactly once with the `transmit_start` /
/// `transmit_end` phases, decodes one bit per sent bit, and reports the
/// agreed windows plus the prime window as its elapsed time.
#[test]
fn every_channel_marks_its_transmission() {
    use mee_covert::attack::channel::llc::LlcSession;
    use mee_covert::attack::channel::prime_probe::PrimeProbeSession;
    use mee_covert::attack::channel::{alternating_bits, TransmitOutcome, WideSession};

    fn check(
        label: &str,
        setup: &AttackSetup,
        bits: &[bool],
        out: &TransmitOutcome,
        window: Cycles,
        windows: usize,
    ) {
        let phases = |wanted: &str| {
            setup
                .machine
                .obs()
                .events()
                .iter()
                .filter(|e| matches!(e.kind, EventKind::Phase { name, .. } if name == wanted))
                .count()
        };
        assert_eq!(
            phases("transmit_start"),
            1,
            "{label}: transmit_start phases"
        );
        assert_eq!(phases("transmit_end"), 1, "{label}: transmit_end phases");
        assert_eq!(out.received.len(), bits.len(), "{label}: decoded bit count");
        assert_eq!(
            out.elapsed,
            window * (windows as u64 + 1),
            "{label}: elapsed"
        );
    }

    let seed = testbed::SEED;
    let cfg = ChannelConfig::sweep_setup();
    let bits = alternating_bits(15);
    let traced = || {
        let mut setup = AttackSetup::new(seed).unwrap();
        setup.machine.enable_tracing(1 << 20);
        setup
    };

    let mut setup = traced();
    let session = Session::establish(&mut setup, &cfg).unwrap();
    let out = session.transmit(&mut setup, &bits).unwrap();
    check("session", &setup, &bits, &out, cfg.window, bits.len());

    let mut setup = traced();
    let pp = PrimeProbeSession::establish(&mut setup, &cfg).unwrap();
    let out = pp.transmit(&mut setup, &bits).unwrap();
    check("prime_probe", &setup, &bits, &out, cfg.window, bits.len());

    let mut setup = traced();
    let llc = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
    let out = llc.transmit(&mut setup, &bits).unwrap();
    check("llc", &setup, &bits, &out, llc.window, bits.len());

    // Two lanes carry the 15 bits as 8 symbols, the last one padded.
    let mut setup = traced();
    let wide = WideSession::establish(&mut setup, &cfg, 2).unwrap();
    let out = wide.transmit(&mut setup, &bits).unwrap();
    check("wide", &setup, &bits, &out, wide.window, 8);
}
