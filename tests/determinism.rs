//! Determinism regression tests: one `u64` seed must reproduce every
//! simulation bit for bit. This is a correctness requirement for the
//! reproduction — the paper's headline numbers (~35 KBps at 1.7% error)
//! are only comparable across machines and commits if same-seed runs are
//! identical.

use mee_covert::attack::channel::{random_bits, ChannelConfig, Session};
use mee_covert::attack::setup::AttackSetup;
use mee_covert::machine::CoreId;

/// Everything observable about one end-to-end channel session.
#[derive(Debug, PartialEq)]
struct SessionTrace {
    received: Vec<bool>,
    /// Final clock of every core, in cycles.
    core_clocks: Vec<u64>,
    elapsed_cycles: u64,
}

fn run_session(seed: u64) -> SessionTrace {
    run_session_traced(seed, None).0
}

/// Runs one end-to-end session, optionally with an event ring of the
/// given capacity enabled before the first memory op. Returns the
/// observable transcript plus the captured event log (empty when
/// untraced).
fn run_session_traced(seed: u64, trace_capacity: Option<usize>) -> (SessionTrace, String) {
    let mut setup = AttackSetup::new(seed).unwrap();
    if let Some(capacity) = trace_capacity {
        setup.machine.enable_tracing(capacity);
    }
    let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
    let payload = random_bits(256, seed);
    let out = session.transmit(&mut setup, &payload).unwrap();
    let cores = setup.machine.config().cores;
    let trace = SessionTrace {
        received: out.received,
        core_clocks: (0..cores)
            .map(|c| setup.machine.core_now(CoreId::new(c)).raw())
            .collect(),
        elapsed_cycles: out.elapsed.raw(),
    };
    (trace, setup.machine.obs().event_log())
}

/// The same end-to-end session, run twice with the same seed, produces a
/// byte-identical received payload and identical cycle counts.
#[test]
fn same_seed_sessions_are_bit_identical() {
    let first = run_session(2019);
    let second = run_session(2019);
    assert_eq!(first, second);
}

/// Different seeds must actually change the simulation (otherwise the
/// test above would pass vacuously on a seed-ignoring implementation).
#[test]
fn different_seeds_produce_different_traces() {
    let a = run_session(2019);
    let b = run_session(2020);
    assert_ne!(
        a.core_clocks, b.core_clocks,
        "seed change did not perturb the machine at all"
    );
}

/// Tracing is an observer, never a participant: the same seed run with
/// the event ring enabled and disabled must produce bit-identical session
/// outcomes (received bits, per-core clocks, elapsed cycles).
#[test]
fn tracing_on_and_off_sessions_are_bit_identical() {
    let (untraced, empty_log) = run_session_traced(2019, None);
    let (traced, log) = run_session_traced(2019, Some(1 << 20));
    assert_eq!(
        untraced, traced,
        "enabling tracing perturbed the simulation"
    );
    assert_eq!(empty_log, "", "untraced session captured events");
    assert!(!log.is_empty(), "traced session captured nothing");
}

/// Same seed ⇒ byte-identical event log: every event, in order, with
/// identical sim-cycle stamps and payloads. The log is part of the
/// deterministic surface, exactly like the transcript.
#[test]
fn same_seed_event_logs_are_byte_identical() {
    let (trace_a, log_a) = run_session_traced(2019, Some(1 << 20));
    let (trace_b, log_b) = run_session_traced(2019, Some(1 << 20));
    assert_eq!(trace_a, trace_b);
    assert_eq!(log_a, log_b, "same-seed event logs diverged");
    // The log must be substantial for the byte-comparison to be a real
    // claim (an always-empty log would pass vacuously).
    assert!(
        log_a.lines().count() > 1_000,
        "suspiciously small event log"
    );
}

/// A faulted session trace: the transcript plus the exact fault events
/// that fired, so determinism covers the injector too.
#[derive(Debug, PartialEq)]
struct FaultedTrace {
    received: Vec<bool>,
    core_clocks: Vec<u64>,
    applied: String,
}

fn run_faulted_session(seed: u64) -> FaultedTrace {
    use mee_covert::attack::experiments::session_fault_targets;
    use mee_covert::faults::{FaultInjector, FaultIntensity, FaultPlan};
    use mee_covert::types::Cycles;

    let cfg = ChannelConfig::sweep_setup();
    let mut setup = AttackSetup::new(seed).unwrap();
    let session = Session::establish(&mut setup, &cfg).unwrap();
    let targets = session_fault_targets(&setup, &session).unwrap();
    let now = setup.machine.core_now(session.sender.core);
    let payload = random_bits(96, seed);
    let span = Cycles::new(payload.len() as u64 * cfg.window.raw() * 4 + 2_000_000);
    let plan = FaultPlan::generate(FaultIntensity::Heavy, &targets, now, span, seed);
    let mut injector = FaultInjector::new(plan);
    let out = session
        .transmit_hooked(&mut setup, &payload, &mut [], &mut injector)
        .unwrap();
    let cores = setup.machine.config().cores;
    FaultedTrace {
        received: out.received,
        core_clocks: (0..cores)
            .map(|c| setup.machine.core_now(CoreId::new(c)).raw())
            .collect(),
        applied: format!("{:?}", injector.applied()),
    }
}

/// Same seed + same fault plan ⇒ bit-identical transcript, clocks, and
/// fired-event log, even under the heavy storm (preemptions, migrations,
/// clock drift, MEE thrashing). Faults are part of the simulation, not a
/// source of nondeterminism.
#[test]
fn same_seed_faulted_sessions_are_bit_identical() {
    let first = run_faulted_session(2019);
    let second = run_faulted_session(2019);
    assert_eq!(first, second);
    // The storm must actually have fired for the claim to mean anything.
    assert!(first.applied.len() > 2, "no fault events applied");
}
