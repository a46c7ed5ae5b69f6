//! The differential tier for the scheduler's one remaining choice, the
//! hook schedule, and for the host-speed shortcuts that must not change a
//! simulation.
//!
//! * Full scheduler-driven sessions (establish + transmit, clean and under
//!   a light fault plan — the resilience shape) run with a hook's own
//!   `HookSchedule` and again with the same hook wrapped in
//!   [`EveryStep`], which has it called before every step. The two must be
//!   bit-identical: a narrowed schedule may only skip no-op calls.
//! * The translation memo on vs off, through the [`DifferentialOracle`] on
//!   the establishment ladder and ≥32 seeded random traces
//!   (`MEE_PROP_CASES` raises the count, `MEE_PROP_SEED` replays one case
//!   from a failure's one-line recipe), and on whole Algorithm 1
//!   establishments.
//! * The batched establishment sweep vs its per-op expansion.

use mee_covert::attack::channel::{random_bits, ChannelConfig, Session};
use mee_covert::attack::recon::eviction::find_eviction_set;
use mee_covert::attack::setup::AttackSetup;
use mee_covert::attack::threshold::LatencyClassifier;
use mee_covert::cache::CacheStats;
use mee_covert::engine::MeeStats;
use mee_covert::faults::{FaultInjector, FaultIntensity, FaultPlan, FaultTargets};
use mee_covert::machine::{CoreId, Machine, MachineConfig, NoopHook, PolicyKind, ProcId, StepHook};
use mee_covert::mem::AddressSpaceKind;
use mee_covert::rng::prop::{check, PropConfig};
use mee_covert::rng::{stream_seed, Rng};
use mee_covert::spec::machine_spec::tiny_config;
use mee_covert::spec::oracle::{OpKind, OracleOp, SPY_BASE, TROJAN_BASE};
use mee_covert::spec::DifferentialOracle;
use mee_covert::testbed;
use mee_covert::types::{Cycles, ModelError, VirtAddr};

/// A random instruction trace over both enclaves' pages: mostly reads and
/// flushes (the attack's vocabulary), some writes, fences, and idle spins.
fn random_trace(rng: &mut Rng) -> Vec<OracleOp> {
    let len = rng.random_range(20usize..120);
    let mut ops = Vec::with_capacity(len);
    for _ in 0..len {
        let core = rng.random_range(0usize..2);
        let proc = rng.random_range(0usize..2);
        let base = if proc == 0 { SPY_BASE } else { TROJAN_BASE };
        // Two mapped pages per enclave = 128 cache lines to aim at.
        let va = base + 64 * rng.random_range(0u64..128);
        ops.push(match rng.random_range(0u32..8) {
            0..=3 => OracleOp::read(core, proc, va),
            4 => OracleOp::write(core, proc, va, rng.random()),
            5 | 6 => OracleOp::clflush(core, proc, va),
            _ if rng.random() => OracleOp {
                core,
                proc,
                kind: OpKind::Mfence,
            },
            _ => OracleOp::advance(core, rng.random_range(100u64..5_000)),
        });
    }
    ops
}

/// The oracle machine with more mapped pages — room for an
/// establishment-shaped candidate ladder (4 pages per enclave).
fn ladder_machine() -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut m = Machine::new(tiny_config(PolicyKind::TreePlru))?;
    let spy = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(spy, VirtAddr::new(SPY_BASE), 4)?;
    let trojan = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(trojan, VirtAddr::new(TROJAN_BASE), 4)?;
    Ok((m, vec![spy, trojan]))
}

/// [`ladder_machine`] with the translation memo disabled — the machine the
/// memoised one must be indistinguishable from.
fn ladder_machine_no_memo() -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut cfg = tiny_config(PolicyKind::TreePlru);
    cfg.tlb_entries = 0;
    let mut m = Machine::new(cfg)?;
    let spy = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(spy, VirtAddr::new(SPY_BASE), 4)?;
    let trojan = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(trojan, VirtAddr::new(TROJAN_BASE), 4)?;
    Ok((m, vec![spy, trojan]))
}

/// The establishment shape of Algorithm 1's eviction-test ladder: the
/// trojan victim-primes an address, sweeps a growing candidate set through
/// the batched forward and backward passes, then re-times the victim —
/// while the spy intersperses probes of its own monitor line. Exercises
/// exactly the op mix the establishment phase issues (batched sweeps,
/// victim read/flush pairs, fences).
fn establishment_ladder_trace() -> Vec<mee_covert::spec::oracle::OracleOp> {
    let mfence = |core: usize, proc: usize| OracleOp {
        core,
        proc,
        kind: OpKind::Mfence,
    };
    let mut trace = Vec::new();
    for set_size in 1..=4u16 {
        let victim = TROJAN_BASE + 4096 * 3 + 512;
        // access victim; flush victim.
        trace.push(OracleOp::read(1, 1, victim));
        trace.push(OracleOp::clflush(1, 1, victim));
        trace.push(mfence(1, 1));
        // Two-phase sweep over the candidate set (§5.3 shape).
        trace.push(OracleOp::sweep(1, 1, TROJAN_BASE, set_size));
        trace.push(mfence(1, 1));
        trace.push(OracleOp::sweep_rev(1, 1, TROJAN_BASE, set_size));
        trace.push(mfence(1, 1));
        // Re-time the victim; flush it for the next round.
        trace.push(OracleOp::read(1, 1, victim));
        trace.push(OracleOp::clflush(1, 1, victim));
        // Spy activity riding along on the other core.
        trace.push(OracleOp::read(0, 0, SPY_BASE + 512 * u64::from(set_size)));
        trace.push(OracleOp::clflush(
            0,
            0,
            SPY_BASE + 512 * u64::from(set_size),
        ));
    }
    trace
}

#[test]
fn translation_memo_diff_empty_on_establishment_ladder() {
    // Memo on vs off: translation is timing-free, so the transcripts must
    // be empty-diff, on the establishment ladder and on random traces.
    let oracle = DifferentialOracle::new(ladder_machine, ladder_machine_no_memo);
    let diff = oracle
        .run(&establishment_ladder_trace())
        .expect("both machines build");
    assert!(diff.is_empty(), "memo on/off diverged:\n{diff}");
    check(
        "engine_equivalence::memo_random_traces",
        &PropConfig::from_env(32),
        |rng| {
            let diff = oracle.run(&random_trace(rng)).expect("both machines build");
            assert!(
                diff.is_empty(),
                "memo on/off diverged on random trace:\n{diff}"
            );
        },
    );
}

/// Everything the translation memo must not change about one whole
/// Algorithm 1 establishment: the discovered set, the simulated clock it
/// cost, and the MEE cache's end-of-run statistics.
#[derive(Debug, PartialEq)]
struct EstablishmentFingerprint {
    eviction_set: Vec<VirtAddr>,
    test_address: VirtAddr,
    index_set_size: usize,
    final_clock: Cycles,
    mee_stats: MeeStats,
}

fn establish_fingerprint(cfg: MachineConfig, seed: u64) -> EstablishmentFingerprint {
    let mut setup = AttackSetup::with_config(cfg, seed).expect("setup");
    let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
    let candidates = setup.trojan.candidates(160, 0);
    let trojan_core = setup.trojan.core;
    let mut cpu = setup.trojan_handle();
    let result = find_eviction_set(&mut cpu, &candidates, &classifier, 3).expect("algorithm 1");
    EstablishmentFingerprint {
        eviction_set: result.eviction_set,
        test_address: result.test_address,
        index_set_size: result.index_set_size,
        final_clock: setup.machine.core_now(trojan_core),
        mee_stats: setup.machine.mee().stats(),
    }
}

#[test]
fn translation_memo_leaves_whole_establishments_bit_identical() {
    // Algorithm 1 on the full-size noisy machine (160 candidates, 3-vote
    // majorities), memo on vs off, over four split seeds.
    for i in 0..4 {
        let seed = stream_seed(testbed::SEED, i);
        let memo_off = MachineConfig {
            tlb_entries: 0,
            ..MachineConfig::default()
        };
        assert_eq!(
            establish_fingerprint(MachineConfig::default(), seed),
            establish_fingerprint(memo_off, seed),
            "memo on/off diverged at seed {seed}"
        );
    }
}

#[test]
fn batched_sweep_matches_expanded_loop() {
    // The batched sweep vs its per-op expansion, on identically built
    // machines: end state (stats, MEE residency, core clocks) and total
    // charged latency must agree exactly. Per-record diffing does not
    // apply — one sweep record carries a whole loop's latency — so the
    // comparison is on everything that survives the trace.
    use mee_covert::spec::oracle::run_trace;
    let sweep_trace = establishment_ladder_trace();
    let split_trace: Vec<OracleOp> = sweep_trace
        .iter()
        .flat_map(|op| op.expand_sweep())
        .collect();
    let (mut ma, procs_a) = ladder_machine().expect("build");
    let (mut mb, procs_b) = ladder_machine().expect("build");
    let ta = run_trace(&mut ma, &procs_a, &sweep_trace);
    let tb = run_trace(&mut mb, &procs_b, &split_trace);
    let total = |t: &mee_covert::spec::oracle::Transcript| -> u64 {
        t.records.iter().map(|r| r.latency).sum()
    };
    assert_eq!(total(&ta), total(&tb), "total latency diverged");
    assert_eq!(ta.mee_stats, tb.mee_stats, "MEE stats diverged");
    assert_eq!(ta.llc_stats, tb.llc_stats, "LLC stats diverged");
    assert_eq!(ta.mee_resident, tb.mee_resident, "MEE residency diverged");
    for c in 0..ma.core_count() {
        let id = CoreId::new(c);
        assert_eq!(ma.core_now(id), mb.core_now(id), "core {c} clock diverged");
    }
    assert!(
        ta.records.iter().all(|r| r.error.is_none()),
        "sweep trace errored"
    );
}

/// Everything observable about a full scheduler-driven session.
#[derive(Debug, Clone, PartialEq)]
struct SessionFingerprint {
    eviction_set: Vec<VirtAddr>,
    monitor: VirtAddr,
    sent: Vec<bool>,
    received: Vec<bool>,
    probe_times: Vec<Cycles>,
    one_costs: Vec<Cycles>,
    elapsed: Cycles,
    final_clocks: Vec<u64>,
    mee_stats: MeeStats,
    llc_stats: CacheStats,
}

/// Forwards to a hook but keeps the default `HookSchedule::EveryStep`,
/// so the scheduler calls it before every step — the reference a
/// narrowed schedule is held to.
struct EveryStep<H: StepHook>(H);

impl<H: StepHook> StepHook for EveryStep<H> {
    fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError> {
        self.0.before_step(machine, now)
    }
}

/// The seed-2019 figure-profile machine with an established channel.
fn establish() -> (AttackSetup, Session) {
    let mut setup =
        AttackSetup::with_config(MachineConfig::default(), testbed::SEED).expect("setup");
    let session = Session::establish(&mut setup, &ChannelConfig::sweep_setup()).expect("establish");
    (setup, session)
}

/// Sends `bits` with `hook` on the scheduler and fingerprints the result.
fn transmit(
    setup: &mut AttackSetup,
    session: &Session,
    bits: &[bool],
    hook: &mut dyn StepHook,
) -> SessionFingerprint {
    let outcome = session
        .transmit_hooked(setup, bits, &mut [], hook)
        .expect("transmit");
    let final_clocks = (0..setup.machine.core_count())
        .map(|c| setup.machine.core_now(CoreId::new(c)).raw())
        .collect();
    SessionFingerprint {
        eviction_set: session.eviction_set.clone(),
        monitor: session.monitor,
        sent: outcome.sent,
        received: outcome.received,
        probe_times: outcome.probe_times,
        one_costs: outcome.one_costs,
        elapsed: outcome.elapsed,
        final_clocks,
        mee_stats: setup.machine.mee().stats(),
        llc_stats: setup.machine.llc().stats(),
    }
}

#[test]
fn full_session_bit_identical_across_engines() {
    // `NoopHook` reports `Idle`, so the bare run never calls it.
    let bits = random_bits(24, testbed::SEED ^ 0x5e55);
    let (mut setup, session) = establish();
    let idle = transmit(&mut setup, &session, &bits, &mut NoopHook);
    let (mut setup, session) = establish();
    let every = transmit(&mut setup, &session, &bits, &mut EveryStep(NoopHook));
    assert_eq!(
        idle, every,
        "clean session diverged under an every-step hook"
    );
}

#[test]
fn faulted_session_bit_identical_across_engines() {
    // The resilience shape: a light fault plan (preemption bursts, clock
    // drift, MEE flushes) laid over the transmission itself, after
    // establishment. The injector's `At` schedule must fire each fault
    // before the exact step the every-step reference fires it at, so
    // preemptions land mid-run at the same point on both sides.
    let bits = random_bits(24, testbed::SEED ^ 0xfa51);
    let run = |every_step: bool| {
        let (mut setup, session) = establish();
        let (spy, trojan) = (session.receiver.core, session.sender.core);
        let start = setup
            .machine
            .core_now(spy)
            .max(setup.machine.core_now(trojan));
        let span = session.config.window * bits.len() as u64;
        let plan = FaultPlan::generate(
            FaultIntensity::Light,
            &FaultTargets::cores(spy, trojan),
            start,
            span,
            testbed::SEED,
        );
        assert!(!plan.is_empty(), "light plan should carry events");
        let mut injector = FaultInjector::new(plan);
        let fp = if every_step {
            let mut wrapped = EveryStep(injector);
            let fp = transmit(&mut setup, &session, &bits, &mut wrapped);
            injector = wrapped.0;
            fp
        } else {
            transmit(&mut setup, &session, &bits, &mut injector)
        };
        let fired: Vec<Cycles> = injector.applied().iter().map(|e| e.at).collect();
        (fp, start, fired)
    };
    let (scheduled, start, fired) = run(false);
    let (every, every_start, every_fired) = run(true);
    assert_eq!(start, every_start, "establishment diverged");
    assert!(
        !fired.is_empty(),
        "plan should actually fire during transmit"
    );
    assert!(
        fired.iter().all(|&at| at > start),
        "every fault must fall after establishment: {fired:?} vs start {start}"
    );
    assert_eq!(
        fired, every_fired,
        "fault replay diverged under an every-step hook"
    );
    assert_eq!(
        scheduled, every,
        "faulted session diverged under an every-step hook"
    );
}
