//! The differential gate for the event-driven scheduler core: the
//! cycle-stepped and event-driven engines must be *bit-identical* on every
//! observable — per-op latencies, loaded values, MEE hit levels, final
//! MEE/LLC statistics, decoded channel bits, and fault replays.
//!
//! Three tiers of evidence, cheapest first:
//!
//! * seeded random instruction traces through the [`DifferentialOracle`]
//!   (`MEE_PROP_CASES` raises the count, `MEE_PROP_SEED` replays one case
//!   from a failure's one-line recipe);
//! * the paper-shaped traces — the figure-5 ladder walk and the figure-6
//!   covert exchange — through the same oracle;
//! * full scheduler-driven sessions (establish + transmit, with and
//!   without a fault plan — the resilience shape), where the engines
//!   actually take different code paths and the event queue's lazy
//!   invalidation is exercised by preemptions overriding queued wake-ups.

use mee_covert::attack::channel::{random_bits, ChannelConfig, Session};
use mee_covert::attack::recon::eviction::find_eviction_set;
use mee_covert::attack::setup::AttackSetup;
use mee_covert::attack::threshold::LatencyClassifier;
use mee_covert::cache::CacheStats;
use mee_covert::engine::MeeStats;
use mee_covert::faults::{FaultInjector, FaultIntensity, FaultPlan, FaultTargets};
use mee_covert::machine::{EngineKind, Machine, MachineConfig, PolicyKind, ProcId};
use mee_covert::mem::AddressSpaceKind;
use mee_covert::rng::prop::{check, PropConfig};
use mee_covert::rng::{stream_seed, Rng};
use mee_covert::spec::machine_spec::tiny_config;
use mee_covert::spec::oracle::{
    covert_exchange_trace, decode_exchange, OpKind, OracleOp, SPY_BASE, TROJAN_BASE,
};
use mee_covert::spec::DifferentialOracle;
use mee_covert::testbed;
use mee_covert::types::{Cycles, ModelError, VirtAddr};

/// The oracle's two-enclave machine (2-set × 2-way MEE cache), pinned to
/// one scheduler core.
fn tiny_machine(engine: EngineKind) -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut m = Machine::new(tiny_config(PolicyKind::TreePlru).with_engine(engine))?;
    let spy = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(spy, VirtAddr::new(SPY_BASE), 2)?;
    let trojan = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(trojan, VirtAddr::new(TROJAN_BASE), 2)?;
    Ok((m, vec![spy, trojan]))
}

type MachineBuilder = fn() -> Result<(Machine, Vec<ProcId>), ModelError>;

fn build_cycle_stepped() -> Result<(Machine, Vec<ProcId>), ModelError> {
    tiny_machine(EngineKind::CycleStepped)
}

fn build_event_driven() -> Result<(Machine, Vec<ProcId>), ModelError> {
    tiny_machine(EngineKind::EventDriven)
}

/// Cycle-stepped as side A, event-driven as side B.
fn engines_oracle() -> DifferentialOracle<MachineBuilder, MachineBuilder> {
    DifferentialOracle::new(
        build_cycle_stepped as MachineBuilder,
        build_event_driven as MachineBuilder,
    )
}

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

#[test]
fn random_traces_diff_empty_across_engines() {
    // ≥32 seeded cases by default; every failure prints a replay recipe.
    check(
        "engine_equivalence::random_traces",
        &PropConfig::from_env(32),
        |rng| {
            let trace = random_trace(rng);
            let diff = engines_oracle().run(&trace).expect("both engines build");
            assert!(diff.is_empty(), "engines diverged:\n{diff}");
        },
    );
}

#[test]
fn fig5_shaped_ladder_trace_diff_empty() {
    // The figure-5 shape: flush-and-reload probes of one monitor line
    // while a widening working set pushes its walk footprint down the
    // integrity-tree ladder, so successive probes stop at deeper levels.
    let mut trace = vec![OracleOp::read(0, 0, SPY_BASE)];
    for round in 0..6u64 {
        for off in 0..(3 * round) {
            let line = TROJAN_BASE + 512 * (off % 16);
            trace.push(OracleOp::clflush(1, 1, line));
            trace.push(OracleOp::read(1, 1, line));
        }
        trace.push(OracleOp::clflush(0, 0, SPY_BASE));
        trace.push(OracleOp {
            core: 0,
            proc: 0,
            kind: OpKind::Mfence,
        });
        trace.push(OracleOp::read(0, 0, SPY_BASE));
    }
    let diff = engines_oracle().run(&trace).expect("both engines build");
    assert!(diff.is_empty(), "fig5 ladder shape diverged:\n{diff}");
}

#[test]
fn fig6_shaped_covert_exchange_diff_empty_and_decodes_identically() {
    let bits = random_bits(16, testbed::SEED);
    let exchange = covert_exchange_trace(&bits);
    let oracle = engines_oracle();
    let diff = oracle.run(&exchange.trace).expect("both engines build");
    assert!(diff.is_empty(), "fig6 exchange shape diverged:\n{diff}");

    let a = oracle.transcript_a(&exchange.trace).unwrap();
    let b = oracle.transcript_b(&exchange.trace).unwrap();
    assert_eq!(
        decode_exchange(&a, &exchange),
        decode_exchange(&b, &exchange),
        "same transcripts must decode to the same bits"
    );
}

/// The oracle machine with more mapped pages — room for an
/// establishment-shaped candidate ladder (4 pages per enclave).
fn ladder_machine(engine: EngineKind) -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut m = Machine::new(tiny_config(PolicyKind::TreePlru).with_engine(engine))?;
    let spy = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(spy, VirtAddr::new(SPY_BASE), 4)?;
    let trojan = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(trojan, VirtAddr::new(TROJAN_BASE), 4)?;
    Ok((m, vec![spy, trojan]))
}

/// [`ladder_machine`] with the translation memo disabled — the machine the
/// memoised one must be indistinguishable from.
fn ladder_machine_no_memo(engine: EngineKind) -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut cfg = tiny_config(PolicyKind::TreePlru).with_engine(engine);
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
        trace.push(OracleOp::clflush(0, 0, SPY_BASE + 512 * u64::from(set_size)));
    }
    trace
}

#[test]
fn establishment_ladder_diff_empty_across_engines() {
    let oracle: DifferentialOracle<MachineBuilder, MachineBuilder> = DifferentialOracle::new(
        (|| ladder_machine(EngineKind::CycleStepped)) as MachineBuilder,
        (|| ladder_machine(EngineKind::EventDriven)) as MachineBuilder,
    );
    let diff = oracle
        .run(&establishment_ladder_trace())
        .expect("both engines build");
    assert!(diff.is_empty(), "establishment ladder diverged:\n{diff}");
}

#[test]
fn translation_memo_diff_empty_on_establishment_ladder() {
    // Same engine, memo on vs off: translation is timing-free, so the
    // transcripts must be empty-diff — the tentpole's core claim.
    for engine in [EngineKind::CycleStepped, EngineKind::EventDriven] {
        let oracle: DifferentialOracle<_, _> = DifferentialOracle::new(
            move || ladder_machine(engine),
            move || ladder_machine_no_memo(engine),
        );
        let diff = oracle
            .run(&establishment_ladder_trace())
            .expect("both machines build");
        assert!(diff.is_empty(), "memo on/off diverged ({engine:?}):\n{diff}");
        let trace = {
            let mut rng = Rng::seed_from_u64(testbed::SEED ^ 0x7b0);
            random_trace(&mut rng)
        };
        let diff = oracle.run(&trace).expect("both machines build");
        assert!(diff.is_empty(), "memo on/off diverged on random trace:\n{diff}");
    }
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
    let split_trace: Vec<OracleOp> = sweep_trace.iter().flat_map(|op| op.expand_sweep()).collect();
    for engine in [EngineKind::CycleStepped, EngineKind::EventDriven] {
        let (mut ma, procs_a) = ladder_machine(engine).expect("build");
        let (mut mb, procs_b) = ladder_machine(engine).expect("build");
        let ta = run_trace(&mut ma, &procs_a, &sweep_trace);
        let tb = run_trace(&mut mb, &procs_b, &split_trace);
        let total = |t: &mee_covert::spec::oracle::Transcript| -> u64 {
            t.records.iter().map(|r| r.latency).sum()
        };
        assert_eq!(total(&ta), total(&tb), "total latency diverged ({engine:?})");
        assert_eq!(ta.mee_stats, tb.mee_stats, "MEE stats diverged ({engine:?})");
        assert_eq!(ta.llc_stats, tb.llc_stats, "LLC stats diverged ({engine:?})");
        assert_eq!(ta.mee_resident, tb.mee_resident, "MEE residency diverged");
        for c in 0..ma.core_count() {
            let id = mee_covert::machine::CoreId::new(c);
            assert_eq!(
                ma.core_now(id),
                mb.core_now(id),
                "core {c} clock diverged ({engine:?})"
            );
        }
        assert!(
            ta.records.iter().all(|r| r.error.is_none()),
            "sweep trace errored"
        );
    }
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

fn run_session(
    engine: EngineKind,
    plan: Option<&FaultPlan>,
    bits: &[bool],
) -> (SessionFingerprint, Vec<Cycles>) {
    let cfg = MachineConfig::default().with_engine(engine);
    let mut setup = AttackSetup::with_config(cfg, testbed::SEED).expect("setup");
    let session = Session::establish(&mut setup, &ChannelConfig::sweep_setup()).expect("establish");
    let (outcome, fired) = match plan {
        None => (session.transmit(&mut setup, bits).expect("transmit"), Vec::new()),
        Some(plan) => {
            let mut injector = FaultInjector::new(plan.clone());
            let outcome = session
                .transmit_hooked(&mut setup, bits, &mut [], &mut injector)
                .expect("faulted transmit");
            (outcome, injector.applied().iter().map(|e| e.at).collect())
        }
    };
    let final_clocks = (0..setup.machine.core_count())
        .map(|c| setup.machine.core_now(mee_covert::machine::CoreId::new(c)).raw())
        .collect();
    let fp = SessionFingerprint {
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
    };
    (fp, fired)
}

#[test]
fn full_session_bit_identical_across_engines() {
    let bits = random_bits(24, testbed::SEED ^ 0x5e55);
    let (a, _) = run_session(EngineKind::CycleStepped, None, &bits);
    let (b, _) = run_session(EngineKind::EventDriven, None, &bits);
    assert_eq!(a, b, "clean session diverged across engines");
}

#[test]
fn faulted_session_bit_identical_across_engines() {
    // The resilience shape: a light fault plan (preemption bursts, clock
    // drift, MEE flushes) riding on the transmission. Preemptions move a
    // core's clock while its wake-up is queued — the event engine's
    // cancel/reschedule path — and the injector's `At` schedule must fire
    // each fault before the exact same step as the every-step baseline.
    let bits = random_bits(24, testbed::SEED ^ 0xfa51);
    let targets = FaultTargets::cores(
        mee_covert::machine::CoreId::new(0),
        mee_covert::machine::CoreId::new(1),
    );
    let plan = FaultPlan::generate(
        FaultIntensity::Light,
        &targets,
        Cycles::new(200_000),
        Cycles::new(2_000_000),
        testbed::SEED,
    );
    assert!(!plan.is_empty(), "light plan should carry events");
    let (a, fired_a) = run_session(EngineKind::CycleStepped, Some(&plan), &bits);
    let (b, fired_b) = run_session(EngineKind::EventDriven, Some(&plan), &bits);
    assert_eq!(fired_a, fired_b, "fault replay diverged across engines");
    assert!(!fired_a.is_empty(), "plan should actually fire during transmit");
    assert_eq!(a, b, "faulted session diverged across engines");
}
