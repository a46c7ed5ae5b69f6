//! The traced run: per-layer work counts and host cost, measured from
//! outside the program.
//!
//! A traced run makes three kinds of pass over the same op list:
//!
//! 1. **untraced passes** time each op and read the program's own host
//!    spans (`transmit`, `robust_decode`, `actor_step_loop`) around it —
//!    the denominators every share below is taken against — and, after
//!    them, the process's peak resident memory;
//! 2. **establishment passes** time, for each machine seed, building a
//!    machine (`AttackSetup::new`), Algorithm 1 alone (`find_eviction_set`)
//!    on it, and a whole `Session::establish` on a second fresh machine,
//!    alternating so both minima come from the same stretch of host time
//!    and their difference is the monitor search;
//! 3. **traced passes** turn on `Machine::enable_tracing` before the first
//!    memory op, take each op's counter deltas, and replay the op's
//!    recorded traffic through fresh, production-configured layer objects:
//!    the LLC (`SetAssocCache::access`), the MEE (`Mee::read`), the
//!    integrity tree (`IntegrityTree::read_partial`) and DRAM
//!    (`DramModel::access`). The replay starts from the machine's first
//!    op, so each layer object walks through the same states the
//!    machine's did; a replayed hit or miss that disagrees with the
//!    recorded one is reported as a check failure.
//!
//! Host times fold over each phase's passes with the workload's estimator,
//! as in the untraced run.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mee_attack::channel::{ChannelConfig, Session};
use mee_attack::recon::eviction::find_eviction_set;
use mee_attack::setup::AttackSetup;
use mee_attack::threshold::LatencyClassifier;
use mee_cache::SetAssocCache;
use mee_engine::{Mee, MeeStats};
use mee_machine::{CoreId, Machine};
use mee_mem::DramModel;
use mee_obs::{Event, EventKind, MemOpKind, MetricsRegistry, ServedAt, WalkLevel};
use mee_tree::IntegrityTree;
use mee_types::{Cycles, LineAddr, VirtAddr, LINE_SIZE, PAGE_SIZE};

use crate::stats::per_op;
use crate::workload::{run_pass, Observer, OpList, OpOutcome, Pass, Workload};
use crate::Metric;

/// Event-ring capacity of a traced pass: room for the largest op (a whole
/// session, roughly half a million events) with headroom. An overflow
/// would make the replay incomplete, so it is a check failure.
const RING_EVENTS: usize = 1 << 21;

/// Fewest passes of each traced-run phase. One: a `session` pass of each
/// phase takes about a fifth of a 40 s budget, so a second one would
/// overrun it.
const MIN_PHASE_PASSES: usize = 1;

/// Share of the budget the untraced passes, then the establishment
/// passes, may use before the next phase starts.
const UNTRACED_SHARE: f64 = 0.4;
const ESTABLISH_SHARE: f64 = 0.55;

/// Every per-layer metric: name, unit, and the end-to-end metric it should
/// move (on the workload where its layer's share is largest).
#[rustfmt::skip]
pub const ROWS: &[(&str, &str, &str)] = &[
    ("attack.establish_ms", "ms", "session/op_ms_p50; transmit, hostile setup_s"),
    ("attack.algo1_ms", "ms", "session/op_ms_p50; transmit, hostile setup_s"),
    ("attack.monitor_search_ms", "ms", "session/op_ms_p50; transmit, hostile setup_s"),
    ("attack.transmit_ms", "ms", "transmit/op_ms_p50"),
    ("machine.build_ms", "ms", "session/ops_per_s; setup_s"),
    ("machine.mem_ops_per_op", "count", "session/ops_per_s"),
    ("machine.pair_ns", "ns", "session/ops_per_s"),
    ("machine.steps_per_op", "count", "transmit/op_ms_p50"),
    ("machine.step_ns", "ns", "transmit/op_ms_p50"),
    ("cache.llc_lookups_per_op", "count", "session/ops_per_s"),
    ("cache.hit_share.l1", "share", "session/ops_per_s"),
    ("cache.hit_share.l2", "share", "session/ops_per_s"),
    ("cache.hit_share.llc", "share", "session/ops_per_s"),
    ("cache.llc_access_ns", "ns", "session/ops_per_s"),
    ("engine.walks_per_op", "count", "session/ops_per_s"),
    ("engine.hit_share.versions", "share", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.hit_share.l0", "share", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.hit_share.l1", "share", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.hit_share.l2", "share", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.hit_share.root", "share", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.mee_cache_hit_rate", "share", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.walk_ns", "ns", "session/ops_per_s; hostile/op_ms_p50"),
    ("engine.walk_share", "share", "session/ops_per_s"),
    ("tree.read_partial_ns", "ns", "hostile/op_ms_p50"),
    ("mem.dram_accesses_per_op", "count", "session/ops_per_s"),
    ("mem.dram_access_ns", "ns", "session/ops_per_s"),
    ("mem.peak_rss_mb", "MB", "none: memory, not host time"),
    ("faults.applied_per_op", "count", "hostile/op_ms_p50"),
    ("obs.tracing_overhead", "ratio", "none: how far traced timings are inflated"),
    ("trace.attributed_share", "share", "none: how much of an op the split explains"),
    ("sim.mcycles_per_op", "Mcycles", "none: the simulated-work fingerprint"),
    ("sim.ber", "share", "none: simulated, pinned by the fingerprint gate"),
];

/// Printed with the table but left out of the JSON metrics: the span
/// exists only where `Session::transmit_robust` runs (`hostile`).
const ROBUST_DECODE: (&str, &str, &str) = ("attack.robust_decode_ms", "ms", "hostile/op_ms_p50");

/// What a traced run reports.
pub struct TracedRun {
    /// Every metric of [`ROWS`], in order.
    pub metrics: Vec<Metric>,
    /// Metrics printed but not reported as JSON.
    pub table_only: Vec<Metric>,
    /// Ops that failed.
    pub failed: usize,
    /// The untraced passes, for the fingerprint checks.
    pub passes: Vec<Pass>,
    /// Replay or ring problems; any makes the run incorrect.
    pub problems: Vec<String>,
}

/// Host-span totals of one machine at one moment.
#[derive(Debug, Clone, Copy, Default)]
struct Spans {
    transmit: u64,
    robust_decode: u64,
    step_loop: u64,
    steps: u64,
}

impl Spans {
    fn read(m: &Machine) -> Self {
        let host = &m.obs().host;
        let ns = |name| host.span(name).map_or(0, |s| s.total.as_nanos() as u64);
        Spans {
            transmit: ns("transmit"),
            robust_decode: ns("robust_decode"),
            step_loop: ns("actor_step_loop"),
            steps: host.span("actor_step_loop").map_or(0, |s| s.count),
        }
    }

    fn minus(self, before: Spans) -> Spans {
        Spans {
            transmit: self.transmit - before.transmit,
            robust_decode: self.robust_decode - before.robust_decode,
            step_loop: self.step_loop - before.step_loop,
            steps: self.steps - before.steps,
        }
    }
}

/// Observer of the untraced passes: each op's span deltas.
#[derive(Default)]
struct SpanRecorder {
    last: Spans,
    ops: Vec<Option<Spans>>,
}

impl Observer for SpanRecorder {
    fn machine_built(&mut self, setup: &mut AttackSetup) {
        self.last = Spans::read(&setup.machine);
    }

    fn set_up_done(&mut self, setup: &mut AttackSetup) {
        self.last = Spans::read(&setup.machine);
    }

    fn op_done(&mut self, op: usize, setup: &mut AttackSetup, _outcome: &OpOutcome) {
        let now = Spans::read(&setup.machine);
        if self.ops.len() <= op {
            self.ops.resize(op + 1, None);
        }
        self.ops[op] = Some(now.minus(self.last));
        self.last = now;
    }
}

/// One LLC operation of the recorded traffic.
enum LlcOp {
    /// A lookup, with whether the machine's LLC hit.
    Access(LineAddr, bool),
    Invalidate(LineAddr),
    /// An EPC eviction dropping a whole page (its first line).
    InvalidatePage(LineAddr),
}

/// One MEE operation of the recorded traffic.
enum MeeOp {
    /// A walk, with the hit-ladder index the machine's walk stopped at.
    Read(LineAddr, Cycles, usize),
    Flush,
    FlushSet(usize),
    /// An EPC eviction dropping a page's walk footprints (its first line).
    EvictPage(LineAddr),
}

/// One op's recorded traffic, split per layer in recorded order.
#[derive(Default)]
struct Traffic {
    llc: Vec<LlcOp>,
    llc_lookups: u64,
    mee: Vec<MeeOp>,
    walks: u64,
    tree: Vec<(LineAddr, usize)>,
    dram: Vec<LineAddr>,
    dram_data: u64,
    mem_ops: u64,
    /// Memory ops before the `transmit_start` phase marker.
    establish_mem_ops: u64,
}

const LINES_PER_PAGE: u64 = (PAGE_SIZE / LINE_SIZE) as u64;

impl Traffic {
    /// Splits recorded events into per-layer traffic. `epc_page` resolves
    /// an EPC-evicted page's virtual address to its first physical line.
    fn from_events(events: &[Event], epc_page: impl Fn(u64) -> Option<LineAddr>) -> Self {
        let mut t = Traffic::default();
        let mut in_establish = true;
        // A walk's tree-line DRAM fetches are recorded before its MemOp,
        // but the machine fetches the data line first.
        let mut pending_tree_fetches: Vec<LineAddr> = Vec::new();
        for e in events {
            match e.kind {
                EventKind::MemOp {
                    op,
                    line,
                    served,
                    mee_level,
                    ..
                } => {
                    let line = LineAddr::new(line);
                    t.mem_ops += 1;
                    if in_establish {
                        t.establish_mem_ops += 1;
                    }
                    if op == MemOpKind::Clflush {
                        t.llc.push(LlcOp::Invalidate(line));
                        continue;
                    }
                    if matches!(served, Some(ServedAt::Llc | ServedAt::Dram)) {
                        t.llc
                            .push(LlcOp::Access(line, served == Some(ServedAt::Llc)));
                        t.llc_lookups += 1;
                    }
                    if served == Some(ServedAt::Dram) {
                        t.dram.push(line);
                        t.dram_data += 1;
                        t.dram.append(&mut pending_tree_fetches);
                    }
                    if let Some(level) = mee_level {
                        let ladder = ladder_index(level);
                        t.mee.push(MeeOp::Read(line, e.at, ladder));
                        t.tree.push((line, ladder));
                        t.walks += 1;
                    }
                }
                EventKind::WalkStep { level, line, hit } => {
                    if !hit && level != WalkLevel::Root {
                        pending_tree_fetches.push(LineAddr::new(line));
                    }
                }
                EventKind::Fault { kind, arg } => match kind {
                    "mee-flush" => t.mee.push(MeeOp::Flush),
                    "set-thrash" => t.mee.push(MeeOp::FlushSet(arg as usize)),
                    "epc-evict" => {
                        if let Some(first) = epc_page(arg) {
                            t.llc.push(LlcOp::InvalidatePage(first));
                            t.mee.push(MeeOp::EvictPage(first));
                        }
                    }
                    _ => {}
                },
                EventKind::Phase { name, .. } => {
                    if name == "transmit_start" {
                        in_establish = false;
                    }
                }
                EventKind::MeeEvict { .. } | EventKind::LlcEvict { .. } => {}
            }
        }
        t
    }
}

fn ladder_index(level: WalkLevel) -> usize {
    match level {
        WalkLevel::Versions => 0,
        WalkLevel::L0 => 1,
        WalkLevel::L1 => 2,
        WalkLevel::L2 => 3,
        WalkLevel::Root => 4,
        WalkLevel::PdTag => unreachable!("walks never stop at PD_Tag"),
    }
}

/// Host nanoseconds each layer's replay of one op took.
#[derive(Debug, Clone, Copy, Default)]
struct ReplayNs {
    llc: u64,
    walk: u64,
    tree: u64,
    dram: u64,
}

/// Fresh layer objects configured exactly as the traced machine's.
struct Replay {
    llc: SetAssocCache,
    mee: Mee,
    /// The DRAM the MEE's own tree-line fetches go to.
    mee_dram: DramModel,
    tree: IntegrityTree,
    dram: DramModel,
}

impl Replay {
    fn new(m: &Machine) -> Self {
        let cfg = m.config();
        let geo = *m.mee().geometry();
        let dram = || DramModel::new(cfg.dram.clone()).expect("the machine's DRAM config is valid");
        Replay {
            llc: SetAssocCache::new(cfg.llc, cfg.llc_policy.build()),
            mee: Mee::new(
                geo,
                cfg.mee_key,
                cfg.mee_cache,
                cfg.mee_policy.build(),
                cfg.timing.clone(),
            ),
            mee_dram: dram(),
            tree: IntegrityTree::new(geo, cfg.mee_key),
            dram: dram(),
        }
    }

    /// Replays `t` layer by layer, timing each layer's loop as a whole.
    /// Counts into `mismatches` every replayed hit or miss that disagrees
    /// with the recording.
    fn run(&mut self, t: &Traffic, mismatches: &mut u64) -> ReplayNs {
        let mut ns = ReplayNs::default();

        let start = Instant::now();
        for op in &t.llc {
            match *op {
                LlcOp::Access(line, hit) => {
                    if self.llc.access(line).hit != hit {
                        *mismatches += 1;
                    }
                }
                LlcOp::Invalidate(line) => {
                    self.llc.invalidate(line);
                }
                LlcOp::InvalidatePage(first) => {
                    let _ = self.llc.invalidate_range(first, LINES_PER_PAGE);
                }
            }
        }
        ns.llc = elapsed_ns(start);

        let start = Instant::now();
        for op in &t.mee {
            match *op {
                MeeOp::Read(line, at, ladder) => {
                    match self.mee.read(line, at, &mut self.mee_dram) {
                        Ok(r) if r.access.hit_level.ladder_index() == ladder => {}
                        _ => *mismatches += 1,
                    }
                }
                MeeOp::Flush => self.mee.flush_cache(),
                MeeOp::FlushSet(set) => {
                    self.mee.flush_cache_set(set);
                }
                MeeOp::EvictPage(first) => {
                    for i in 0..LINES_PER_PAGE {
                        self.mee
                            .evict_walk_footprint(LineAddr::new(first.raw() + i));
                    }
                }
            }
        }
        ns.walk = elapsed_ns(start);

        let start = Instant::now();
        for &(line, levels) in &t.tree {
            if self.tree.read_partial(line, levels).is_err() {
                *mismatches += 1;
            }
        }
        ns.tree = elapsed_ns(start);

        let start = Instant::now();
        let mut sum = 0u64;
        for &line in &t.dram {
            sum = sum.wrapping_add(self.dram.access(line).raw());
        }
        black_box(sum);
        ns.dram = elapsed_ns(start);
        ns
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Counter readings of one machine at one moment.
#[derive(Clone)]
struct Counters {
    metrics: MetricsRegistry,
    mee: MeeStats,
    llc_accesses: u64,
    mee_cache_hits: u64,
    mee_cache_accesses: u64,
    steps: u64,
    clock: u64,
}

impl Counters {
    fn read(m: &Machine) -> Self {
        let mee_cache = m.mee().cache().stats();
        Counters {
            metrics: m.obs().metrics.clone().expect("tracing is on"),
            mee: m.mee().stats(),
            llc_accesses: m.llc().stats().accesses(),
            mee_cache_hits: mee_cache.hits,
            mee_cache_accesses: mee_cache.accesses(),
            steps: m.obs().host.span("actor_step_loop").map_or(0, |s| s.count),
            clock: (0..m.core_count())
                .map(|c| m.core_now(CoreId::new(c)).raw())
                .max()
                .unwrap_or(0),
        }
    }
}

/// One op's exact work counts, from a traced pass.
#[derive(Debug, Clone, Copy, Default)]
struct OpCounts {
    mem_ops: u64,
    establish_mem_ops: u64,
    data_ops: u64,
    l1_hits: u64,
    l2_hits: u64,
    llc_hits: u64,
    llc_lookups: u64,
    walks: u64,
    hits_by_level: [u64; 5],
    mee_cache_hits: u64,
    mee_cache_accesses: u64,
    dram: u64,
    dram_data: u64,
    steps: u64,
    faults: u64,
    sim_cycles: u64,
}

impl OpCounts {
    fn delta(before: &Counters, after: &Counters, traffic: &Traffic, faults: usize) -> Self {
        let mut c = OpCounts {
            mem_ops: traffic.mem_ops,
            establish_mem_ops: traffic.establish_mem_ops,
            llc_lookups: after.llc_accesses - before.llc_accesses,
            walks: (after.mee.reads + after.mee.writes) - (before.mee.reads + before.mee.writes),
            mee_cache_hits: after.mee_cache_hits - before.mee_cache_hits,
            mee_cache_accesses: after.mee_cache_accesses - before.mee_cache_accesses,
            dram: traffic.dram.len() as u64,
            dram_data: traffic.dram_data,
            steps: after.steps - before.steps,
            faults: faults as u64,
            sim_cycles: after.clock - before.clock,
            ..OpCounts::default()
        };
        for (i, slot) in c.hits_by_level.iter_mut().enumerate() {
            *slot = after.mee.hits_by_level[i] - before.mee.hits_by_level[i];
        }
        for (a, b) in after.metrics.cores().iter().zip(before.metrics.cores()) {
            c.data_ops += (a.reads + a.writes) - (b.reads + b.writes);
            c.l1_hits += a.l1_hits - b.l1_hits;
            c.l2_hits += a.l2_hits - b.l2_hits;
            c.llc_hits += a.llc_hits - b.llc_hits;
        }
        c
    }

    fn add(&mut self, o: &OpCounts) {
        self.mem_ops += o.mem_ops;
        self.establish_mem_ops += o.establish_mem_ops;
        self.data_ops += o.data_ops;
        self.l1_hits += o.l1_hits;
        self.l2_hits += o.l2_hits;
        self.llc_hits += o.llc_hits;
        self.llc_lookups += o.llc_lookups;
        self.walks += o.walks;
        for (s, v) in self.hits_by_level.iter_mut().zip(o.hits_by_level) {
            *s += v;
        }
        self.mee_cache_hits += o.mee_cache_hits;
        self.mee_cache_accesses += o.mee_cache_accesses;
        self.dram += o.dram;
        self.dram_data += o.dram_data;
        self.steps += o.steps;
        self.faults += o.faults;
        self.sim_cycles += o.sim_cycles;
    }
}

/// Observer of the traced passes: enables tracing on every machine,
/// replays each op's traffic, and records its counts.
#[derive(Default)]
struct LayerProbe {
    replay: Option<Replay>,
    last: Option<Counters>,
    /// Memory ops of the channel's establishment (set-up).
    set_up_mem_ops: u64,
    ops: Vec<Option<(OpCounts, ReplayNs)>>,
    mismatches: u64,
    problems: Vec<String>,
}

impl LayerProbe {
    /// Takes and clears the ring, splitting its events into traffic.
    fn drain(&mut self, setup: &mut AttackSetup) -> Traffic {
        let machine = &setup.machine;
        let ring = machine.obs().ring().expect("tracing is on");
        if ring.dropped() > 0 {
            self.problems.push(format!(
                "the event ring dropped {} events; the replay is incomplete",
                ring.dropped()
            ));
        }
        let spy = setup.spy.proc;
        let traffic = Traffic::from_events(&ring.events(), |va| {
            machine
                .translate(spy, VirtAddr::new(va))
                .ok()
                .map(|pa| pa.line())
        });
        setup
            .machine
            .obs_mut()
            .sink
            .ring_mut()
            .expect("tracing is on")
            .clear();
        traffic
    }
}

impl Observer for LayerProbe {
    fn machine_built(&mut self, setup: &mut AttackSetup) {
        setup.machine.enable_tracing(RING_EVENTS);
        self.replay = Some(Replay::new(&setup.machine));
        self.last = Some(Counters::read(&setup.machine));
    }

    fn set_up_done(&mut self, setup: &mut AttackSetup) {
        // Establishment warms the replay objects; it is not an op.
        let traffic = self.drain(setup);
        self.set_up_mem_ops = traffic.establish_mem_ops;
        self.replay
            .as_mut()
            .expect("machine built")
            .run(&traffic, &mut self.mismatches);
        self.last = Some(Counters::read(&setup.machine));
    }

    fn op_done(&mut self, op: usize, setup: &mut AttackSetup, outcome: &OpOutcome) {
        let traffic = self.drain(setup);
        let ns = self
            .replay
            .as_mut()
            .expect("machine built")
            .run(&traffic, &mut self.mismatches);
        let now = Counters::read(&setup.machine);
        let before = self.last.as_ref().expect("machine built");
        let counts = OpCounts::delta(before, &now, &traffic, outcome.faults);
        if counts.walks != traffic.walks || counts.llc_lookups != traffic.llc_lookups {
            self.problems.push(format!(
                "op {op}: recorded traffic ({} walks, {} LLC lookups) disagrees with the \
                 layers' own counters ({} walks, {} LLC lookups)",
                traffic.walks, traffic.llc_lookups, counts.walks, counts.llc_lookups
            ));
        }
        self.last = Some(now);
        if self.ops.len() <= op {
            self.ops.resize(op + 1, None);
        }
        self.ops[op] = Some((counts, ns));
    }
}

/// Runs passes with fresh observers until `deadline`, at least
/// [`MIN_PHASE_PASSES`] of them.
fn phase<O: Observer + Default>(list: &OpList, deadline: Instant) -> Vec<(Pass, O)> {
    let mut out = Vec::new();
    while out.len() < MIN_PHASE_PASSES || Instant::now() < deadline {
        let start = Instant::now();
        let mut obs = O::default();
        let pass = run_pass(list, &mut obs);
        out.push((pass, obs));
        if out.len() >= MIN_PHASE_PASSES && Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    out
}

/// Host nanoseconds of one establishment's parts.
#[derive(Debug, Clone, Copy)]
struct EstablishNs {
    build: u64,
    algo1: u64,
    establish: u64,
}

/// Per machine seed, the least host time of building a machine, of
/// Algorithm 1 alone on it, and of a whole `Session::establish` on a
/// second fresh machine, over passes until the next would end after
/// `deadline`.
fn establish_times(list: &OpList, deadline: Instant) -> Vec<EstablishNs> {
    let cfg = ChannelConfig::default();
    let once = |seed: u64| -> EstablishNs {
        let new = || AttackSetup::new(seed).expect("the machine built for this seed before");
        let start = Instant::now();
        let mut setup = new();
        let build = elapsed_ns(start);
        let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
        let candidates = setup
            .trojan
            .candidates(cfg.trojan_candidates, cfg.agreed_offset);
        let mut cpu = setup.trojan_handle();
        let start = Instant::now();
        black_box(find_eviction_set(&mut cpu, &candidates, &classifier, cfg.setup_reps).ok());
        let algo1 = elapsed_ns(start);
        let mut fresh = new();
        let start = Instant::now();
        black_box(Session::establish(&mut fresh, &cfg).ok());
        EstablishNs {
            build,
            algo1,
            establish: elapsed_ns(start),
        }
    };
    let mut best = vec![
        EstablishNs {
            build: u64::MAX,
            algo1: u64::MAX,
            establish: u64::MAX,
        };
        list.machine_seeds().len()
    ];
    let mut passes = 0;
    while passes < MIN_PHASE_PASSES || Instant::now() < deadline {
        let start = Instant::now();
        for (b, &seed) in best.iter_mut().zip(list.machine_seeds()) {
            let t = once(seed);
            b.build = b.build.min(t.build);
            b.algo1 = b.algo1.min(t.algo1);
            b.establish = b.establish.min(t.establish);
        }
        passes += 1;
        if passes >= MIN_PHASE_PASSES && Instant::now() + start.elapsed() > deadline {
            break;
        }
    }
    best
}

/// Runs the traced measurement of `list` within about `budget`.
pub fn traced_run(list: &OpList, budget: Duration) -> TracedRun {
    let start = Instant::now();
    let at = |share: f64| start + budget.mul_f64(share);

    let untraced: Vec<(Pass, SpanRecorder)> = phase(list, at(UNTRACED_SHARE));
    // Read before tracing allocates its event ring.
    let peak_rss_mb = crate::peak_rss_mb();
    let establishment = establish_times(list, at(ESTABLISH_SHARE));
    let traced: Vec<(Pass, LayerProbe)> = phase(list, start + budget);

    let mut problems = Vec::new();
    for (_, probe) in &traced {
        problems.extend(probe.problems.iter().cloned());
        if probe.mismatches > 0 {
            problems.push(format!(
                "{} replayed layer outcomes disagree with the recording",
                probe.mismatches
            ));
        }
    }
    for (p, _) in &traced {
        if p.fingerprint() != untraced[0].0.fingerprint() {
            problems.push("a traced pass diverged from the untraced passes".to_string());
        }
    }
    problems.dedup();

    // Per-op estimates of every host time, over the passes of its phase.
    let op_ok = |p: &Pass, i: usize| p.setup_error.is_none() && p.ops[i].outcome.is_ok();
    let mins = |passes: &[&Pass], f: &dyn Fn(&Pass, usize) -> u64| -> Vec<Option<u64>> {
        let times: Vec<Vec<Option<u64>>> = passes
            .iter()
            .map(|p| {
                (0..list.len())
                    .map(|i| op_ok(p, i).then(|| f(p, i)))
                    .collect()
            })
            .collect();
        per_op(&times, list.workload.estimator())
    };
    let untraced_passes: Vec<&Pass> = untraced.iter().map(|(p, _)| p).collect();
    let traced_passes: Vec<&Pass> = traced.iter().map(|(p, _)| p).collect();
    let op_ns = mins(&untraced_passes, &|p, i| p.ops[i].host_ns);
    let traced_ns = mins(&traced_passes, &|p, i| p.ops[i].host_ns);
    let ok: Vec<usize> = (0..list.len())
        .filter(|&i| op_ns[i].is_some() && traced_ns[i].is_some())
        .collect();
    let failed = list.len() - ok.len();
    let n = ok.len().max(1) as f64;
    let sum = |v: &[Option<u64>]| ok.iter().map(|&i| v[i].unwrap_or(0)).sum::<u64>() as f64;

    // Span estimates: per op over untraced passes (a span is only recorded
    // where the op ran, so indexing by the op is safe).
    let span_per_op = |f: &dyn Fn(&Spans) -> u64| -> Vec<Option<u64>> {
        let times: Vec<Vec<Option<u64>>> = untraced
            .iter()
            .map(|(p, rec)| {
                (0..list.len())
                    .map(|i| {
                        rec.ops
                            .get(i)
                            .copied()
                            .flatten()
                            .filter(|_| op_ok(p, i))
                            .map(|s| f(&s))
                    })
                    .collect()
            })
            .collect();
        per_op(&times, list.workload.estimator())
    };
    let transmit = span_per_op(&|s| s.transmit);
    let robust = span_per_op(&|s| s.robust_decode);
    let step_loop = span_per_op(&|s| s.step_loop);

    // Replay estimates over traced passes, and exact counts from the first.
    let replay_per_op = |f: &dyn Fn(&ReplayNs) -> u64| -> Vec<Option<u64>> {
        let times: Vec<Vec<Option<u64>>> = traced
            .iter()
            .map(|(_, probe)| {
                (0..list.len())
                    .map(|i| probe.ops.get(i).copied().flatten().map(|(_, ns)| f(&ns)))
                    .collect()
            })
            .collect();
        per_op(&times, list.workload.estimator())
    };
    let llc_ns = replay_per_op(&|r| r.llc);
    let walk_ns = replay_per_op(&|r| r.walk);
    let tree_ns = replay_per_op(&|r| r.tree);
    let dram_ns = replay_per_op(&|r| r.dram);
    let probe = &traced[0].1;
    let mut c = OpCounts::default();
    for &i in &ok {
        if let Some((counts, _)) = probe.ops.get(i).copied().flatten() {
            c.add(&counts);
        }
    }

    let session = list.workload == Workload::Session;
    let ms = |ns: f64| ns / 1e6;
    let per = |x: f64, d: u64| if d == 0 { 0.0 } else { x / d as f64 };
    // Establishment is part of every op for sessions and of set-up
    // otherwise; either way it is timed per machine seed.
    let seeds: Vec<usize> = if session { ok.clone() } else { vec![0] };
    let mean = |f: &dyn Fn(&EstablishNs) -> u64| {
        seeds
            .iter()
            .map(|&i| f(&establishment[i]) as f64)
            .sum::<f64>()
            / seeds.len() as f64
    };
    let (build_ns, algo1_ns, establish_ns) = (
        mean(&|e| e.build),
        mean(&|e| e.algo1),
        mean(&|e| e.establish),
    );
    let establish_pairs = if session {
        c.establish_mem_ops as f64 / n / 2.0
    } else {
        probe.set_up_mem_ops as f64 / 2.0
    };
    let untraced_total = sum(&op_ns);
    let walk_total = sum(&walk_ns);
    let dram_per_access = per(sum(&dram_ns), c.dram);
    let attributed = walk_total
        + sum(&llc_ns)
        + dram_per_access * c.dram_data as f64
        + sum(&robust)
        + if session { build_ns * n } else { 0.0 };
    let data_share = |hits: u64| per(hits as f64, c.data_ops);
    let walk_share = |level: usize| per(c.hits_by_level[level] as f64, c.walks);
    let values = [
        ms(establish_ns),
        ms(algo1_ns),
        ms((establish_ns - algo1_ns).max(0.0)),
        ms(sum(&transmit) / n),
        ms(build_ns),
        c.mem_ops as f64 / n,
        establish_ns / establish_pairs,
        c.steps as f64 / n,
        per(sum(&step_loop), c.steps),
        c.llc_lookups as f64 / n,
        data_share(c.l1_hits),
        data_share(c.l2_hits),
        data_share(c.llc_hits),
        per(sum(&llc_ns), c.llc_lookups),
        c.walks as f64 / n,
        walk_share(0),
        walk_share(1),
        walk_share(2),
        walk_share(3),
        walk_share(4),
        per(c.mee_cache_hits as f64, c.mee_cache_accesses),
        per(walk_total, c.walks),
        walk_total / untraced_total,
        per(sum(&tree_ns), c.walks),
        c.dram as f64 / n,
        dram_per_access,
        peak_rss_mb,
        c.faults as f64 / n,
        sum(&traced_ns) / untraced_total,
        attributed / untraced_total,
        c.sim_cycles as f64 / n / 1e6,
        untraced[0].0.ber(),
    ];
    let metrics = ROWS
        .iter()
        .zip(values)
        .map(|(&(name, unit, _), v)| (name, v, unit))
        .collect();
    let table_only = vec![(ROBUST_DECODE.0, ms(sum(&robust) / n), ROBUST_DECODE.1)];
    TracedRun {
        metrics,
        table_only,
        failed,
        passes: untraced.into_iter().map(|(p, _)| p).collect(),
        problems,
    }
}

/// Prints the per-layer table: metric, value, unit, and what it moves.
pub fn print_table(run: &TracedRun) {
    let moves = |name: &str| {
        ROWS.iter()
            .chain(std::iter::once(&ROBUST_DECODE))
            .find(|r| r.0 == name)
            .map_or("", |r| r.2)
    };
    for (name, value, unit) in run.metrics.iter().chain(&run.table_only) {
        eprintln!("  {name:<26} {value:>14.4} {unit:<8} moves {}", moves(name));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The per-layer rows are the contract `BENCHMARK.json` declares.
    #[test]
    fn rows_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to perfbench/");
        let per_layer = &json[json.find("\"per_layer\"").expect("per_layer key")..];
        assert_eq!(per_layer.matches("\"name\"").count(), ROWS.len());
        for (name, unit, _) in ROWS {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(per_layer.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn traffic_orders_dram_fetches_as_the_machine_does() {
        let at = Cycles::new(1);
        let ev = |kind| Event { at, kind };
        let events = [
            ev(EventKind::WalkStep {
                level: WalkLevel::PdTag,
                line: 7,
                hit: false,
            }),
            ev(EventKind::WalkStep {
                level: WalkLevel::Versions,
                line: 8,
                hit: true,
            }),
            ev(EventKind::MemOp {
                core: 0,
                proc: 0,
                op: MemOpKind::Read,
                line: 100,
                served: Some(ServedAt::Dram),
                mee_level: Some(WalkLevel::Versions),
                latency: 500,
            }),
            ev(EventKind::Phase {
                name: "transmit_start",
                arg: 1,
            }),
            ev(EventKind::MemOp {
                core: 0,
                proc: 0,
                op: MemOpKind::Clflush,
                line: 100,
                served: None,
                mee_level: None,
                latency: 10,
            }),
        ];
        let t = Traffic::from_events(&events, |_| None);
        let dram: Vec<u64> = t.dram.iter().map(|l| l.raw()).collect();
        assert_eq!(
            dram,
            vec![100, 7],
            "data line first, then the walk's misses"
        );
        assert_eq!((t.walks, t.llc_lookups, t.dram_data), (1, 1, 1));
        assert_eq!((t.mem_ops, t.establish_mem_ops), (2, 1));
        assert_eq!(t.tree, vec![(LineAddr::new(100), 0)]);
    }
}
