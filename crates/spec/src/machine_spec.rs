//! Machine-level invariants: `clflush-spares-mee-cache`,
//! `prm-bounds-enforced`, and `replay-identity`.
//!
//! One exhaustive pass drives *two* identically configured machines through
//! every short program over a palette of enclave and regular addresses and
//! checks, after every op:
//!
//! - **`replay-identity`** — the machines agree op-for-op (latency, value,
//!   MEE hit level, faults), and after every op on core clocks, palette
//!   residency in every on-chip cache, and MEE/LLC contents and statistics.
//!   The whole model must be a deterministic function of its config. A
//!   read-then-`clflush` pair op (`p<core>.<palette>`) runs through the
//!   production sweep path (`sweep_read_flush`) on machine A and as a
//!   literal `read` + `clflush` on machine B, so the same check holds the
//!   two paths equal.
//! - **`clflush-spares-mee-cache`** — `clflush` removes the target line from
//!   every on-chip data cache but leaves the MEE cache's resident set and
//!   statistics untouched (the paper's §4 observation that makes the covert
//!   channel possible); after a pair, the line is gone from every on-chip
//!   cache of both machines, and B's flush half left its MEE cache as its
//!   read half did.
//! - **`prm-bounds-enforced`** — tree lines never appear in L1/L2/LLC, the
//!   inclusive-LLC oracle holds, and every line in the MEE cache lies inside
//!   the PRM tree region. A separate set of fixed cases pins the error paths:
//!   over-mapping returns `OutOfMemory`, invalid configs are rejected, and
//!   foreign core/process handles fault instead of indexing out of bounds.

use mee_machine::{CoreId, Machine, MachineConfig, PolicyKind, ProcId};
use mee_mem::AddressSpaceKind;
use mee_types::{ModelError, VirtAddr};

use crate::counterexample::Counterexample;
use crate::enumerate::for_each_program;
use crate::oracle::{exec_op, OpKind, OpRecord, OracleOp};
use crate::Budget;

/// Base of the enclave mapping (process 0, two pages).
pub const ENCLAVE_BASE: u64 = 0x100_0000;
/// Base of the regular mapping (process 1, one page).
pub const REGULAR_BASE: u64 = 0x200_0000;

/// The machine address palette: `(process index, virtual address)`. Entries
/// 0–2 are enclave lines (same version block, a sibling block, and the
/// second page); entry 3 is an unprotected regular line.
pub const MACH_PALETTE: [(usize, u64); 4] = [
    (0, ENCLAVE_BASE),
    (0, ENCLAVE_BASE + 512),
    (0, ENCLAVE_BASE + 4096),
    (1, REGULAR_BASE),
];

/// Which machine configuration a program runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSize {
    /// [`tiny_config`]: 2 cores, 64 KiB PRM, 2×2 MEE cache. Exhaustive tier.
    Tiny,
    /// [`MachineConfig::small`] with the chosen MEE policy. Property tier.
    Small,
}

impl MachineSize {
    /// Parses `tiny` / `small`.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown names.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "tiny" => Ok(MachineSize::Tiny),
            "small" => Ok(MachineSize::Small),
            other => Err(format!("unknown machine size {other:?}")),
        }
    }

    /// Canonical name.
    pub fn name(self) -> &'static str {
        match self {
            MachineSize::Tiny => "tiny",
            MachineSize::Small => "small",
        }
    }
}

/// Maps the spec harness's policy names onto [`PolicyKind`].
///
/// # Errors
///
/// Returns a message for unknown names.
pub fn policy_kind_by_name(name: &str) -> Result<PolicyKind, String> {
    match name {
        "tree-plru" => Ok(PolicyKind::TreePlru),
        "lru" => Ok(PolicyKind::TrueLru),
        "srrip" => Ok(PolicyKind::Srrip),
        "random" => Ok(PolicyKind::Random {
            seed: crate::cache_spec::RANDOM_POLICY_SEED,
        }),
        other => Err(format!("unknown policy {other:?}")),
    }
}

/// Canonical name of a [`PolicyKind`] in recipe configs.
pub fn policy_kind_name(kind: PolicyKind) -> &'static str {
    match kind {
        PolicyKind::TreePlru => "tree-plru",
        PolicyKind::TrueLru => "lru",
        PolicyKind::Srrip => "srrip",
        PolicyKind::Random { .. } => "random",
    }
}

/// A noiseless 2-core machine small enough that exhaustive machine programs
/// exercise real MEE-cache evictions: 64 KiB PRM (12 protected pages) and a
/// 2-set × 2-way MEE cache.
pub fn tiny_config(mee_policy: PolicyKind) -> MachineConfig {
    use mee_cache::CacheConfig;
    use mee_mem::DramConfig;
    use mee_types::TimingConfig;
    MachineConfig {
        cores: 2,
        general_bytes: 64 << 10,
        prm_bytes: 64 << 10,
        l1: CacheConfig {
            sets: 8,
            ways: 2,
            line_size: 64,
        },
        l2: CacheConfig {
            sets: 16,
            ways: 2,
            line_size: 64,
        },
        llc: CacheConfig {
            sets: 32,
            ways: 4,
            line_size: 64,
        },
        mee_cache: CacheConfig {
            sets: 2,
            ways: 2,
            line_size: 64,
        },
        mee_policy,
        timing: TimingConfig::noiseless(),
        dram: DramConfig {
            jitter_std: 0.0,
            ..DramConfig::default()
        },
        ..MachineConfig::default()
    }
}

fn config_for(size: MachineSize, policy: PolicyKind) -> MachineConfig {
    match size {
        MachineSize::Tiny => tiny_config(policy),
        MachineSize::Small => MachineConfig {
            mee_policy: policy,
            ..MachineConfig::small()
        },
    }
}

/// Builds a machine of the given size with the two palette processes mapped:
/// process 0 an enclave (2 pages at [`ENCLAVE_BASE`]), process 1 regular
/// (1 page at [`REGULAR_BASE`]).
///
/// # Errors
///
/// Propagates construction/mapping failures.
pub fn build_machine(
    size: MachineSize,
    policy: PolicyKind,
) -> Result<(Machine, Vec<ProcId>), ModelError> {
    let mut m = Machine::new(config_for(size, policy))?;
    let enclave = m.create_process(AddressSpaceKind::Enclave);
    m.map_pages(enclave, VirtAddr::new(ENCLAVE_BASE), 2)?;
    let regular = m.create_process(AddressSpaceKind::Regular);
    m.map_pages(regular, VirtAddr::new(REGULAR_BASE), 1)?;
    Ok((m, vec![enclave, regular]))
}

/// One machine-program operation. Operands are a core index and a
/// [`MACH_PALETTE`] index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachOp {
    /// `read_value` of palette entry `k` from `core`.
    Read(usize, usize),
    /// `write` to palette entry `k` from `core`.
    Write(usize, usize),
    /// `clflush` of palette entry `k` from `core`.
    Clflush(usize, usize),
    /// A read-then-`clflush` pair of palette entry `k` from `core`: the
    /// one-address `sweep_read_flush` on machine A, `read` then `clflush`
    /// on machine B.
    Pair(usize, usize),
}

impl MachOp {
    /// The op as machine A runs it.
    fn to_oracle(self) -> OracleOp {
        let (MachOp::Read(core, k)
        | MachOp::Write(core, k)
        | MachOp::Clflush(core, k)
        | MachOp::Pair(core, k)) = self;
        let (proc, va) = MACH_PALETTE[k];
        let va = VirtAddr::new(va);
        let kind = match self {
            MachOp::Read(..) => OpKind::Read(va),
            MachOp::Write(..) => OpKind::Write(va, 0xa0 + k as u64),
            MachOp::Clflush(..) => OpKind::Clflush(va),
            MachOp::Pair(..) => OpKind::Sweep {
                base: va,
                pages: 1,
                rev: false,
            },
        };
        OracleOp { core, proc, kind }
    }
}

/// Formats a machine trace (`r0.1 w1.2 c0.3`).
pub fn fmt_mach_ops(ops: &[MachOp]) -> String {
    let tokens: Vec<String> = ops
        .iter()
        .map(|op| match op {
            MachOp::Read(c, k) => format!("r{c}.{k}"),
            MachOp::Write(c, k) => format!("w{c}.{k}"),
            MachOp::Clflush(c, k) => format!("c{c}.{k}"),
            MachOp::Pair(c, k) => format!("p{c}.{k}"),
        })
        .collect();
    tokens.join(" ")
}

/// Parses the output of [`fmt_mach_ops`].
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn parse_mach_ops(trace: &str) -> Result<Vec<MachOp>, String> {
    trace
        .split_whitespace()
        .map(|tok| {
            let bad = || format!("malformed machine op {tok:?} (expected r/w/c/p<core>.<palette>)");
            let (head, rest) = tok.split_at_checked(1).ok_or_else(bad)?;
            let (c, k) = rest.split_once('.').ok_or_else(bad)?;
            let c: usize = c.parse().map_err(|_| bad())?;
            let k: usize = k.parse().map_err(|_| bad())?;
            if k >= MACH_PALETTE.len() {
                return Err(format!("palette index {k} out of range"));
            }
            match head {
                "r" => Ok(MachOp::Read(c, k)),
                "w" => Ok(MachOp::Write(c, k)),
                "c" => Ok(MachOp::Clflush(c, k)),
                "p" => Ok(MachOp::Pair(c, k)),
                _ => Err(bad()),
            }
        })
        .collect()
}

fn mee_resident_sorted(m: &Machine) -> Vec<u64> {
    let mut v: Vec<u64> = m.mee().cache().resident_lines().map(|l| l.raw()).collect();
    v.sort_unstable();
    v
}

/// Machine B's side of a [`MachOp::Pair`]: `read` then `clflush`, as
/// separate instructions. Returns the op record (the summed latency and
/// the read's MEE hit level, as machine A's one-address sweep reports
/// them) and whether the flush half left the MEE cache's resident set
/// and statistics as the read half left them.
fn split_pair(m: &mut Machine, procs: &[ProcId], core: usize, k: usize) -> (OpRecord, bool) {
    let (pi, va) = MACH_PALETTE[k];
    let (core, proc, va) = (CoreId::new(core), procs[pi], VirtAddr::new(va));
    let mut rec = OpRecord {
        latency: 0,
        value: None,
        mee_hit: None,
        error: None,
    };
    let read = match m.read(core, proc, va) {
        Ok(read) => read,
        Err(e) => {
            rec.error = Some(e.to_string());
            return (rec, true);
        }
    };
    rec.mee_hit = m.last_mee_hit().map(|h| h.ladder_index());
    let before = (mee_resident_sorted(m), m.mee().stats());
    match m.clflush(core, proc, va) {
        Ok(flush) => rec.latency = (read + flush).raw(),
        Err(e) => rec.error = Some(e.to_string()),
    }
    let spared = (mee_resident_sorted(m), m.mee().stats()) == before;
    (rec, spared)
}

/// The first difference in state between the two machines that an op
/// record does not show: core clocks, where each palette line is cached
/// on-chip, and the LLC's and MEE cache's statistics and MEE residents.
fn state_divergence(
    ma: &Machine,
    procs_a: &[ProcId],
    mb: &Machine,
    procs_b: &[ProcId],
) -> Option<String> {
    for c in (0..ma.core_count()).map(CoreId::new) {
        if ma.core_now(c) != mb.core_now(c) {
            return Some(format!("{c} clocks diverged"));
        }
    }
    for (k, &(pi, va)) in MACH_PALETTE.iter().enumerate() {
        let va = VirtAddr::new(va);
        let (Ok(pa), Ok(pb)) = (ma.translate(procs_a[pi], va), mb.translate(procs_b[pi], va))
        else {
            return Some(format!("palette {k} does not translate"));
        };
        let (la, lb) = (pa.line(), pb.line());
        let where_a: Vec<bool> = (0..ma.core_count())
            .map(|c| ma.core_caches_line(CoreId::new(c), la))
            .chain([ma.llc().contains(la)])
            .collect();
        let where_b: Vec<bool> = (0..mb.core_count())
            .map(|c| mb.core_caches_line(CoreId::new(c), lb))
            .chain([mb.llc().contains(lb)])
            .collect();
        if where_a != where_b {
            return Some(format!(
                "palette {k} residency diverged: A {where_a:?} vs B {where_b:?}"
            ));
        }
    }
    if ma.llc().stats() != mb.llc().stats() {
        return Some("LLC stats diverged".into());
    }
    if ma.mee().stats() != mb.mee().stats() || mee_resident_sorted(ma) != mee_resident_sorted(mb) {
        return Some("MEE cache diverged".into());
    }
    None
}

/// Runs `ops` on two identically configured machines and checks the three
/// machine invariants after every op. On violation returns the invariant
/// name plus the detail.
///
/// # Errors
///
/// `Err((invariant, detail))` describes the first violation.
pub fn check_machine_program(
    size: MachineSize,
    policy: PolicyKind,
    ops: &[MachOp],
) -> Result<(), (&'static str, String)> {
    let build = |m: &str| {
        build_machine(size, policy).map_err(|e| {
            (
                "replay-identity",
                format!("machine {m} failed to build: {e}"),
            )
        })
    };
    let (mut ma, procs_a) = build("A")?;
    let (mut mb, procs_b) = build("B")?;
    let tree_region = ma.layout().prm_tree();
    for (i, op) in ops.iter().enumerate() {
        let oop = op.to_oracle();
        let flush_snapshot = if matches!(op, MachOp::Clflush(..)) {
            Some((mee_resident_sorted(&ma), ma.mee().stats()))
        } else {
            None
        };
        let ra = exec_op(&mut ma, &procs_a, &oop);
        let rb = match *op {
            MachOp::Pair(c, k) => {
                let (rb, spared) = split_pair(&mut mb, &procs_b, c, k);
                if !spared {
                    return Err((
                        "clflush-spares-mee-cache",
                        format!(
                            "step {i}: the pair's clflush perturbed the MEE cache or its stats"
                        ),
                    ));
                }
                rb
            }
            _ => exec_op(&mut mb, &procs_b, &oop),
        };
        if let Some(e) = &ra.error {
            return Err((
                "replay-identity",
                format!("step {i}: well-formed op faulted: {e}"),
            ));
        }
        if ra != rb {
            return Err((
                "replay-identity",
                format!("step {i}: machines diverged: A {ra:?} vs B {rb:?}"),
            ));
        }
        if let Some(detail) = state_divergence(&ma, &procs_a, &mb, &procs_b) {
            return Err(("replay-identity", format!("step {i}: {detail}")));
        }
        if let Some((resident_before, stats_before)) = flush_snapshot {
            if mee_resident_sorted(&ma) != resident_before || ma.mee().stats() != stats_before {
                return Err((
                    "clflush-spares-mee-cache",
                    format!("step {i}: clflush perturbed the MEE cache or its stats"),
                ));
            }
        }
        if let MachOp::Clflush(_, k) | MachOp::Pair(_, k) = *op {
            let (pi, va) = MACH_PALETTE[k];
            let pa = ma.translate(procs_a[pi], VirtAddr::new(va)).map_err(|e| {
                (
                    "replay-identity",
                    format!("step {i}: translate failed: {e}"),
                )
            })?;
            if ma.line_cached_anywhere(pa.line()) {
                return Err((
                    "clflush-spares-mee-cache",
                    format!(
                        "step {i}: flushed line {} still cached on-chip",
                        pa.line().raw()
                    ),
                ));
            }
        }
        if let Some(line) = ma.check_no_tree_lines_on_chip() {
            return Err((
                "prm-bounds-enforced",
                format!(
                    "step {i}: tree line {} leaked into a data cache",
                    line.raw()
                ),
            ));
        }
        if let Some((core, line)) = ma.check_inclusion() {
            return Err((
                "prm-bounds-enforced",
                format!(
                    "step {i}: inclusion violated: core {core:?} caches line {} absent from LLC",
                    line.raw()
                ),
            ));
        }
        if let Some(line) = ma
            .mee()
            .cache()
            .resident_lines()
            .find(|l| !tree_region.contains(l.base()))
        {
            return Err((
                "prm-bounds-enforced",
                format!(
                    "step {i}: MEE cache holds line {} outside the PRM tree region",
                    line.raw()
                ),
            ));
        }
    }
    Ok(())
}

/// Exhaustively checks the three machine invariants on the tiny machine.
pub fn enumerate_machine_invariants(budget: &Budget, out: &mut Vec<Counterexample>) {
    // Symbols: reads, writes and read-then-clflush pairs from both cores,
    // clflush from core 0.
    let pal = MACH_PALETTE.len();
    let symbols = 7 * pal;
    let decode = |s: usize| -> MachOp {
        if s < 2 * pal {
            MachOp::Read(s / pal, s % pal)
        } else if s < 4 * pal {
            let s = s - 2 * pal;
            MachOp::Write(s / pal, s % pal)
        } else if s < 5 * pal {
            MachOp::Clflush(0, s - 4 * pal)
        } else {
            let s = s - 5 * pal;
            MachOp::Pair(s / pal, s % pal)
        }
    };
    let mut go = true;
    for_each_program(symbols, budget.machine_len, |prog| {
        let ops: Vec<MachOp> = prog.iter().map(|&s| decode(s)).collect();
        if let Err((invariant, detail)) =
            check_machine_program(MachineSize::Tiny, PolicyKind::TreePlru, &ops)
        {
            out.push(Counterexample {
                invariant,
                config: "machine=tiny mee=tree-plru".into(),
                trace: fmt_mach_ops(&ops),
                detail,
                seed: None,
            });
            go = out.len() < budget.max_counterexamples;
        }
        go
    });
    if go {
        check_fixed_prm_cases(out);
    }
}

/// Runs one named `prm-bounds-enforced` error-path case. These pin the typed
/// error contract: bad inputs fault with the right [`ModelError`], never by
/// panicking or silently succeeding.
///
/// # Errors
///
/// Returns a message for unknown case names.
pub fn run_fixed_prm_case(name: &str) -> Result<Option<Counterexample>, String> {
    let fail = |detail: String| Counterexample {
        invariant: "prm-bounds-enforced",
        config: format!("case={name}"),
        trace: "-".into(),
        detail,
        seed: None,
    };
    let outcome: Option<String> = match name {
        "overmap-oom" => {
            let (mut m, procs) = build_machine(MachineSize::Tiny, PolicyKind::TreePlru)
                .map_err(|e| e.to_string())?;
            match m.map_pages(procs[0], VirtAddr::new(0x800_0000), 10_000) {
                Err(ModelError::OutOfMemory { .. }) => None,
                other => Some(format!(
                    "mapping 10000 pages into a 12-page PRM returned {other:?}, \
                     expected OutOfMemory"
                )),
            }
        }
        "zero-cores" => {
            let cfg = MachineConfig {
                cores: 0,
                ..tiny_config(PolicyKind::TreePlru)
            };
            match Machine::new(cfg) {
                Err(ModelError::InvalidConfig { .. }) => None,
                Ok(_) => Some("a zero-core machine was accepted".into()),
                Err(e) => Some(format!(
                    "zero-core machine failed with {e}, expected InvalidConfig"
                )),
            }
        }
        "bad-mee-geometry" => {
            let mut cfg = tiny_config(PolicyKind::TreePlru);
            cfg.mee_cache.sets = 3;
            match Machine::new(cfg) {
                Err(ModelError::InvalidConfig { .. }) => None,
                Ok(_) => Some("a 3-set MEE cache was accepted".into()),
                Err(e) => Some(format!(
                    "3-set MEE cache failed with {e}, expected InvalidConfig"
                )),
            }
        }
        "foreign-core" => {
            let (mut m, procs) = build_machine(MachineSize::Tiny, PolicyKind::TreePlru)
                .map_err(|e| e.to_string())?;
            match m.read(CoreId::new(99), procs[0], VirtAddr::new(ENCLAVE_BASE)) {
                Err(ModelError::NoSuchCore { .. }) => None,
                other => Some(format!(
                    "read on core 99 of a 2-core machine returned {other:?}, \
                     expected NoSuchCore"
                )),
            }
        }
        "foreign-proc" => {
            let (mut m1, _) = build_machine(MachineSize::Tiny, PolicyKind::TreePlru)
                .map_err(|e| e.to_string())?;
            // Mint a ProcId the first machine has never issued by creating a
            // third process on a second machine.
            let (mut m2, _) = build_machine(MachineSize::Tiny, PolicyKind::TreePlru)
                .map_err(|e| e.to_string())?;
            let foreign = m2.create_process(AddressSpaceKind::Regular);
            match m1.read(CoreId::new(0), foreign, VirtAddr::new(ENCLAVE_BASE)) {
                Err(ModelError::NoSuchProcess { .. }) => None,
                other => Some(format!(
                    "read with a foreign ProcId returned {other:?}, expected NoSuchProcess"
                )),
            }
        }
        other => return Err(format!("unknown prm-bounds case {other:?}")),
    };
    Ok(outcome.map(fail))
}

/// All fixed `prm-bounds-enforced` case names.
pub const FIXED_PRM_CASES: [&str; 5] = [
    "overmap-oom",
    "zero-cores",
    "bad-mee-geometry",
    "foreign-core",
    "foreign-proc",
];

fn check_fixed_prm_cases(out: &mut Vec<Counterexample>) {
    for name in FIXED_PRM_CASES {
        match run_fixed_prm_case(name) {
            Ok(Some(cx)) => out.push(cx),
            Ok(None) => {}
            Err(e) => unreachable!("fixed case {name}: {e}"),
        }
    }
}

/// Replays a machine-domain recipe (any of the three invariant names).
///
/// # Errors
///
/// Returns a message for malformed configs or traces.
pub fn replay_machine_recipe(config: &str, trace: &str) -> Result<Option<Counterexample>, String> {
    let kv = crate::counterexample::parse_config(config)?;
    if let Some(case) = kv.get("case") {
        return run_fixed_prm_case(case);
    }
    let size = MachineSize::parse(crate::counterexample::require(&kv, "machine")?)?;
    let policy = policy_kind_by_name(crate::counterexample::require(&kv, "mee")?)?;
    let ops = parse_mach_ops(trace)?;
    Ok(check_machine_program(size, policy, &ops)
        .err()
        .map(|(invariant, detail)| Counterexample {
            invariant,
            config: config.to_owned(),
            trace: trace.to_owned(),
            detail,
            seed: None,
        }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mach_ops_round_trip() {
        let ops = vec![
            MachOp::Read(0, 1),
            MachOp::Write(1, 2),
            MachOp::Clflush(0, 3),
            MachOp::Pair(1, 0),
        ];
        let s = fmt_mach_ops(&ops);
        assert_eq!(s, "r0.1 w1.2 c0.3 p1.0");
        assert_eq!(parse_mach_ops(&s).unwrap(), ops);
        assert!(parse_mach_ops("r0.9").is_err());
        assert!(parse_mach_ops("x0.1").is_err());
    }

    #[test]
    fn clean_programs_pass_all_three_invariants() {
        let ops =
            parse_mach_ops("w0.0 r0.0 c0.0 r0.0 w1.3 r1.3 c0.2 r0.2 r0.1 p0.1 p1.3 p0.0 p1.0")
                .unwrap();
        check_machine_program(MachineSize::Tiny, PolicyKind::TreePlru, &ops)
            .unwrap_or_else(|(inv, d)| panic!("{inv}: {d}"));
    }

    #[test]
    fn fixed_prm_cases_all_hold() {
        for name in FIXED_PRM_CASES {
            assert_eq!(run_fixed_prm_case(name).unwrap(), None, "case {name}");
        }
    }

    #[test]
    fn replay_dispatches_fixed_cases() {
        let cx = replay_machine_recipe("case=overmap-oom", "-").unwrap();
        assert!(cx.is_none());
        assert!(replay_machine_recipe("case=nope", "-").is_err());
    }
}
