//! The seeded property tier: the same domain checkers as the exhaustive
//! tier, but driven by random programs at full-size geometries the
//! exhaustive tier cannot afford (8-way policies, a wide tree, the
//! `MachineConfig::small` machine).
//!
//! Case generation reuses the workspace's in-tree property driver
//! conventions: per-case seeds derive from [`mee_rng::stream_seed`], the
//! case count and base seed come from `MEE_PROP_CASES` / `MEE_PROP_SEED`
//! (via [`PropConfig::from_env`]), and `MEE_PROP_SEED=<case seed>` replays a
//! single failing case exactly. Every counterexample carries its case seed,
//! so its one-line recipe points back here.

use mee_rng::prop::{pick, vec_of, PropConfig};
use mee_rng::{stream_seed, Rng};

use crate::cache_spec::{
    check_invalidated_preferred, check_plru_matches_lru, check_victim_from_allowed, fmt_cache_ops,
    fmt_policy_ops, CacheOp, PolicyOp, ALL_POLICIES, DETERMINISTIC_POLICIES,
};
use crate::counterexample::Counterexample;
use crate::engine_spec::{check_walk_program, fmt_engine_ops, EngineOp, Geom};
use crate::machine_spec::{check_machine_program, fmt_mach_ops, MachOp, MachineSize, MACH_PALETTE};
use crate::tree_spec::{check_tree_program, fmt_tree_ops, TreeOp, PALETTE};
use mee_machine::PolicyKind;

/// Default case count when `MEE_PROP_CASES` is unset.
pub const DEFAULT_CASES: u32 = 24;

/// Runs every seeded property once per case and collects the failures.
///
/// Honors `cfg.replay`: with `MEE_PROP_SEED=<seed>` set, runs exactly one
/// case with that seed (the failing-case replay path).
pub fn run_property_tier(cfg: &PropConfig) -> Vec<Counterexample> {
    let mut out = Vec::new();
    if let Some(seed) = cfg.replay {
        run_case(seed, &mut out);
        return out;
    }
    for case in 0..cfg.cases {
        run_case(stream_seed(cfg.seed, case as u64), &mut out);
    }
    out
}

fn run_case(case_seed: u64, out: &mut Vec<Counterexample>) {
    let mut rng = Rng::seed_from_u64(case_seed);
    policy_properties(&mut rng, case_seed, out);
    cache_properties(&mut rng, case_seed, out);
    engine_property(&mut rng, case_seed, out);
    tree_property(&mut rng, case_seed, out);
    machine_property(&mut rng, case_seed, out);
}

fn random_policy_op(rng: &mut Rng, ways: usize) -> PolicyOp {
    let way = rng.random_range(0..ways);
    match rng.random_range(0..3u32) {
        0 => PolicyOp::Fill(way),
        1 => PolicyOp::Hit(way),
        _ => PolicyOp::Inval(way),
    }
}

/// `victim-from-allowed-ways` and `invalidated-way-preferred` at 8 ways.
fn policy_properties(rng: &mut Rng, seed: u64, out: &mut Vec<Counterexample>) {
    let ways = 8;
    let policy = pick(rng, &ALL_POLICIES);
    let ops = vec_of(rng, 50..200, |r| random_policy_op(r, ways));
    if let Err(detail) = check_victim_from_allowed(policy, ways, &ops) {
        out.push(Counterexample {
            invariant: "victim-from-allowed-ways",
            config: format!("policy={policy} ways={ways}"),
            trace: fmt_policy_ops(&ops),
            detail,
            seed: Some(seed),
        });
    }

    // Shape required by the checker: fill-all prefix, fill/hit-only body,
    // one trailing invalidate.
    let policy = pick(rng, &DETERMINISTIC_POLICIES);
    let mut ops: Vec<PolicyOp> = (0..ways).map(PolicyOp::Fill).collect();
    ops.extend(vec_of(rng, 10..60, |r| {
        let way = r.random_range(0..ways);
        if r.random_range(0..2u32) == 0 {
            PolicyOp::Fill(way)
        } else {
            PolicyOp::Hit(way)
        }
    }));
    ops.push(PolicyOp::Inval(rng.random_range(0..ways)));
    if let Err(detail) = check_invalidated_preferred(policy, ways, &ops) {
        out.push(Counterexample {
            invariant: "invalidated-way-preferred",
            config: format!("policy={policy} ways={ways}"),
            trace: fmt_policy_ops(&ops),
            detail,
            seed: Some(seed),
        });
    }
}

/// `plru-within-lru`, exact half only: the 2-way PLRU/LRU equivalence is
/// geometry-wide, so the property tier stretches it to 2 sets and long
/// traces (the MRU-containment half needs curated alphabets and stays in
/// the exhaustive tier).
fn cache_properties(rng: &mut Rng, seed: u64, out: &mut Vec<Counterexample>) {
    const LINES: u64 = 8;
    let sets = 2;
    let ops = vec_of(rng, 40..160, |r| {
        // Even/odd lines spread across both sets.
        let line = r.random_range(0..LINES);
        match r.random_range(0..4u32) {
            0 | 1 => CacheOp::Access(line),
            2 => CacheOp::Inval(line),
            _ => CacheOp::Masked(1 << r.random_range(0..2u32), line),
        }
    });
    if let Err(detail) = check_plru_matches_lru(sets, 2, &ops) {
        out.push(Counterexample {
            invariant: "plru-within-lru",
            config: format!("mode=equiv sets={sets} ways=2"),
            trace: fmt_cache_ops(&ops),
            detail,
            seed: Some(seed),
        });
    }
}

/// `walk-stops-at-first-hit` on the wide tree with a realistic MEE cache
/// shape (8 sets × 8 ways) and all five op kinds.
fn engine_property(rng: &mut Rng, seed: u64, out: &mut Vec<Counterexample>) {
    let (sets, ways) = (8usize, 8usize);
    let pal = 5usize; // Geom::Wide palette size
    let ops = vec_of(rng, 16..48, |r| {
        let k = r.random_range(0..pal);
        match r.random_range(0..8u32) {
            0..=2 => EngineOp::Read(k),
            3 | 4 => EngineOp::Write(k),
            5 => EngineOp::FlushSet(r.random_range(0..sets)),
            6 => EngineOp::EvictFootprint(k),
            _ => EngineOp::FlushAll,
        }
    });
    if let Err(detail) = check_walk_program(Geom::Wide, "tree-plru", sets, ways, &ops) {
        out.push(Counterexample {
            invariant: "walk-stops-at-first-hit",
            config: format!("geom=wide policy=tree-plru sets={sets} ways={ways}"),
            trace: fmt_engine_ops(&ops),
            detail,
            seed: Some(seed),
        });
    }
}

/// `tree-consistency` on long random write/read histories with occasional
/// tampers.
fn tree_property(rng: &mut Rng, seed: u64, out: &mut Vec<Counterexample>) {
    let pal = PALETTE.len();
    let mut ops = vec_of(rng, 30..90, |r| {
        let k = r.random_range(0..pal);
        match r.random_range(0..16u32) {
            0..=7 => TreeOp::Write(k, r.next_u64() & 0xffff),
            8..=13 => TreeOp::Read(k),
            14 => TreeOp::TamperDigest(k),
            _ => TreeOp::TamperCounter(r.random_range(0..4usize)),
        }
    });
    // Always observe the final state.
    ops.extend((0..pal).map(TreeOp::Read));
    if let Err(detail) = check_tree_program(&ops) {
        out.push(Counterexample {
            invariant: "tree-consistency",
            config: "geom=tiny".into(),
            trace: fmt_tree_ops(&ops),
            detail,
            seed: Some(seed),
        });
    }
}

/// The three machine invariants on `MachineConfig::small`, random policy.
fn machine_property(rng: &mut Rng, seed: u64, out: &mut Vec<Counterexample>) {
    let policy = pick(
        rng,
        &[PolicyKind::TreePlru, PolicyKind::TrueLru, PolicyKind::Srrip],
    );
    let pal = MACH_PALETTE.len();
    let ops = vec_of(rng, 8..24, |r| {
        let core = r.random_range(0..2usize);
        let k = r.random_range(0..pal);
        match r.random_range(0..7u32) {
            0 | 1 => MachOp::Read(core, k),
            2 | 3 => MachOp::Write(core, k),
            4 => MachOp::Clflush(core, k),
            _ => MachOp::Pair(core, k),
        }
    });
    if let Err((invariant, detail)) = check_machine_program(MachineSize::Small, policy, &ops) {
        out.push(Counterexample {
            invariant,
            config: format!(
                "machine=small mee={}",
                crate::machine_spec::policy_kind_name(policy)
            ),
            trace: fmt_mach_ops(&ops),
            detail,
            seed: Some(seed),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_tier_is_clean_and_deterministic() {
        let cfg = PropConfig::new(3);
        let a = run_property_tier(&cfg);
        assert!(a.is_empty(), "property tier found: {a:?}");
        let b = run_property_tier(&cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn replay_runs_exactly_one_case() {
        let cfg = PropConfig {
            replay: Some(stream_seed(2019, 1)),
            ..PropConfig::new(100)
        };
        // Clean model: replaying any case finds nothing, quickly.
        assert!(run_property_tier(&cfg).is_empty());
    }
}
