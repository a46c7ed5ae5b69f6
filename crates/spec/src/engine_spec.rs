//! Engine-level invariant: `walk-stops-at-first-hit`.
//!
//! The paper's covert channel exists because the MEE counter-tree walk stops
//! climbing at the first cached level (challenge 2): a cached versions line
//! is the fast path the spy decodes as bit 0. This module drives a bare
//! [`Mee`] and cross-checks every [`MeeAccess`] against the cache state
//! observed *before* the op:
//!
//! 1. a non-root hit level must have been cached before the walk;
//! 2. a pre-cached versions line forces a `Versions` hit (nothing earlier in
//!    the walk can evict it: PD_Tag lines have even parity, versions lines
//!    odd, so with ≥2 sets they never collide);
//! 3. `filled` must be *exactly* the missed PD_Tag line plus the missed path
//!    lines strictly below the hit level — no redundant fetches above the
//!    hit, no skipped fetches below;
//! 4. `evicted` lines must have been resident before the op or filled by it;
//! 5. the per-level hit histogram must grow by exactly one at the hit level.
//!
//! [`MeeAccess`]: mee_engine::MeeAccess

use std::collections::HashSet;

use mee_cache::CacheConfig;
use mee_engine::Mee;
use mee_mem::{DramConfig, DramModel, PhysLayout};
use mee_tree::TreeLevel;
use mee_types::{Cycles, LineAddr, TimingConfig};

use crate::cache_spec::policy_by_name;
use crate::counterexample::{parse_config, require, require_usize, Counterexample};
use crate::enumerate::for_each_program;
use crate::Budget;

/// Tree geometry scale for the engine tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geom {
    /// One protected page (64 data lines): every walk shares the single L0
    /// line, maximizing cache interaction at minimal tree cost.
    Tiny,
    /// ~200 protected pages: the address palette spans distinct L0, L1, and
    /// L2 lines, so walks exercise every ladder level.
    Wide,
}

impl Geom {
    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "tiny" => Ok(Geom::Tiny),
            "wide" => Ok(Geom::Wide),
            other => Err(format!("unknown geometry {other:?} (expected tiny|wide)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Geom::Tiny => "tiny",
            Geom::Wide => "wide",
        }
    }

    fn prm_bytes(self) -> u64 {
        match self {
            Geom::Tiny => 8192,
            Geom::Wide => 1 << 20,
        }
    }

    /// Data-line offsets of the address palette, chosen to straddle version
    /// blocks (and for [`Geom::Wide`], L0/L1/L2 node boundaries).
    fn palette_offsets(self) -> &'static [u64] {
        match self {
            Geom::Tiny => &[0, 8, 63],
            // Same block pair, next page (new L0), page 8 (new L1), page 64
            // (new L2).
            Geom::Wide => &[0, 8, 64, 512, 4096],
        }
    }
}

/// One operation against a bare [`Mee`]. Address operands are palette
/// indices, not raw lines, so traces stay geometry-portable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineOp {
    /// Protected read of palette address `k`.
    Read(usize),
    /// Protected write of palette address `k`.
    Write(usize),
    /// Whole-MEE-cache flush.
    FlushAll,
    /// Flush one MEE-cache set.
    FlushSet(usize),
    /// Drop palette address `k`'s versions + PD_Tag lines (EPC-eviction
    /// footprint).
    EvictFootprint(usize),
}

/// Formats an engine trace (`r0 w1 F s0 e2`).
pub fn fmt_engine_ops(ops: &[EngineOp]) -> String {
    let tokens: Vec<String> = ops
        .iter()
        .map(|op| match op {
            EngineOp::Read(k) => format!("r{k}"),
            EngineOp::Write(k) => format!("w{k}"),
            EngineOp::FlushAll => "F".to_string(),
            EngineOp::FlushSet(s) => format!("s{s}"),
            EngineOp::EvictFootprint(k) => format!("e{k}"),
        })
        .collect();
    tokens.join(" ")
}

/// Parses the output of [`fmt_engine_ops`].
///
/// # Errors
///
/// Returns a message naming the first malformed token.
pub fn parse_engine_ops(trace: &str) -> Result<Vec<EngineOp>, String> {
    trace
        .split_whitespace()
        .map(|tok| {
            let bad =
                || format!("malformed engine op {tok:?} (expected r<k>, w<k>, F, s<n>, or e<k>)");
            if tok == "F" {
                return Ok(EngineOp::FlushAll);
            }
            let n: usize = tok.get(1..).and_then(|n| n.parse().ok()).ok_or_else(bad)?;
            match tok.as_bytes().first() {
                Some(b'r') => Ok(EngineOp::Read(n)),
                Some(b'w') => Ok(EngineOp::Write(n)),
                Some(b's') => Ok(EngineOp::FlushSet(n)),
                Some(b'e') => Ok(EngineOp::EvictFootprint(n)),
                _ => Err(bad()),
            }
        })
        .collect()
}

fn build_mee(
    geom: Geom,
    policy: &str,
    sets: usize,
    ways: usize,
) -> Result<(Mee, DramModel), String> {
    let layout = PhysLayout::new(4096, geom.prm_bytes()).map_err(|e| e.to_string())?;
    let geo = mee_tree::TreeGeometry::new(layout.prm_data(), layout.prm_tree())
        .map_err(|e| e.to_string())?;
    let cache_cfg = CacheConfig {
        sets,
        ways,
        line_size: 64,
    };
    let mee = Mee::new(
        geo,
        0x2019,
        cache_cfg,
        policy_by_name(policy)?,
        TimingConfig::noiseless(),
    );
    let dram = DramModel::new(DramConfig {
        jitter_std: 0.0,
        ..DramConfig::default()
    })
    .map_err(|e| e.to_string())?;
    Ok((mee, dram))
}

fn palette(geom: Geom, mee: &Mee) -> Vec<LineAddr> {
    let base = mee.geometry().data_region().base().line();
    geom.palette_offsets()
        .iter()
        .map(|&k| LineAddr::new(base.raw() + k))
        .collect()
}

/// Runs `ops` on a fresh [`Mee`] and checks every walk against the five
/// clauses in the module docs.
///
/// Requires `sets >= 2` (clause 2 relies on PD_Tag/versions parity
/// separation).
///
/// # Errors
///
/// Returns the violation detail, or a message for out-of-range operands.
pub fn check_walk_program(
    geom: Geom,
    policy: &str,
    sets: usize,
    ways: usize,
    ops: &[EngineOp],
) -> Result<(), String> {
    if sets < 2 {
        return Err("walk specs need sets >= 2 (PD_Tag/versions parity separation)".into());
    }
    let (mut mee, mut dram) = build_mee(geom, policy, sets, ways)?;
    let pal = palette(geom, &mee);
    let mut now = 0u64;
    for (i, op) in ops.iter().enumerate() {
        // Arrival times far apart: pipeline queueing never perturbs latency.
        now += 1_000_000;
        let addr = |k: usize| -> Result<LineAddr, String> {
            pal.get(k)
                .copied()
                .ok_or_else(|| format!("step {i}: palette index {k} out of range"))
        };
        match *op {
            EngineOp::Read(k) | EngineOp::Write(k) => {
                let line = addr(k)?;
                let geo = *mee.geometry();
                let path = geo.walk_path(line);
                let tag_line = geo.pd_tag_line(path.version);
                let ladder_lines = [
                    geo.version_line(path.version),
                    geo.level_line(TreeLevel::L0, path.node_at(TreeLevel::L0)),
                    geo.level_line(TreeLevel::L1, path.node_at(TreeLevel::L1)),
                    geo.level_line(TreeLevel::L2, path.node_at(TreeLevel::L2)),
                ];
                let pre_tag = mee.cache().contains(tag_line);
                let pre: Vec<bool> = ladder_lines
                    .iter()
                    .map(|&l| mee.cache().contains(l))
                    .collect();
                let resident_before: HashSet<LineAddr> = mee.cache().resident_lines().collect();
                let stats_before = mee.stats();

                let access = match *op {
                    EngineOp::Read(_) => mee
                        .read(line, Cycles::new(now), &mut dram)
                        .map(|r| r.access),
                    _ => mee.write(line, 0xd1 + i as u64, Cycles::new(now), &mut dram),
                }
                .map_err(|e| format!("step {i}: unexpected walk error: {e}"))?;

                let hl = access.hit_level.ladder_index();
                // (1) the hit level's line must have been cached already.
                if hl < 4 && !pre[hl] {
                    return Err(format!(
                        "step {i}: walk claimed a {} but that line was not cached",
                        access.hit_level
                    ));
                }
                // (2) a cached versions line must stop the walk immediately.
                if pre[0] && hl != 0 {
                    return Err(format!(
                        "step {i}: versions line was cached but the walk climbed to {}",
                        access.hit_level
                    ));
                }
                // (3) filled = missed tag + missed levels strictly below the
                // hit, nothing else.
                let mut expected: Vec<LineAddr> = Vec::new();
                if !pre_tag {
                    expected.push(tag_line);
                }
                expected.extend_from_slice(&ladder_lines[..hl.min(4)]);
                let mut got = access.filled.to_vec();
                got.sort_unstable();
                expected.sort_unstable();
                if got != expected {
                    return Err(format!(
                        "step {i}: hit at {} but filled {:?}, expected exactly {:?}",
                        access.hit_level, access.filled, expected
                    ));
                }
                // (4) evictions must come from somewhere real.
                for e in &access.evicted {
                    if !resident_before.contains(e) && !access.filled.contains(e) {
                        return Err(format!(
                            "step {i}: evicted line {} was neither resident nor filled",
                            e.raw()
                        ));
                    }
                }
                // (5) histogram bumps exactly once, at the hit level.
                let stats = mee.stats();
                for level in 0..5 {
                    let delta = stats.hits_by_level[level] - stats_before.hits_by_level[level];
                    let want = u64::from(level == hl);
                    if delta != want {
                        return Err(format!(
                            "step {i}: hit histogram level {level} moved by {delta}, expected {want}"
                        ));
                    }
                }
            }
            EngineOp::FlushAll => {
                mee.flush_cache();
                if mee.cache().occupancy() != 0 {
                    return Err(format!("step {i}: flush_cache left lines resident"));
                }
            }
            EngineOp::FlushSet(s) => {
                if s >= sets {
                    return Err(format!("step {i}: set {s} out of range"));
                }
                mee.flush_cache_set(s);
                if mee.cache().set_occupancy(s) != 0 {
                    return Err(format!("step {i}: flush_cache_set left lines in set {s}"));
                }
            }
            EngineOp::EvictFootprint(k) => {
                let line = addr(k)?;
                mee.evict_walk_footprint(line);
                let geo = *mee.geometry();
                let path = geo.walk_path(line);
                if mee.cache().contains(geo.version_line(path.version))
                    || mee.cache().contains(geo.pd_tag_line(path.version))
                {
                    return Err(format!(
                        "step {i}: walk footprint of palette {k} still cached after eviction"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Exhaustively checks `walk-stops-at-first-hit` on both geometries with a
/// 2-set × 2-way MEE cache (small enough that walks constantly evict each
/// other's lines).
pub fn enumerate_walk_invariant(budget: &Budget, out: &mut Vec<Counterexample>) {
    for (geom, max_len) in [
        (Geom::Tiny, budget.engine_tiny_len),
        (Geom::Wide, budget.engine_wide_len),
    ] {
        let pal = geom.palette_offsets().len();
        let sets = 2;
        // Symbols: reads, writes, flush-all, per-set flush, footprint evict.
        let symbols = 2 * pal + 1 + sets + pal;
        let decode = |s: usize| -> EngineOp {
            if s < pal {
                EngineOp::Read(s)
            } else if s < 2 * pal {
                EngineOp::Write(s - pal)
            } else if s == 2 * pal {
                EngineOp::FlushAll
            } else if s < 2 * pal + 1 + sets {
                EngineOp::FlushSet(s - 2 * pal - 1)
            } else {
                EngineOp::EvictFootprint(s - 2 * pal - 1 - sets)
            }
        };
        let mut go = true;
        for_each_program(symbols, max_len, |prog| {
            let ops: Vec<EngineOp> = prog.iter().map(|&s| decode(s)).collect();
            if let Err(detail) = check_walk_program(geom, "tree-plru", sets, 2, &ops) {
                out.push(Counterexample {
                    invariant: "walk-stops-at-first-hit",
                    config: format!("geom={} policy=tree-plru sets={sets} ways=2", geom.name()),
                    trace: fmt_engine_ops(&ops),
                    detail,
                    seed: None,
                });
                go = out.len() < budget.max_counterexamples;
            }
            go
        });
        if !go {
            return;
        }
    }
}

/// Replays a `walk-stops-at-first-hit` recipe.
///
/// # Errors
///
/// Returns a message for malformed configs or traces.
pub fn replay_engine_recipe(config: &str, trace: &str) -> Result<Option<Counterexample>, String> {
    let map = parse_config(config)?;
    let geom = Geom::parse(require(&map, "geom")?)?;
    let policy = require(&map, "policy")?.to_owned();
    let sets = require_usize(&map, "sets")?;
    let ways = require_usize(&map, "ways")?;
    crate::cache_spec::check_geometry(&policy, sets, ways)?;
    let ops = parse_engine_ops(trace)?;
    Ok(check_walk_program(geom, &policy, sets, ways, &ops)
        .err()
        .map(|detail| Counterexample {
            invariant: "walk-stops-at-first-hit",
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
    fn engine_ops_round_trip() {
        let ops = vec![
            EngineOp::Read(0),
            EngineOp::Write(2),
            EngineOp::FlushAll,
            EngineOp::FlushSet(1),
            EngineOp::EvictFootprint(0),
        ];
        let s = fmt_engine_ops(&ops);
        assert_eq!(s, "r0 w2 F s1 e0");
        assert_eq!(parse_engine_ops(&s).unwrap(), ops);
        assert!(parse_engine_ops("q3").is_err());
    }

    #[test]
    fn cold_then_warm_walk_passes() {
        // Cold read climbs to the root; the immediate re-read (after the
        // first walk filled the versions line) must stop at Versions.
        let ops = parse_engine_ops("r0 r0").unwrap();
        check_walk_program(Geom::Tiny, "tree-plru", 2, 2, &ops).unwrap();
    }

    #[test]
    fn footprint_eviction_then_read_passes() {
        let ops = parse_engine_ops("r0 e0 r0 F r0").unwrap();
        check_walk_program(Geom::Tiny, "tree-plru", 2, 2, &ops).unwrap();
    }

    #[test]
    fn wide_palette_spans_distinct_tree_nodes() {
        let (mee, _) = build_mee(Geom::Wide, "tree-plru", 2, 2).unwrap();
        let pal = palette(Geom::Wide, &mee);
        let geo = mee.geometry();
        let l0: Vec<u64> = pal
            .iter()
            .map(|&l| geo.walk_path(l).node_at(TreeLevel::L0))
            .collect();
        let l2: Vec<u64> = pal
            .iter()
            .map(|&l| geo.walk_path(l).node_at(TreeLevel::L2))
            .collect();
        assert!(l0[2] != l0[0], "palette[2] should sit under a new L0 node");
        assert!(l2[4] != l2[0], "palette[4] should sit under a new L2 node");
    }

    #[test]
    fn single_set_config_is_rejected() {
        let ops = parse_engine_ops("r0").unwrap();
        assert!(check_walk_program(Geom::Tiny, "tree-plru", 1, 2, &ops).is_err());
    }
}
