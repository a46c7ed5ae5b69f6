#![warn(missing_docs)]
//! **mee-spec** — executable invariant specs for the MEE covert-channel
//! model: a model-checking-lite harness that exhaustively enumerates every
//! short program over tiny configurations, a seeded property tier that
//! drives the same checkers at full-size geometries, and a differential
//! oracle for engine rewrites.
//!
//! # The invariant registry
//!
//! Eight named invariants, each with an executable oracle:
//!
//! | invariant | domain | statement |
//! |---|---|---|
//! | `walk-stops-at-first-hit` | engine | an MEE walk fills exactly the missed prefix of its ladder and stops at the first cached level |
//! | `clflush-spares-mee-cache` | machine | `clflush` evicts from L1/L2/LLC but never perturbs the MEE cache (the paper's channel premise) |
//! | `plru-within-lru` | cache | Tree-PLRU is exactly LRU at 2 ways and never evicts the MRU way |
//! | `victim-from-allowed-ways` | cache | `victim(set, allowed)` returns an allowed way for every non-empty `u64` way mask, after any history |
//! | `invalidated-way-preferred` | cache | a freshly invalidated way is the next victim under every deterministic policy |
//! | `prm-bounds-enforced` | machine | tree lines stay off-chip, LLC inclusion holds, MEE-cached lines stay inside the PRM tree region, and bad inputs fault with typed errors |
//! | `tree-consistency` | tree | verified reads are last-write-wins and tampers are detected with exact blast radii |
//! | `replay-identity` | machine | identically configured machines produce identical transcripts and state, with read-then-`clflush` pairs run through the sweep path on one and as split instructions on the other |
//!
//! # Tiers
//!
//! * **Exhaustive** ([`run_exhaustive`]): walks *every* program up to a
//!   [`Budget`]-bounded length over small op alphabets — no sampling, no
//!   seeds, total coverage of the small-configuration space.
//! * **Property** ([`run_property_tier`]): seeded random programs at
//!   geometries the exhaustive tier cannot afford, honoring the workspace's
//!   `MEE_PROP_CASES` / `MEE_PROP_SEED` knobs.
//!
//! Every violation is a [`Counterexample`] whose [`Display`] rendering is a
//! single line ending in a copy-pasteable replay command; [`replay`] runs a
//! recipe straight back through the same checker.
//!
//! [`Display`]: std::fmt::Display

pub mod cache_spec;
pub mod counterexample;
pub mod engine_spec;
pub mod enumerate;
pub mod machine_spec;
pub mod oracle;
pub mod property;
pub mod tree_spec;

pub use counterexample::{parse_recipe, Counterexample};
pub use oracle::{diff_transcripts, run_trace, DifferentialOracle, Transcript, TranscriptDiff};
pub use property::run_property_tier;

/// The eight named invariants, in walk order.
pub const INVARIANTS: [&str; 8] = [
    "walk-stops-at-first-hit",
    "clflush-spares-mee-cache",
    "plru-within-lru",
    "victim-from-allowed-ways",
    "invalidated-way-preferred",
    "prm-bounds-enforced",
    "tree-consistency",
    "replay-identity",
];

/// Per-domain program-length bounds for the exhaustive tier. Lengths are
/// exponents: one extra step multiplies a domain's program count by its
/// alphabet size.
#[derive(Debug, Clone)]
pub struct Budget {
    /// Max program length for bare-policy traces (invariants 4 and 5).
    pub policy_len: usize,
    /// Max program length for PLRU/LRU cache traces.
    pub cache_len: usize,
    /// Max program length for engine walks on the one-page tree.
    pub engine_tiny_len: usize,
    /// Max program length for engine walks on the wide tree.
    pub engine_wide_len: usize,
    /// Max program length for integrity-tree traces.
    pub tree_len: usize,
    /// Max program length for two-machine traces.
    pub machine_len: usize,
    /// Stop enumerating after this many counterexamples.
    pub max_counterexamples: usize,
}

impl Budget {
    /// Small budget sized for debug-mode `cargo test`: a few thousand
    /// programs per domain, a couple of seconds total.
    pub fn smoke() -> Self {
        Budget {
            policy_len: 3,
            cache_len: 3,
            engine_tiny_len: 3,
            engine_wide_len: 2,
            tree_len: 3,
            machine_len: 2,
            max_counterexamples: 5,
        }
    }

    /// CI budget sized for a release binary: every domain gains one program
    /// step (an alphabet-size multiplier in coverage).
    pub fn full() -> Self {
        Budget {
            policy_len: 4,
            cache_len: 4,
            engine_tiny_len: 4,
            engine_wide_len: 3,
            tree_len: 4,
            machine_len: 3,
            max_counterexamples: 10,
        }
    }
}

/// Runs every domain's exhaustive pass and collects all counterexamples
/// (up to `budget.max_counterexamples`).
pub fn run_exhaustive(budget: &Budget) -> Vec<Counterexample> {
    let mut out = Vec::new();
    type Pass = fn(&Budget, &mut Vec<Counterexample>);
    let passes: [Pass; 5] = [
        cache_spec::enumerate_policy_invariants,
        cache_spec::enumerate_plru_within_lru,
        engine_spec::enumerate_walk_invariant,
        tree_spec::enumerate_tree_invariant,
        machine_spec::enumerate_machine_invariants,
    ];
    for pass in passes {
        if out.len() >= budget.max_counterexamples {
            break;
        }
        pass(budget, &mut out);
    }
    out
}

/// Runs only the exhaustive pass that checks the named invariant and
/// returns its counterexamples.
///
/// # Errors
///
/// Returns a message for names outside [`INVARIANTS`].
pub fn run_invariant(name: &str, budget: &Budget) -> Result<Vec<Counterexample>, String> {
    let mut out = Vec::new();
    match name {
        "victim-from-allowed-ways" | "invalidated-way-preferred" => {
            cache_spec::enumerate_policy_invariants(budget, &mut out);
        }
        "plru-within-lru" => cache_spec::enumerate_plru_within_lru(budget, &mut out),
        "walk-stops-at-first-hit" => engine_spec::enumerate_walk_invariant(budget, &mut out),
        "tree-consistency" => tree_spec::enumerate_tree_invariant(budget, &mut out),
        "clflush-spares-mee-cache" | "prm-bounds-enforced" | "replay-identity" => {
            machine_spec::enumerate_machine_invariants(budget, &mut out);
        }
        other => {
            return Err(format!(
                "unknown invariant {other:?} (see `mee-spec --list`)"
            ))
        }
    }
    out.retain(|cx| cx.invariant == name);
    Ok(out)
}

/// Replays a recipe produced by [`Counterexample::recipe`] through the same
/// checker that generated it. Returns `None` when the trace now passes
/// (i.e. the bug is fixed).
///
/// # Errors
///
/// Returns a message for malformed recipes, configs, or traces.
pub fn replay(recipe: &str) -> Result<Option<Counterexample>, String> {
    let (invariant, config, trace) = parse_recipe(recipe)?;
    match invariant {
        "victim-from-allowed-ways" => {
            cache_spec::replay_policy_recipe("victim-from-allowed-ways", config, trace)
        }
        "invalidated-way-preferred" => {
            cache_spec::replay_policy_recipe("invalidated-way-preferred", config, trace)
        }
        "plru-within-lru" => cache_spec::replay_cache_recipe(config, trace),
        "walk-stops-at-first-hit" => engine_spec::replay_engine_recipe(config, trace),
        "tree-consistency" => tree_spec::replay_tree_recipe(config, trace),
        "clflush-spares-mee-cache" | "prm-bounds-enforced" | "replay-identity" => {
            machine_spec::replay_machine_recipe(config, trace)
        }
        other => Err(format!("unknown invariant {other:?} in recipe")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn invariant_names_are_unique_and_routable() {
        let mut names = INVARIANTS.to_vec();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), INVARIANTS.len());
        for name in INVARIANTS {
            // Every name must route somewhere (tiny budget keeps this fast).
            let budget = Budget {
                policy_len: 1,
                cache_len: 1,
                engine_tiny_len: 1,
                engine_wide_len: 1,
                tree_len: 1,
                machine_len: 1,
                max_counterexamples: 1,
            };
            run_invariant(name, &budget).unwrap();
        }
        assert!(run_invariant("nope", &Budget::smoke()).is_err());
    }

    #[test]
    fn replay_rejects_garbage() {
        assert!(replay("no separators here").is_err());
        assert!(replay("unknown-inv|a=b|f0").is_err());
    }

    #[test]
    fn replay_round_trips_a_passing_recipe() {
        let cx = replay("victim-from-allowed-ways|policy=tree-plru ways=4|f0 h1 i2").unwrap();
        assert!(cx.is_none(), "clean trace reported: {cx:?}");
    }
}
