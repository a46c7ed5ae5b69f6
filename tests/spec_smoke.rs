//! Integration smoke for the `mee-spec` invariant harness: the exhaustive
//! tier at smoke budget must be counterexample-free, pinned pre-fix recipes
//! must replay clean, and the differential oracle must both round-trip a
//! real two-actor covert session (identical builds ⇒ empty diff) and stay
//! *sensitive* (different MEE policies ⇒ non-empty diff). Malformed replay
//! recipes are one-line errors, and DESIGN.md's invariant table follows the
//! registry.

use mee_covert::machine::PolicyKind;
use mee_covert::spec::oracle::{
    channel_machine, covert_exchange_trace, decode_exchange, run_trace, DifferentialOracle,
};
use mee_covert::spec::{replay, run_exhaustive, Budget};

#[test]
fn exhaustive_smoke_budget_finds_nothing() {
    let found = run_exhaustive(&Budget::smoke());
    assert!(
        found.is_empty(),
        "exhaustive tier found counterexamples:\n{}",
        found
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// The traces that exposed the pre-fix `on_invalidate` bugs, as replayable
/// recipes. They must pass forever; a regression turns them back into
/// counterexamples with one-line repro commands.
#[test]
fn pinned_prefix_recipes_replay_clean() {
    let recipes = [
        // Tree-PLRU: stale tree bits after invalidate steered the victim
        // away from the freed way.
        "invalidated-way-preferred|policy=tree-plru ways=2|f0 f1 i1",
        "invalidated-way-preferred|policy=tree-plru ways=4|f0 f1 f2 f3 i2",
        // True-LRU: the invalidated way must be demoted to LRU, keeping the
        // 2-way PLRU/LRU equivalence intact across invalidates.
        "invalidated-way-preferred|policy=lru ways=4|f0 f1 f2 f3 i0",
        "plru-within-lru|mode=equiv sets=1 ways=2|a0 a1 i0 a2 a0 a1",
        // Masked fills must obey the way mask after any history.
        "victim-from-allowed-ways|policy=tree-plru ways=4|f0 h0 f1 f2 f3 h2",
    ];
    for recipe in recipes {
        match replay(recipe) {
            Ok(None) => {}
            Ok(Some(cx)) => panic!("pinned recipe regressed: {cx}"),
            Err(e) => panic!("pinned recipe {recipe:?} failed to parse: {e}"),
        }
    }
}

#[test]
fn differential_oracle_round_trips_a_covert_session() {
    let sent = [true, false, true, true, false, false, true, false];
    let x = covert_exchange_trace(&sent);

    // Identical builds: the diff must be exactly empty.
    let oracle = DifferentialOracle::new(
        || channel_machine(PolicyKind::TreePlru),
        || channel_machine(PolicyKind::TreePlru),
    );
    let diff = oracle.run(&x.trace).unwrap();
    assert!(diff.is_empty(), "identical machines diverged: {diff}");

    // And the session itself must actually carry the message.
    let (mut m, procs) = channel_machine(PolicyKind::TreePlru).unwrap();
    let t = run_trace(&mut m, &procs, &x.trace);
    assert_eq!(decode_exchange(&t, &x), sent, "channel decode failed");
}

/// The oracle is only useful if it *catches* behavioural drift: swapping
/// the MEE replacement policy must show up in the transcript of a session
/// whose whole point is MEE-cache eviction timing. The channel machine's
/// MEE cache has 2 ways, where tree-PLRU is exactly LRU (`plru-within-lru`)
/// and SRRIP picks the same victims on this trace, so the drift is to
/// seeded random eviction.
#[test]
fn differential_oracle_detects_policy_drift() {
    let x = covert_exchange_trace(&[true, false, true, false]);
    let oracle = DifferentialOracle::new(
        || channel_machine(PolicyKind::TreePlru),
        || channel_machine(PolicyKind::Random { seed: 1 }),
    );
    let diff = oracle.run(&x.trace).unwrap();
    assert!(
        !diff.is_empty(),
        "Tree-PLRU vs random eviction produced identical transcripts on an eviction-timing trace"
    );
}

/// A recipe naming a policy the model does not have (such as `fifo` or
/// `nru`), a geometry its checker cannot build, or a malformed op is a
/// one-line replay error — never a panic, and never a reported
/// counterexample.
#[test]
fn replay_rejects_unknown_policies_and_impossible_geometries() {
    let recipes = [
        ("victim-from-allowed-ways|policy=fifo ways=2|f0 f1", "fifo"),
        (
            "invalidated-way-preferred|policy=nru ways=2|f0 f1 i0",
            "nru",
        ),
        ("plru-within-lru|mode=mru policy=fifo ways=4|a0 a1", "fifo"),
        (
            "walk-stops-at-first-hit|geom=tiny policy=nru sets=2 ways=2|r0",
            "nru",
        ),
        ("replay-identity|machine=tiny mee=fifo|r0.0", "fifo"),
        (
            "victim-from-allowed-ways|policy=tree-plru ways=3|f0",
            "ways",
        ),
        ("victim-from-allowed-ways|policy=lru ways=64|f0", "ways"),
        (
            "invalidated-way-preferred|policy=lru ways=2|f0 f1 f5 i0",
            "way",
        ),
        ("plru-within-lru|mode=equiv sets=3 ways=2|a0", "sets"),
        ("plru-within-lru|mode=equiv sets=1 ways=2|m4:0", "mask"),
        // A non-ASCII op token is malformed, not a slice panic.
        (
            "victim-from-allowed-ways|policy=lru ways=2|\u{e9}0",
            "malformed",
        ),
        (
            "walk-stops-at-first-hit|geom=tiny policy=lru sets=2 ways=2|\u{e9}0",
            "malformed",
        ),
        (
            "replay-identity|machine=tiny mee=lru|\u{e9}0.0",
            "malformed",
        ),
    ];
    for (recipe, names) in recipes {
        match replay(recipe) {
            Err(msg) => {
                assert!(!msg.contains('\n'), "{recipe:?}: multi-line error {msg:?}");
                assert!(
                    msg.contains(names),
                    "{recipe:?}: {msg:?} names no {names:?}"
                );
            }
            Ok(result) => panic!("{recipe:?} replayed as {result:?}"),
        }
    }
}

/// DESIGN.md's "Invariant specs" table lists exactly the registry's
/// invariants, in registry order.
#[test]
fn design_invariant_table_matches_the_registry() {
    let design = include_str!("../DESIGN.md");
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("Invariant specs\n"))
        .expect("DESIGN.md has an \"Invariant specs\" section");
    let documented: Vec<&str> = section
        .lines()
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .collect();
    assert_eq!(documented, mee_covert::spec::INVARIANTS);
}
