//! Algorithm 1: finding the eviction address set (paper §4.2).
//!
//! The algorithm discovers, from timing alone, a set of virtual addresses
//! whose versions lines all land in one MEE-cache set; its size is the
//! associativity. The paper's machine (and our default) yields 8.

use mee_machine::CoreHandle;
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::threshold::LatencyClassifier;

/// Output of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvictionSetResult {
    /// Addresses whose versions lines conflict in one MEE-cache set.
    pub eviction_set: Vec<VirtAddr>,
    /// The test address the eviction set evicts.
    pub test_address: VirtAddr,
    /// Size of the intermediate index address set.
    pub index_set_size: usize,
}

impl EvictionSetResult {
    /// The measured associativity: the eviction set size.
    pub fn associativity(&self) -> usize {
        self.eviction_set.len()
    }
}

/// The `eviction test` subroutine of Algorithm 1 (lines 1–11): loads the
/// victim's versions line, sweeps `set`, then re-times the victim. Returns
/// the re-access latency; a versions miss means `set` evicted the victim.
///
/// # Errors
///
/// Propagates machine errors.
pub fn eviction_test(
    cpu: &mut CoreHandle<'_>,
    set: &[VirtAddr],
    victim: VirtAddr,
) -> Result<Cycles, ModelError> {
    // access victim; flush victim (load versions data into the MEE cache
    // but flush the data from the LLC).
    cpu.read_flush(victim)?;
    cpu.mfence();
    let _ = cpu.sweep_read_flush(set)?;
    cpu.mfence();
    // measure time to access victim; flush victim.
    cpu.read_flush(victim)
}

/// Majority-voted eviction test: runs [`eviction_test`] `reps` times and
/// reports whether the victim was evicted in the majority of runs. On a
/// noisy machine single samples misclassify occasionally (§4's experiments
/// were all repeated).
///
/// # Errors
///
/// Propagates machine errors.
pub fn eviction_test_voted(
    cpu: &mut CoreHandle<'_>,
    set: &[VirtAddr],
    victim: VirtAddr,
    classifier: &LatencyClassifier,
    reps: usize,
) -> Result<bool, ModelError> {
    assert!(reps >= 1, "at least one repetition required");
    let mut misses = 0usize;
    for _ in 0..reps {
        let t = eviction_test(cpu, set, victim)?;
        if classifier.is_versions_miss(t) {
            misses += 1;
        }
    }
    Ok(misses * 2 > reps)
}

/// Algorithm 1 proper: finds an eviction address set among `candidates`
/// (4 KiB-stride virtual addresses with a common in-page offset).
///
/// Phase 1 (lines 12–18): grow the *index address set* with every candidate
/// that survives an eviction test against the current index set — once a
/// cache set is full, further same-set candidates are evicted and excluded.
///
/// Phase 2 (lines 19–23): find a *test address* among the excluded
/// candidates that the index set reliably evicts.
///
/// Phase 3 (lines 24–34): for each index-set member, re-run the eviction
/// test with that member excluded; if the test address now survives, the
/// member belongs to the eviction address set.
///
/// # Errors
///
/// * Propagates machine errors.
/// * Returns [`ModelError::InvalidConfig`] if no test address could be
///   found (candidate set too small — the paper requires ≥ 64).
pub fn find_eviction_set(
    cpu: &mut CoreHandle<'_>,
    candidates: &[VirtAddr],
    classifier: &LatencyClassifier,
    reps: usize,
) -> Result<EvictionSetResult, ModelError> {
    // Phase 1: build the index address set.
    let mut index_set: Vec<VirtAddr> = Vec::new();
    let mut excluded: Vec<VirtAddr> = Vec::new();
    for &candidate in candidates {
        if eviction_test_voted(cpu, &index_set, candidate, classifier, reps)? {
            excluded.push(candidate);
        } else {
            index_set.push(candidate);
        }
    }

    // Phase 2: find test addresses the index set evicts. A single test
    // address can be unlucky — its MEE-cache set may also host L0/L1 lines
    // of other index members, whose interference defeats the peeling step —
    // so several are tried (the paper's experiments were likewise repeated
    // until consistent).
    let mut tried_any = false;
    let mut tries = 0usize;
    // Peeling an unlucky test address is expensive; after this many failed
    // peels the replacement policy is simply not giving Algorithm 1 any
    // grip (e.g. scan-resistant insertion), so give up.
    const MAX_PEEL_ATTEMPTS: usize = 40;
    let mut best: Option<(Vec<VirtAddr>, VirtAddr)> = None;
    for &test in &excluded {
        if tries >= MAX_PEEL_ATTEMPTS {
            break;
        }
        warm(cpu, &index_set)?;
        if !eviction_test_voted(cpu, &index_set, test, classifier, reps)? {
            continue;
        }
        tried_any = true;
        tries += 1;

        // Phase 3: peel off index-set members one at a time, then *iterate*
        // the peel on its own output until it reaches a fixpoint. A single
        // pass over the full index set can over-accept badly: every removal
        // perturbs which L0/L1 lines the sweep drags through the test's
        // cache set, and near the eviction boundary that chaos "rescues"
        // unrelated members. Re-peeling over the much smaller set removes
        // that pollution (standard eviction-set minimization).
        let mut current: Vec<VirtAddr> = index_set.clone();
        for _round in 0..6 {
            let mut kept = Vec::new();
            for (i, &target) in current.iter().enumerate() {
                warm(cpu, &current)?;
                let reduced: Vec<VirtAddr> = current
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &a)| a)
                    .collect();
                if !eviction_test_voted(cpu, &reduced, test, classifier, reps)? {
                    kept.push(target);
                }
            }
            if kept.is_empty() || kept.len() == current.len() {
                if !kept.is_empty() {
                    current = kept;
                }
                break;
            }
            current = kept;
        }
        // The minimized set must still evict the test address on its own.
        warm(cpu, &current)?;
        let verified = !current.is_empty()
            && current.len() < index_set.len()
            && eviction_test_voted(cpu, &current, test, classifier, reps)?;
        if verified {
            let better = best
                .as_ref()
                .map(|(b, _)| current.len() < b.len())
                .unwrap_or(true);
            if better {
                best = Some((current, test));
            }
        }
        // A plausible associativity (a small conflicting set) is accepted;
        // otherwise the test address was polluted — try another one.
        if best
            .as_ref()
            .is_some_and(|(b, _)| (2..=16).contains(&b.len()))
        {
            break;
        }
    }

    match best {
        Some((eviction_set, test_address)) if !eviction_set.is_empty() => Ok(EvictionSetResult {
            eviction_set,
            test_address,
            index_set_size: index_set.len(),
        }),
        _ if tried_any => Err(ModelError::InvalidConfig {
            reason: "eviction-set peeling failed for every test address; \
                     retry with a different candidate set"
                .into(),
        }),
        _ => Err(ModelError::InvalidConfig {
            reason: format!(
                "no test address found among {} candidates ({} excluded); \
                 use at least 64 candidates",
                candidates.len(),
                excluded.len()
            ),
        }),
    }
}

/// Accesses and flushes every address (lines 20–22 / 26–28 of Algorithm 1).
fn warm(cpu: &mut CoreHandle<'_>, set: &[VirtAddr]) -> Result<(), ModelError> {
    let _ = cpu.sweep_read_flush(set)?;
    cpu.mfence();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::AttackSetup;

    fn classifier(setup: &AttackSetup) -> LatencyClassifier {
        LatencyClassifier::from_timing(&setup.machine.config().timing)
    }

    #[test]
    fn eviction_test_detects_survival_and_eviction() {
        let mut setup = AttackSetup::quiet(31).unwrap();
        let cls = classifier(&setup);
        let victim = setup.trojan.candidate(0, 0);
        // Empty sweep: victim survives.
        let mut cpu = setup.trojan_handle();
        let t = eviction_test(&mut cpu, &[], victim).unwrap();
        assert!(cls.is_versions_hit(t), "victim evicted by empty set: {t}");
    }

    #[test]
    fn algorithm1_recovers_associativity_8() {
        let mut setup = AttackSetup::quiet(32).unwrap();
        let cls = classifier(&setup);
        let candidates = setup.trojan.candidates(160, 0);
        let mut cpu = setup.trojan_handle();
        let result = find_eviction_set(&mut cpu, &candidates, &cls, 1).unwrap();
        assert_eq!(
            result.associativity(),
            8,
            "expected 8 ways, got {} (index set {})",
            result.associativity(),
            result.index_set_size
        );
    }

    #[test]
    fn eviction_set_members_share_the_test_sets_conflict() {
        let mut setup = AttackSetup::quiet(33).unwrap();
        let cls = classifier(&setup);
        let candidates = setup.trojan.candidates(160, 2);
        let result = {
            let mut cpu = setup.trojan_handle();
            // 3 repetitions: even noiseless, tree-PLRU's state-dependence
            // makes single-shot eviction tests occasionally misclassify.
            find_eviction_set(&mut cpu, &candidates, &cls, 3).unwrap()
        };
        // Ground truth: every member's versions line must map to the same
        // MEE-cache set as the test address's.
        let geo = *setup.machine.mee().geometry();
        let sets = setup.machine.mee().cache().config().sets;
        let set_of = |va: VirtAddr| {
            let pa = setup.machine.translate(setup.trojan.proc, va).unwrap();
            let block = geo.walk_path(pa.line()).version;
            geo.version_line(block).set_index(sets)
        };
        let expected = set_of(result.test_address);
        for &member in &result.eviction_set {
            assert_eq!(set_of(member), expected, "member in wrong set");
        }
    }

    #[test]
    fn eviction_set_actually_evicts() {
        let mut setup = AttackSetup::quiet(34).unwrap();
        let cls = classifier(&setup);
        let candidates = setup.trojan.candidates(160, 0);
        let (eviction_set, test) = {
            let mut cpu = setup.trojan_handle();
            let r = find_eviction_set(&mut cpu, &candidates, &cls, 1).unwrap();
            (r.eviction_set, r.test_address)
        };
        let mut cpu = setup.trojan_handle();
        // The full eviction set evicts the test address...
        let t = eviction_test(&mut cpu, &eviction_set, test).unwrap();
        assert!(cls.is_versions_miss(t), "full set failed to evict: {t}");
        // ...but any 7 of them do not (associativity is exactly 8).
        let seven = &eviction_set[..7];
        let t = eviction_test(&mut cpu, seven, test).unwrap();
        assert!(cls.is_versions_hit(t), "7 addresses already evict: {t}");
    }

    #[test]
    fn too_few_candidates_reports_helpful_error() {
        let mut setup = AttackSetup::quiet(35).unwrap();
        let cls = classifier(&setup);
        let candidates = setup.trojan.candidates(8, 0);
        let mut cpu = setup.trojan_handle();
        let err = find_eviction_set(&mut cpu, &candidates, &cls, 1).unwrap_err();
        assert!(err.to_string().contains("64 candidates"));
    }

    #[test]
    fn works_on_noisy_machine_with_voting() {
        let mut setup = AttackSetup::new(36).unwrap();
        let cls = classifier(&setup);
        let candidates = setup.trojan.candidates(160, 1);
        let mut cpu = setup.trojan_handle();
        let result = find_eviction_set(&mut cpu, &candidates, &cls, 3).unwrap();
        // Voting keeps the answer within one of the truth even under noise.
        let a = result.associativity();
        assert!((7..=9).contains(&a), "associativity {a} too far off");
    }
}
