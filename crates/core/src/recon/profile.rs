//! The complete §4 pipeline: profile an *unknown* MEE cache from timing
//! alone.
//!
//! The paper's reverse engineering combines the capacity sweep (§4.1,
//! Figure 4) with Algorithm 1's associativity discovery (§4.2). This module
//! runs the whole pipeline and squeezes one more quantity out of
//! Algorithm 1's by-product: the *index address set* holds up to
//! `associativity` addresses per alignment class, so its size divided by
//! the associativity estimates the number of classes — and each class
//! corresponds to one 16-line consecutive-versions-data-region alignment,
//! giving the set count and hence the capacity *exactly*:
//!
//! ```text
//! classes  = round(|index set| / ways)
//! sets     = classes × 16          (region spans 16 interleaved lines)
//! capacity = sets × ways × 64 B
//! ```
//!
//! For the paper's machine: 64 / 8 = 8 classes → 128 sets → 64 KiB, the
//! published answer. The tests point the pipeline at machines with
//! geometries the attacker does not know and check it recovers them.

use mee_types::{ModelError, LINES_PER_PAGE, LINE_SIZE};

use crate::recon::capacity::run_capacity_experiment;
use crate::recon::eviction::find_eviction_set;
use crate::setup::AttackSetup;
use crate::threshold::LatencyClassifier;

/// Lines spanned by one consecutive versions data region (8 versions +
/// 8 PD_Tag interleaved).
const REGION_LINES: usize = 2 * LINES_PER_PAGE / 8;

/// The organization inferred for the MEE cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeeProfile {
    /// Set associativity (Algorithm 1's eviction-set size).
    pub associativity: usize,
    /// Number of sets (from the index-set/associativity ratio).
    pub sets: usize,
    /// Line size in bytes (published, not inferred — the paper takes 64 B
    /// from \[Gueron 2016\]).
    pub line_size: usize,
    /// Candidate-set size at which the Figure-4 sweep saturated, as a
    /// corroborating capacity bound (`None` if the sweep stage was skipped
    /// or never saturated).
    pub sweep_saturation: Option<usize>,
}

impl MeeProfile {
    /// Capacity in bytes implied by the profile.
    pub fn capacity_bytes(&self) -> u64 {
        (self.sets * self.associativity * self.line_size) as u64
    }

    /// Whether the Figure-4 saturation point is consistent with the
    /// profiled capacity: saturation should occur within a factor of two of
    /// `classes × ways` candidates.
    pub fn sweep_consistent(&self) -> Option<bool> {
        let k = self.sweep_saturation? as u64;
        let expected = (self.sets / REGION_LINES * self.associativity) as u64;
        Some(k >= expected / 2 && k <= expected * 2)
    }
}

impl std::fmt::Display for MeeProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} KiB, {}-way set-associative, {} sets of {} B lines",
            self.capacity_bytes() / 1024,
            self.associativity,
            self.sets,
            self.line_size
        )
    }
}

/// Runs the full reverse-engineering pipeline against the machine in
/// `setup`.
///
/// `trials` controls the corroborating Figure-4 sweep (0 skips it);
/// `reps` is the eviction-test vote count for Algorithm 1.
///
/// # Errors
///
/// * Propagates machine errors.
/// * Returns [`ModelError::InvalidConfig`] if Algorithm 1 fails (e.g. a
///   replacement policy without recency structure).
pub fn profile_mee_cache(
    setup: &mut AttackSetup,
    trials: usize,
    reps: usize,
) -> Result<MeeProfile, ModelError> {
    let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);

    // Algorithm 1 over every candidate the tenant has: the index set must
    // be able to fill each alignment class to its associativity.
    let candidates = setup.trojan.candidates(setup.trojan.pages, 0);
    let eviction = {
        let mut cpu = setup.trojan_handle();
        find_eviction_set(&mut cpu, &candidates, &classifier, reps)?
    };
    let ways = eviction.associativity().max(1);
    let classes = ((eviction.index_set_size as f64 / ways as f64).round() as usize).max(1);
    let sets = classes * REGION_LINES;

    // Corroborating capacity sweep (Figure 4): find the first power-of-two
    // candidate count that always evicts.
    let mut sweep_saturation = None;
    if trials > 0 {
        for k in [2usize, 4, 8, 16, 32, 64, 128, 256] {
            let result = run_capacity_experiment(setup, &[k], trials, 0)?;
            if result.points[0].1 >= 0.99 {
                sweep_saturation = Some(k);
                break;
            }
        }
    }

    Ok(MeeProfile {
        associativity: ways,
        sets,
        line_size: LINE_SIZE,
        sweep_saturation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_cache::CacheConfig;
    use mee_machine::MachineConfig;

    fn profile_for(mee_cache: CacheConfig, seed: u64) -> MeeProfile {
        let mut cfg = MachineConfig::default().without_noise();
        cfg.mee_cache = mee_cache;
        let mut setup = AttackSetup::with_config(cfg, seed).unwrap();
        profile_mee_cache(&mut setup, 10, 3).unwrap()
    }

    #[test]
    fn recovers_the_papers_geometry() {
        let profile = profile_for(
            CacheConfig {
                sets: 128,
                ways: 8,
                line_size: 64,
            },
            201,
        );
        assert_eq!(profile.associativity, 8);
        assert_eq!(profile.sets, 128);
        assert_eq!(profile.capacity_bytes(), 64 * 1024);
        assert_eq!(profile.sweep_consistent(), Some(true));
        assert_eq!(
            profile.to_string(),
            "64 KiB, 8-way set-associative, 128 sets of 64 B lines"
        );
    }

    #[test]
    fn recovers_a_smaller_four_way_cache() {
        // A hypothetical 16 KiB, 4-way MEE cache (64 sets): nothing in the
        // pipeline may assume the paper's numbers.
        let profile = profile_for(
            CacheConfig {
                sets: 64,
                ways: 4,
                line_size: 64,
            },
            202,
        );
        assert_eq!(profile.associativity, 4);
        assert_eq!(profile.sets, 64);
        assert_eq!(profile.capacity_bytes(), 16 * 1024);
    }

    #[test]
    fn recovers_a_sixteen_way_cache() {
        // 128 KiB, 16-way, 128 sets.
        let profile = profile_for(
            CacheConfig {
                sets: 128,
                ways: 16,
                line_size: 64,
            },
            203,
        );
        assert_eq!(profile.associativity, 16);
        assert_eq!(profile.sets, 128);
        assert_eq!(profile.capacity_bytes(), 128 * 1024);
    }

    #[test]
    fn works_on_the_noisy_default_machine() {
        let mut setup = AttackSetup::new(204).unwrap();
        let profile = profile_mee_cache(&mut setup, 0, 3).unwrap();
        assert_eq!(profile.associativity, 8);
        assert_eq!(profile.sets, 128);
        assert_eq!(profile.sweep_saturation, None);
    }
}
