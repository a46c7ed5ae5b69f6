//! The MEE cache capacity experiment (paper §4.1, Figure 4).

use mee_types::{Cycles, ModelError, LINES_PER_PAGE, LINE_SIZE};

use crate::setup::AttackSetup;
use crate::threshold::LatencyClassifier;

/// Result of the Figure-4 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityResult {
    /// `(candidate-set size, eviction probability)` pairs.
    pub points: Vec<(usize, f64)>,
    /// Trials behind each probability.
    pub trials: usize,
    /// Capacity inferred from the saturation point, if one was reached:
    /// `k_sat × 16 lines × 64 B` (the paper's §4.1 arithmetic — each
    /// candidate pins one cache way's worth of one consecutive versions
    /// data region, which spans 16 interleaved lines).
    pub estimated_capacity_bytes: Option<u64>,
}

impl CapacityResult {
    /// The smallest candidate-set size whose eviction probability reached
    /// `level`.
    pub fn saturation_point(&self, level: f64) -> Option<usize> {
        self.points
            .iter()
            .find(|(_, p)| *p >= level)
            .map(|(k, _)| *k)
    }
}

/// Runs one eviction trial with `k` fresh candidate pages: primes every
/// candidate's versions line into the MEE cache, then re-probes all of them
/// and reports whether any probed as a versions miss (i.e. was evicted).
///
/// # Errors
///
/// Propagates machine errors.
pub fn eviction_trial(
    setup: &mut AttackSetup,
    k: usize,
    offset: usize,
    classifier: &LatencyClassifier,
) -> Result<bool, ModelError> {
    let proc = setup.trojan.proc;
    let base = setup.scratch_pages(proc, k)?;
    let candidates: Vec<_> = (0..k)
        .map(|i| base + (i * mee_types::PAGE_SIZE + offset * mee_types::VERSION_BLOCK_SIZE) as u64)
        .collect();

    let mut cpu = setup.trojan_handle();
    // Prime: load every candidate's versions line (and flush the data line
    // so later probes reach the MEE again).
    for &c in &candidates {
        cpu.read_flush(c)?;
    }
    cpu.mfence();
    // Probe: any versions miss means something was evicted.
    let mut any_evicted = false;
    for &c in &candidates {
        let lat = cpu.read_flush(c)?;
        if classifier.is_versions_miss(lat) {
            any_evicted = true;
        }
    }
    setup.release_scratch(proc, base, k)?;
    Ok(any_evicted)
}

/// Runs the full Figure-4 sweep: for each candidate-set size in `sizes`,
/// `trials` independent trials (fresh, randomly placed pages each time),
/// reporting the eviction probability.
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_capacity_experiment(
    setup: &mut AttackSetup,
    sizes: &[usize],
    trials: usize,
    offset: usize,
) -> Result<CapacityResult, ModelError> {
    let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
    let mut points = Vec::with_capacity(sizes.len());
    for &k in sizes {
        let mut evictions = 0usize;
        for _ in 0..trials {
            if eviction_trial(setup, k, offset, &classifier)? {
                evictions += 1;
            }
        }
        points.push((k, evictions as f64 / trials as f64));
    }
    let estimated_capacity_bytes = points
        .iter()
        .find(|(_, p)| *p >= 0.99)
        .map(|(k, _)| *k as u64 * 2 * (LINES_PER_PAGE / 8) as u64 * LINE_SIZE as u64);
    Ok(CapacityResult {
        points,
        trials,
        estimated_capacity_bytes,
    })
}

/// Nominal per-candidate footprint used in the capacity arithmetic: the 16
/// interleaved version/PD_Tag lines of one consecutive versions data region.
pub const REGION_LINES: usize = 16;

/// Convenience: the capacity a saturation point `k` implies.
pub fn capacity_from_saturation(k: usize) -> u64 {
    (k * REGION_LINES * LINE_SIZE) as u64
}

/// The probability mass function sanity check used in tests: expected
/// eviction probability if candidates fall uniformly into `classes`
/// alignment classes of `ways` ways each — eviction happens when some class
/// exceeds its ways. Monte-Carlo with a simple LCG (no rand dependency in
/// the hot path).
pub fn theoretical_eviction_probability(k: usize, classes: usize, ways: usize, iters: u64) -> f64 {
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let mut hits = 0u64;
    for _ in 0..iters {
        let mut bins = vec![0usize; classes];
        let mut overflow = false;
        for _ in 0..k {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let bin = ((state >> 33) as usize) % classes;
            bins[bin] += 1;
            if bins[bin] > ways {
                overflow = true;
            }
        }
        if overflow {
            hits += 1;
        }
    }
    hits as f64 / iters as f64
}

/// A latency printed in Figure 4 captions; re-exported for the harness.
pub fn classifier_threshold(setup: &AttackSetup) -> Cycles {
    LatencyClassifier::from_timing(&setup.machine.config().timing).threshold
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_arithmetic_matches_paper() {
        // 64 candidates × 16 lines × 64 B = 64 KiB.
        assert_eq!(capacity_from_saturation(64), 64 * 1024);
    }

    #[test]
    fn theoretical_probability_is_monotone() {
        let mut prev = 0.0;
        for k in [2, 4, 8, 16, 32, 64] {
            let p = theoretical_eviction_probability(k, 8, 8, 2000);
            assert!(p >= prev - 0.02, "p({k}) = {p} < p(prev) = {prev}");
            prev = p;
        }
        assert!(theoretical_eviction_probability(2, 8, 8, 2000) < 0.01);
        assert!(theoretical_eviction_probability(64, 8, 8, 2000) > 0.9);
    }

    #[test]
    fn small_candidate_sets_never_evict() {
        let mut setup = AttackSetup::quiet(21).unwrap();
        let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
        for _ in 0..5 {
            // 2 candidates cannot overflow an 8-way set.
            assert!(!eviction_trial(&mut setup, 2, 0, &classifier).unwrap());
        }
    }

    #[test]
    fn large_candidate_sets_usually_evict() {
        let mut setup = AttackSetup::quiet(22).unwrap();
        let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
        let mut evictions = 0;
        for _ in 0..10 {
            if eviction_trial(&mut setup, 64, 0, &classifier).unwrap() {
                evictions += 1;
            }
        }
        assert!(evictions >= 9, "only {evictions}/10 trials evicted at k=64");
    }

    #[test]
    fn sweep_shows_figure4_shape() {
        let mut setup = AttackSetup::quiet(23).unwrap();
        let result = run_capacity_experiment(&mut setup, &[2, 8, 32, 64], 12, 0).unwrap();
        assert_eq!(result.points.len(), 4);
        let p2 = result.points[0].1;
        let p64 = result.points[3].1;
        assert!(p2 < 0.2, "p(2) = {p2}");
        assert!(p64 > 0.8, "p(64) = {p64}");
        if let Some(k) = result.saturation_point(0.99) {
            assert!(k >= 32);
        }
    }
}
