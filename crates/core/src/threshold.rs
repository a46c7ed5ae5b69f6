//! Latency classification: versions hit vs versions miss.
//!
//! The entire channel decodes one bit from one latency sample, so the
//! threshold between the "≈480 cycle" versions-hit cluster and the
//! "≈750 cycle" miss cluster (§5.4) is the decoder. [`LatencyClassifier`]
//! carries that threshold plus the measurement bias of the timing primitive
//! in use (the hyperthread timer mailbox costs ~50 cycles per read).

use mee_machine::CoreHandle;
use mee_types::{Cycles, ModelError, TimingConfig, VirtAddr};

/// Classifies protected-access latencies into versions hit / miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyClassifier {
    /// Latencies strictly below this are versions hits.
    pub threshold: Cycles,
    /// Fixed measurement overhead subtracted from raw timed samples (e.g.
    /// one timer-mailbox read bracketing the access).
    pub bias: Cycles,
}

impl LatencyClassifier {
    /// Builds the classifier from the machine's nominal timing, with no
    /// measurement bias (for samples that are true latencies).
    pub fn from_timing(t: &TimingConfig) -> Self {
        LatencyClassifier {
            threshold: t.versions_threshold(),
            bias: Cycles::ZERO,
        }
    }

    /// Builds the classifier for samples measured by bracketing the access
    /// between two timer-mailbox reads: the raw sample then includes one
    /// mailbox-read cost.
    pub fn for_timer_probes(t: &TimingConfig) -> Self {
        LatencyClassifier {
            threshold: t.versions_threshold(),
            bias: t.timer_read,
        }
    }

    /// Removes the measurement bias from a raw sample.
    pub fn debias(&self, raw: Cycles) -> Cycles {
        raw.saturating_sub(self.bias)
    }

    /// Whether a raw sample is a versions hit.
    pub fn is_versions_hit(&self, raw: Cycles) -> bool {
        self.debias(raw) < self.threshold
    }

    /// Whether a raw sample is a versions miss (the signal for a `1`).
    pub fn is_versions_miss(&self, raw: Cycles) -> bool {
        !self.is_versions_hit(raw)
    }

    /// Calibrates a classifier empirically, the way a real attacker must:
    /// samples the versions-hit cluster by repeatedly accessing and flushing
    /// one address (after the cold access, every re-access is a versions
    /// hit), samples the deep-miss cluster by touching addresses 256 KiB
    /// apart (fresh subtrees), and places the threshold 40% of the way up
    /// the gap — below the L0-hit latency that a trojan eviction produces.
    ///
    /// # Errors
    ///
    /// Propagates machine errors from the probing accesses.
    pub fn calibrate(
        cpu: &mut CoreHandle<'_>,
        probe: VirtAddr,
        deep: &[VirtAddr],
        samples: usize,
    ) -> Result<Self, ModelError> {
        assert!(samples >= 4, "calibration needs at least 4 samples");
        // Warm: ensure the versions line is resident.
        cpu.read_flush(probe)?;
        let mut hit_total = 0u64;
        for _ in 0..samples {
            let lat = cpu.read_flush(probe)?;
            hit_total += lat.raw();
        }
        let hit_mean = hit_total / samples as u64;

        let mut deep_total = 0u64;
        let mut deep_count = 0u64;
        for &addr in deep.iter().take(samples) {
            let lat = cpu.read_flush(addr)?;
            deep_total += lat.raw();
            deep_count += 1;
        }
        if deep_count == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "calibration needs at least one deep-miss address".into(),
            });
        }
        let deep_mean = deep_total / deep_count;
        if deep_mean <= hit_mean {
            return Err(ModelError::InvalidConfig {
                reason: format!(
                    "calibration found no latency gap (hit {hit_mean}, deep {deep_mean})"
                ),
            });
        }
        let threshold = hit_mean + (deep_mean - hit_mean) * 2 / 5;
        Ok(LatencyClassifier {
            threshold: Cycles::new(threshold),
            bias: Cycles::ZERO,
        })
    }
}

/// A [`LatencyClassifier`] that recalibrates its threshold online.
///
/// Faults move the latency clusters: a thrashed MEE set turns hits into
/// deep misses, drift smears the probe timing, and a migration cold-starts
/// the private caches. A fixed threshold silently decays — and a scheme
/// that updates per-cluster averages *by its own classification* cannot
/// recover once both clusters drift past the stale threshold. This wrapper
/// instead keeps a sliding window of recent samples and, once the window is
/// full, re-derives the two clusters from scratch: take the window in
/// sorted order (a sorted copy kept up to date sample by sample), split
/// at the largest latency gap (requiring at least [`Self::MIN_CLUSTER`]
/// samples on each side, so stray deep-walk outliers cannot define a
/// cluster), and re-center the threshold 40% of the way up the gap — the
/// same placement [`LatencyClassifier::calibrate`] uses. Everything is
/// integer arithmetic, so recalibration is bit-deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdaptiveClassifier {
    current: LatencyClassifier,
    window: Vec<u64>,
    /// The window's samples in ascending order, kept in step with
    /// `window` one removal and one insertion per sample.
    sorted: Vec<u64>,
    cursor: usize,
    recalibrations: usize,
}

impl AdaptiveClassifier {
    /// Sliding-window size (samples).
    pub const WINDOW: usize = 32;
    /// Minimum samples per cluster for a split to be credible.
    pub const MIN_CLUSTER: usize = 4;
    /// Minimum latency gap (cycles) between clusters for a split to be
    /// credible — below this the window is treated as a single cluster
    /// (e.g. a long run of equal bits) and the threshold is left alone.
    pub const MIN_GAP: u64 = 80;
    /// Recalibrate only when the proposed threshold differs from the
    /// current one by more than this many cycles.
    pub const RECAL_MARGIN: u64 = 40;

    /// Starts from a calibrated classifier.
    #[must_use]
    pub fn new(base: LatencyClassifier) -> Self {
        AdaptiveClassifier {
            current: base,
            window: Vec::with_capacity(Self::WINDOW),
            sorted: Vec::with_capacity(Self::WINDOW),
            cursor: 0,
            recalibrations: 0,
        }
    }

    /// The classifier as currently calibrated.
    #[must_use]
    pub fn classifier(&self) -> LatencyClassifier {
        self.current
    }

    /// How many times the threshold has been re-centered.
    #[must_use]
    pub fn recalibrations(&self) -> usize {
        self.recalibrations
    }

    /// Classifies one raw sample (`true` = versions miss, the signal for a
    /// `1`) with the *current* threshold, then folds the sample into the
    /// window and re-centers the threshold if the window's clusters have
    /// drifted away from it.
    pub fn observe(&mut self, raw: Cycles) -> bool {
        let miss = self.current.is_versions_miss(raw);
        let sample = self.current.debias(raw).raw();
        if self.window.len() < Self::WINDOW {
            self.window.push(sample);
        } else {
            let evicted = std::mem::replace(&mut self.window[self.cursor], sample);
            self.sorted
                .remove(self.sorted.partition_point(|&s| s < evicted));
            self.cursor = (self.cursor + 1) % Self::WINDOW;
        }
        let at = self.sorted.partition_point(|&s| s < sample);
        self.sorted.insert(at, sample);
        if self.window.len() == Self::WINDOW {
            self.recalibrate();
        }
        miss
    }

    fn recalibrate(&mut self) {
        let sorted = &self.sorted;
        let n = sorted.len();
        let mut best_gap = 0u64;
        let mut split = 0usize;
        for i in Self::MIN_CLUSTER..=(n - Self::MIN_CLUSTER) {
            let gap = sorted[i] - sorted[i - 1];
            if gap > best_gap {
                best_gap = gap;
                split = i;
            }
        }
        if best_gap < Self::MIN_GAP {
            return;
        }
        let (lo, hi) = sorted.split_at(split);
        let lo_mean = lo.iter().sum::<u64>() / lo.len() as u64;
        let hi_mean = hi.iter().sum::<u64>() / hi.len() as u64;
        let target = lo_mean + (hi_mean - lo_mean) * 2 / 5;
        if target.abs_diff(self.current.threshold.raw()) > Self::RECAL_MARGIN {
            self.current.threshold = Cycles::new(target);
            self.recalibrations += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::AttackSetup;

    #[test]
    fn nominal_classifier_separates_clusters() {
        let t = TimingConfig::default();
        let c = LatencyClassifier::from_timing(&t);
        assert!(c.is_versions_hit(t.protected_hit_latency(0)));
        assert!(c.is_versions_miss(t.protected_hit_latency(1)));
        assert!(c.is_versions_miss(t.protected_root_latency()));
    }

    #[test]
    fn timer_classifier_debiases() {
        let t = TimingConfig::default();
        let c = LatencyClassifier::for_timer_probes(&t);
        let hit_raw = t.protected_hit_latency(0) + t.timer_read;
        let miss_raw = t.protected_hit_latency(1) + t.timer_read;
        assert!(c.is_versions_hit(hit_raw));
        assert!(c.is_versions_miss(miss_raw));
        assert_eq!(c.debias(hit_raw), t.protected_hit_latency(0));
    }

    #[test]
    fn empirical_calibration_matches_nominal() {
        let mut setup = AttackSetup::quiet(5).unwrap();
        let probe = setup.spy.candidate(0, 0);
        // Deep misses: 256 KiB apart in VA; physical scatter makes them
        // touch fresh subtrees.
        let deep: Vec<VirtAddr> = (1..9).map(|i| setup.spy.candidate(i * 16, 0)).collect();
        let nominal = LatencyClassifier::from_timing(&setup.machine.config().timing);
        let mut cpu = setup.spy_handle();
        let cal = LatencyClassifier::calibrate(&mut cpu, probe, &deep, 8).unwrap();
        let diff = cal.threshold.raw() as i64 - nominal.threshold.raw() as i64;
        assert!(
            diff.abs() < 120,
            "calibrated {} vs nominal {}",
            cal.threshold,
            nominal.threshold
        );
        // And the calibrated threshold still separates the clusters.
        let t = &setup.machine.config().timing;
        assert!(cal.is_versions_hit(t.protected_hit_latency(0)));
        assert!(cal.is_versions_miss(t.protected_hit_latency(1)));
    }

    #[test]
    fn adaptive_classifier_tracks_a_drifting_gap() {
        // Start with a threshold placed for clusters at 480/750, then feed
        // samples from clusters that drifted up by 300 cycles. A fixed
        // classifier would call the new 780-cycle hits "misses" forever;
        // the adaptive one re-centers after a handful of samples.
        let base = LatencyClassifier {
            threshold: Cycles::new(590),
            bias: Cycles::ZERO,
        };
        let mut a = AdaptiveClassifier::new(base);
        // Seed both clusters at the original operating point.
        for _ in 0..4 {
            a.observe(Cycles::new(480));
            a.observe(Cycles::new(750));
        }
        assert_eq!(a.recalibrations(), 0, "no drift, no recalibration");
        // Clusters drift upward; keep feeding alternating samples.
        for _ in 0..40 {
            a.observe(Cycles::new(780));
            a.observe(Cycles::new(1_050));
        }
        assert!(a.recalibrations() > 0);
        let t = a.classifier().threshold;
        assert!(
            (Cycles::new(820)..=Cycles::new(960)).contains(&t),
            "threshold {t} should sit 40% up the drifted gap"
        );
        // And the recalibrated classifier separates the drifted clusters.
        assert!(a.classifier().is_versions_hit(Cycles::new(780)));
        assert!(a.classifier().is_versions_miss(Cycles::new(1_050)));
    }

    #[test]
    fn adaptive_classifier_is_stable_on_a_steady_channel() {
        let base = LatencyClassifier {
            threshold: Cycles::new(590),
            bias: Cycles::ZERO,
        };
        let mut a = AdaptiveClassifier::new(base);
        for i in 0..200u64 {
            // Small deterministic jitter around the nominal clusters.
            a.observe(Cycles::new(475 + (i % 7)));
            a.observe(Cycles::new(745 + (i % 11)));
        }
        assert!(
            a.recalibrations() <= 1,
            "steady clusters caused {} recalibrations",
            a.recalibrations()
        );
    }

    /// The incrementally kept sorted copy always holds the window's
    /// samples in order — what sorting a clone of the window would give —
    /// so recalibration sees the same clusters. Samples come from a few
    /// values (many duplicates) plus a drifting pair of clusters.
    #[test]
    fn sorted_copy_tracks_the_window() {
        use mee_rng::prop::{check, pick, PropConfig};
        check(
            "sorted_copy_tracks_the_window",
            &PropConfig::from_env(32),
            |rng| {
                let mut a = AdaptiveClassifier::new(LatencyClassifier {
                    threshold: Cycles::new(590),
                    bias: Cycles::new(pick(rng, &[0, 50])),
                });
                for i in 0..300u64 {
                    let raw = if rng.random::<bool>() {
                        pick(rng, &[0, 480, 530, 750, 800])
                    } else {
                        pick(rng, &[480, 750]) + i + rng.random_range(0..60u64)
                    };
                    a.observe(Cycles::new(raw));
                    let mut expected = a.window.clone();
                    expected.sort_unstable();
                    assert_eq!(a.sorted, expected, "after sample {i}");
                }
            },
        );
    }

    #[test]
    fn calibration_rejects_missing_deep_addresses() {
        let mut setup = AttackSetup::quiet(6).unwrap();
        let probe = setup.spy.candidate(0, 0);
        let mut cpu = setup.spy_handle();
        assert!(LatencyClassifier::calibrate(&mut cpu, probe, &[], 8).is_err());
    }
}
