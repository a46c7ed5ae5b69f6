//! The protected-access latency census (paper §5.1, Figure 5).

use mee_engine::HitLevel;
use mee_types::{Cycles, ModelError, PAGE_SIZE};

use crate::setup::AttackSetup;

/// One timed protected access with its ground-truth walk outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencySample {
    /// Measured access latency.
    pub latency: Cycles,
    /// Where the MEE walk stopped (`None` when the access was served
    /// on-chip, which the census avoids by flushing).
    pub level: Option<HitLevel>,
}

/// All samples collected for one stride.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyCensus {
    /// The stride in bytes.
    pub stride: usize,
    /// Timed samples from the steady-state passes.
    pub samples: Vec<LatencySample>,
}

impl LatencyCensus {
    /// Mean latency of samples that stopped at `level`.
    pub fn mean_at(&self, level: HitLevel) -> Option<Cycles> {
        let xs: Vec<u64> = self
            .samples
            .iter()
            .filter(|s| s.level == Some(level))
            .map(|s| s.latency.raw())
            .collect();
        if xs.is_empty() {
            None
        } else {
            Some(Cycles::new(xs.iter().sum::<u64>() / xs.len() as u64))
        }
    }

    /// Number of samples per hit level, indexed by
    /// [`HitLevel::ladder_index`].
    pub fn level_histogram(&self) -> [usize; 5] {
        let mut h = [0usize; 5];
        for s in &self.samples {
            if let Some(level) = s.level {
                h[level.ladder_index()] += 1;
            }
        }
        h
    }

    /// The dominant hit level among the samples, if any sample reached the
    /// MEE.
    pub fn dominant_level(&self) -> Option<HitLevel> {
        let h = self.level_histogram();
        let (idx, &count) = h.iter().enumerate().max_by_key(|(_, &c)| c)?;
        if count == 0 {
            None
        } else {
            Some(HitLevel::ALL[idx])
        }
    }
}

/// Runs the stride census for one stride: maps only the touched pages,
/// performs `passes + 1` sweeps of `samples` accesses (each timed access is
/// followed by a `clflush` so the next pass reaches the MEE again), and
/// keeps the samples of every pass after the cold first one.
///
/// # Errors
///
/// Propagates machine errors; returns [`ModelError::InvalidConfig`] for a
/// stride that is not a positive multiple of 64.
pub fn census_for_stride(
    setup: &mut AttackSetup,
    stride: usize,
    samples: usize,
    passes: usize,
) -> Result<LatencyCensus, ModelError> {
    if stride == 0 || !stride.is_multiple_of(64) {
        return Err(ModelError::InvalidConfig {
            reason: format!("stride {stride} must be a positive multiple of 64"),
        });
    }
    let proc = setup.trojan.proc;
    // Map exactly the pages the sweep touches.
    let span_bytes = stride * samples;
    let (base, mapped_pages) = if stride >= PAGE_SIZE {
        // One page per sample, spaced `stride` apart in VA.
        let base = setup.scratch_pages(proc, 1)?;
        for i in 1..samples {
            let page_base = base + (i * stride) as u64;
            let got = setup.scratch_pages_at(proc, page_base, 1)?;
            debug_assert_eq!(got, page_base);
        }
        (base, samples)
    } else {
        let pages = span_bytes.div_ceil(PAGE_SIZE).max(1);
        (setup.scratch_pages(proc, pages)?, pages)
    };

    let mut census = LatencyCensus {
        stride,
        samples: Vec::with_capacity(samples * passes),
    };
    {
        let mut cpu = setup.trojan_handle();
        for pass in 0..=passes {
            for i in 0..samples {
                let va = base + (i * stride) as u64;
                let lat = cpu.read_flush(va)?;
                let level = cpu.machine().last_mee_hit();
                if pass > 0 {
                    census.samples.push(LatencySample {
                        latency: lat,
                        level,
                    });
                }
            }
        }
    }

    // Release the mapped pages so later strides get fresh frames.
    if stride >= PAGE_SIZE {
        for i in 0..samples {
            setup.release_scratch(proc, base + (i * stride) as u64, 1)?;
        }
    } else {
        setup.release_scratch(proc, base, mapped_pages)?;
    }
    Ok(census)
}

/// Runs the full Figure-5 census across `strides`.
///
/// # Errors
///
/// Propagates machine errors.
pub fn run_latency_census(
    setup: &mut AttackSetup,
    strides: &[usize],
    samples: usize,
    passes: usize,
) -> Result<Vec<LatencyCensus>, ModelError> {
    strides
        .iter()
        .map(|&s| census_for_stride(setup, s, samples, passes))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAPER_STRIDES: [usize; 5] = [64, 512, 4096, 32 << 10, 256 << 10];

    #[test]
    fn small_strides_are_versions_dominated() {
        let mut setup = AttackSetup::quiet(41).unwrap();
        let census = census_for_stride(&mut setup, 64, 64, 2).unwrap();
        assert_eq!(census.dominant_level(), Some(HitLevel::Versions));
        // §5.1: 64 B stride has strong spatial locality in the versions line.
        let h = census.level_histogram();
        assert!(h[0] > census.samples.len() * 8 / 10);
    }

    #[test]
    fn stride_512_hits_versions_or_l0() {
        let mut setup = AttackSetup::quiet(42).unwrap();
        let census = census_for_stride(&mut setup, 512, 64, 2).unwrap();
        let h = census.level_histogram();
        assert!(
            h[0] + h[1] > census.samples.len() * 9 / 10,
            "histogram {h:?}"
        );
    }

    #[test]
    fn large_strides_walk_higher() {
        let mut setup = AttackSetup::quiet(43).unwrap();
        // Enough pages that the per-pass tree footprint exceeds the MEE
        // cache, so version lines cannot simply stay resident between
        // passes (the paper swept far more than 64 KiB of tree data).
        let census = census_for_stride(&mut setup, 256 << 10, 640, 2).unwrap();
        let h = census.level_histogram();
        let total: usize = h.iter().sum();
        // Version lines thrash (the working set far exceeds the MEE cache)…
        assert!(
            h[0] < total / 10,
            "versions hits should be rare at huge strides: {h:?}"
        );
        // …and the walk spends its time in the upper levels. With SGX's
        // scattered physical pages a large VA stride yields a *mix* of
        // L1/L2/root outcomes rather than one clean level — the paper's
        // "often results in level 1 or level 2 data hit".
        assert!(
            h[2] + h[3] + h[4] > total * 2 / 5,
            "expected upper-level walks to dominate: {h:?}"
        );
    }

    #[test]
    fn ladder_means_increase_across_strides() {
        let mut setup = AttackSetup::quiet(44).unwrap();
        let censuses = run_latency_census(&mut setup, &PAPER_STRIDES, 48, 2).unwrap();
        // Pool all samples; per-level means must be strictly increasing in
        // ladder order wherever adjacent levels both have samples.
        let mut pooled: Vec<LatencySample> = Vec::new();
        for c in &censuses {
            pooled.extend_from_slice(&c.samples);
        }
        let all = LatencyCensus {
            stride: 0,
            samples: pooled,
        };
        let mut prev: Option<Cycles> = None;
        for level in HitLevel::ALL {
            if let Some(mean) = all.mean_at(level) {
                if let Some(p) = prev {
                    assert!(mean > p, "{level} mean {mean} not above previous {p}");
                }
                prev = Some(mean);
            }
        }
    }

    #[test]
    fn versions_hit_near_480_and_miss_near_750() {
        // The §5.4 anchor numbers.
        let mut setup = AttackSetup::quiet(45).unwrap();
        let censuses = run_latency_census(&mut setup, &[64, 4096], 64, 2).unwrap();
        let hit = censuses[0].mean_at(HitLevel::Versions).unwrap();
        assert!(
            (430..=540).contains(&hit.raw()),
            "versions hit mean = {hit}"
        );
        // 4 KiB stride misses versions; whatever level it lands on, the
        // latency is ≥ ~700.
        let miss_mean = {
            let misses: Vec<u64> = censuses[1]
                .samples
                .iter()
                .filter(|s| s.level.is_some() && s.level != Some(HitLevel::Versions))
                .map(|s| s.latency.raw())
                .collect();
            misses.iter().sum::<u64>() / misses.len().max(1) as u64
        };
        assert!(miss_mean >= 690, "miss mean = {miss_mean}");
    }

    #[test]
    fn rejects_bad_strides() {
        let mut setup = AttackSetup::quiet(46).unwrap();
        assert!(census_for_stride(&mut setup, 0, 8, 1).is_err());
        assert!(census_for_stride(&mut setup, 100, 8, 1).is_err());
    }
}
