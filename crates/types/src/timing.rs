//! Global timing calibration for the simulated machine.
//!
//! All latency constants live here so that calibration (matching the paper's
//! Figure 5 latency ladder and §5.4 channel numbers) is one table, not a
//! scavenger hunt across crates.

use crate::{Cycles, ModelError};

/// Latency calibration for the simulated machine, in CPU cycles.
///
/// The defaults reproduce the numbers reported for the Intel i7-6700K
/// (Skylake, 4.2 GHz turbo) in the paper:
///
/// * protected-region read with an MEE *versions* hit ≈ 480 cycles
///   (§5.4: "versions data hit (approximately 480 cycles)"),
/// * protected-region read with a versions *miss* ≈ 750 cycles
///   (§5.4: "versions data miss (approximately 750 cycles)"),
/// * an 8-way Prime+Probe probe ≈ 8 × 480 ≈ 3800+ cycles (Figure 6a),
/// * one `'1'` transmission (16 access+flush pairs) ≈ 9000–10000 cycles
///   (§5.4 explains the error cliff below a 9000-cycle window),
/// * at a 15000-cycle window the raw bit rate is
///   4.2 GHz / 15000 / 8 = 35 KBps (the headline).
///
/// # Example
///
/// ```
/// use mee_types::TimingConfig;
///
/// let t = TimingConfig::default();
/// // The Figure-5 ladder: each level the walk climbs costs more.
/// assert!(t.protected_hit_latency(0) < t.protected_hit_latency(1));
/// assert!(t.protected_hit_latency(3) < t.protected_root_latency());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TimingConfig {
    /// Core clock in GHz; converts cycles to wall-clock for bit rates.
    pub clock_ghz: f64,
    /// L1-D hit latency.
    pub l1_hit: Cycles,
    /// L2 hit latency (beyond L1).
    pub l2_hit: Cycles,
    /// Shared LLC hit latency (beyond L2).
    pub llc_hit: Cycles,
    /// DRAM access when the bank's row buffer already holds the row.
    pub dram_row_hit: Cycles,
    /// DRAM access requiring a row activation (precharge + activate + CAS).
    pub dram_row_miss: Cycles,
    /// AES-CTR decrypt + MAC verify performed by the MEE on every
    /// protected-region data line, on top of the DRAM fetch.
    pub mee_crypto: Cycles,
    /// Serial fetch of the versions line when it misses the MEE cache.
    /// This is the dominant step of a "versions miss" and the source of the
    /// ≥300-cycle signal the covert channel decodes.
    ///
    /// This value is *nominal* — used for thresholds and predicted ladders.
    /// The engine charges an actual DRAM fetch plus [`walk_step`] per miss,
    /// whose mean equals this value under the default DRAM config.
    ///
    /// [`walk_step`]: TimingConfig::walk_step
    pub versions_miss_fetch: Cycles,
    /// Fixed MEE pipeline overhead per serialized walk step (request setup,
    /// counter comparison) charged on a versions miss in addition to the
    /// DRAM fetch of the versions line.
    pub walk_step: Cycles,
    /// Additional fetch cost for each further tree level the walk must climb
    /// (L0 → L1 → L2). Partially overlapped with the previous fetch, hence
    /// smaller than `versions_miss_fetch`.
    pub upper_level_fetch: Cycles,
    /// Extra cost of consulting the on-die root after an L2 miss.
    pub root_check: Cycles,
    /// MEE pipeline occupancy per protected access: the window during which
    /// the engine's crypto/verify unit is busy and a concurrent walk from
    /// another core must queue. This shared-resource contention is what
    /// makes co-located MEE traffic noisy for the channel (Figure 8 (c)/(d)).
    pub mee_service: Cycles,
    /// Cost of `clflush` for one line.
    pub clflush: Cycles,
    /// Cost of `mfence`.
    pub mfence: Cycles,
    /// Cost of `rdtsc` (only legal outside enclave mode).
    pub rdtsc: Cycles,
    /// Cost of reading the hyperthread timer mailbox from enclave mode
    /// (the paper's Figure 2(c) trick, "approximately 50 cycles").
    pub timer_read: Cycles,
    /// Minimum cost of an OCALL round trip (§3: 8000–15000 cycles).
    pub ocall_min: Cycles,
    /// Maximum cost of an OCALL round trip.
    pub ocall_max: Cycles,
    /// Mean cycles between background OS/system stall events on a core
    /// (timer interrupts, SMIs, …). Stalls are Poisson-distributed; `0`
    /// disables them.
    pub stall_mean_interval: u64,
    /// Minimum duration of one background stall.
    pub stall_min: Cycles,
    /// Maximum duration of one background stall.
    pub stall_max: Cycles,
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig {
            clock_ghz: 4.2,
            l1_hit: Cycles::new(4),
            l2_hit: Cycles::new(14),
            llc_hit: Cycles::new(40),
            dram_row_hit: Cycles::new(170),
            dram_row_miss: Cycles::new(210),
            mee_crypto: Cycles::new(230),
            versions_miss_fetch: Cycles::new(250),
            walk_step: Cycles::new(60),
            upper_level_fetch: Cycles::new(80),
            root_check: Cycles::new(50),
            mee_service: Cycles::new(160),
            clflush: Cycles::new(24),
            mfence: Cycles::new(12),
            rdtsc: Cycles::new(24),
            timer_read: Cycles::new(50),
            ocall_min: Cycles::new(8_000),
            ocall_max: Cycles::new(15_000),
            stall_mean_interval: 500_000,
            stall_min: Cycles::new(1_500),
            stall_max: Cycles::new(12_000),
        }
    }
}

impl TimingConfig {
    /// Returns the default calibration (same as [`Default`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A noise-free variant: no background stalls. (DRAM jitter belongs
    /// to the DRAM model: `DramConfig::jitter_std` in `mee-mem`.)
    ///
    /// Used by the reverse-engineering unit tests, which need exact
    /// latency classification.
    pub fn noiseless() -> Self {
        TimingConfig {
            stall_mean_interval: 0,
            ..Self::default()
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the clock is non-positive,
    /// or `ocall_min > ocall_max` / `stall_min > stall_max` /
    /// `dram_row_hit > dram_row_miss`.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: &str| {
            Err(ModelError::InvalidConfig {
                reason: reason.to_string(),
            })
        };
        if self.clock_ghz <= 0.0 || self.clock_ghz.is_nan() {
            return fail("clock_ghz must be positive");
        }
        if self.ocall_min > self.ocall_max {
            return fail("ocall_min must not exceed ocall_max");
        }
        if self.stall_min > self.stall_max {
            return fail("stall_min must not exceed stall_max");
        }
        if self.dram_row_hit > self.dram_row_miss {
            return fail("dram_row_hit must not exceed dram_row_miss");
        }
        Ok(())
    }

    /// Clock frequency in Hz.
    pub fn clock_hz(&self) -> f64 {
        self.clock_ghz * 1e9
    }

    /// Nominal end-to-end latency of a protected-region read whose walk
    /// *hits* in the MEE cache at `level` (0 = versions, 1 = L0, 2 = L1,
    /// 3 = L2), excluding jitter. This is the Figure-5 ladder.
    ///
    /// A hit at level ≥ 1 means the versions line (and every level below
    /// `level`) missed and had to be fetched serially.
    pub fn protected_hit_latency(&self, level: usize) -> Cycles {
        let mut total = self.uncached_dram_read() + self.mee_crypto;
        if level >= 1 {
            total += self.versions_miss_fetch;
            // Levels beyond L0 add one (partially overlapped) fetch each.
            total += self.upper_level_fetch * (level as u64 - 1);
        }
        total
    }

    /// Nominal latency when the walk misses every cached level and must be
    /// verified against the on-die root (the top of the Figure-5 ladder).
    pub fn protected_root_latency(&self) -> Cycles {
        self.protected_hit_latency(3) + self.upper_level_fetch + self.root_check
    }

    /// Nominal latency of an ordinary (non-protected) read that misses all
    /// on-chip caches: hierarchy traversal plus an average DRAM access.
    pub fn uncached_dram_read(&self) -> Cycles {
        self.l1_hit + self.l2_hit + self.llc_hit + (self.dram_row_hit + self.dram_row_miss) / 2
    }

    /// The classification threshold between "versions hit" and "versions
    /// miss" latencies, placed at the midpoint of the two nominal values.
    /// The spy in Algorithm 2 uses exactly this.
    pub fn versions_threshold(&self) -> Cycles {
        (self.protected_hit_latency(0) + self.protected_hit_latency(1)) / 2
    }

    /// Converts a cycle count to a transfer rate in kilobytes per second,
    /// assuming one *bit* per `window` cycles.
    pub fn window_to_kbps(&self, window: Cycles) -> f64 {
        self.clock_hz() / window.raw() as f64 / 8.0 / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_anchors() {
        let t = TimingConfig::default();
        t.validate().expect("default config must validate");

        // §5.4: versions hit ≈ 480 cycles.
        let hit = t.protected_hit_latency(0).raw();
        assert!((430..=530).contains(&hit), "versions hit = {hit}");

        // §5.4: versions miss ≈ 750 cycles.
        let miss = t.protected_hit_latency(1).raw();
        assert!((700..=800).contains(&miss), "versions miss = {miss}");

        // §5.1: at least ~300 cycles of signal.
        assert!(miss - hit >= 250, "signal = {}", miss - hit);

        // Headline: 15000-cycle window ≈ 35 KBps at 4.2 GHz.
        let kbps = t.window_to_kbps(Cycles::new(15_000));
        assert!((34.0..=36.0).contains(&kbps), "kbps = {kbps}");
    }

    #[test]
    fn ladder_is_monotone() {
        let t = TimingConfig::default();
        let mut prev = Cycles::ZERO;
        for level in 0..4 {
            let lat = t.protected_hit_latency(level);
            assert!(lat > prev, "level {level} not above previous");
            prev = lat;
        }
        assert!(t.protected_root_latency() > prev);
    }

    #[test]
    fn level2_vs_root_gap_is_relatively_small() {
        // §5.1: "the difference between level 2 data hit or accessing the
        // root level is relatively small" compared to hit-vs-miss.
        let t = TimingConfig::default();
        let hit_miss_gap = t.protected_hit_latency(1) - t.protected_hit_latency(0);
        let l2_root_gap = t.protected_root_latency() - t.protected_hit_latency(3);
        assert!(l2_root_gap.raw() < hit_miss_gap.raw());
    }

    #[test]
    fn threshold_separates_hit_and_miss() {
        let t = TimingConfig::default();
        let thr = t.versions_threshold();
        assert!(t.protected_hit_latency(0) < thr);
        assert!(thr < t.protected_hit_latency(1));
    }

    #[test]
    fn noiseless_has_no_noise() {
        let t = TimingConfig::noiseless();
        assert_eq!(t.stall_mean_interval, 0);
        t.validate().expect("noiseless config must validate");
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let bad = [
            TimingConfig {
                clock_ghz: 0.0,
                ..TimingConfig::default()
            },
            TimingConfig {
                ocall_min: Cycles::new(20_000),
                ..TimingConfig::default()
            },
            TimingConfig {
                stall_min: Cycles::new(10_000),
                stall_max: Cycles::new(1_000),
                ..TimingConfig::default()
            },
            TimingConfig {
                dram_row_hit: Cycles::new(500),
                ..TimingConfig::default()
            },
        ];
        for t in bad {
            assert!(t.validate().is_err(), "accepted invalid config");
        }
    }
}
