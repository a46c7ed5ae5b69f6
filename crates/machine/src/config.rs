//! Machine configuration.

use mee_cache::policy::{Policy, RandomEviction, Srrip, TreePlru, TrueLru};
use mee_cache::CacheConfig;
use mee_mem::DramConfig;
use mee_types::{ModelError, TimingConfig};

/// A cloneable description of a replacement policy, resolved to the
/// statically dispatched [`Policy`] enum at machine construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Tree pseudo-LRU — the MEE cache default (§5.3 "approximate LRU").
    TreePlru,
    /// Exact LRU.
    TrueLru,
    /// Static re-reference interval prediction (2-bit).
    Srrip,
    /// Seeded random eviction.
    Random {
        /// RNG seed.
        seed: u64,
    },
}

impl PolicyKind {
    /// Instantiates the policy, statically dispatched.
    pub fn build(self) -> Policy {
        match self {
            PolicyKind::TreePlru => Policy::TreePlru(TreePlru::new()),
            PolicyKind::TrueLru => Policy::TrueLru(TrueLru::new()),
            PolicyKind::Srrip => Policy::Srrip(Srrip::new()),
            PolicyKind::Random { seed } => Policy::Random(RandomEviction::with_seed(seed)),
        }
    }
}

/// Full description of the simulated machine.
///
/// [`MachineConfig::default`] models the paper's testbed (i7-6700K-like:
/// 4 cores, 32 KiB/8-way L1D, 256 KiB/4-way L2, 8 MiB/16-way LLC, 64 KiB/
/// 8-way MEE cache, 32 MiB PRM scaled down from 128 MiB to keep experiment
/// start-up cheap — the attack never needs more than a few MiB of enclave
/// memory). [`MachineConfig::small`] shrinks everything further for unit
/// tests.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Number of physical cores.
    pub cores: usize,
    /// Latency calibration.
    pub timing: TimingConfig,
    /// DRAM geometry and timing.
    pub dram: DramConfig,
    /// Bytes of ordinary DRAM.
    pub general_bytes: u64,
    /// Bytes of Processor Reserved Memory (protected data + tree).
    pub prm_bytes: u64,
    /// Per-core L1 data cache.
    pub l1: CacheConfig,
    /// Per-core L2 cache.
    pub l2: CacheConfig,
    /// Shared inclusive last-level cache.
    pub llc: CacheConfig,
    /// The MEE cache (what the paper reverse-engineers).
    pub mee_cache: CacheConfig,
    /// MEE cache replacement policy.
    pub mee_policy: PolicyKind,
    /// LLC replacement policy.
    pub llc_policy: PolicyKind,
    /// Seed for frame-allocation shuffling.
    pub alloc_seed: u64,
    /// Seed for per-core background-stall noise.
    pub stall_seed: u64,
    /// MEE MAC key.
    pub mee_key: u64,
    /// Granularity (cycles) of the hyperthread timer mailbox: the publishing
    /// thread refreshes the timestamp every this many cycles.
    pub timer_quantum: u64,
    /// Capacity of the machine's translation memo (direct-mapped, shared
    /// across processes, keyed on a page-table generation stamp). `0`
    /// disables memoisation — every op re-walks the page table, the
    /// pre-memo behaviour differential tests compare against. Purely a
    /// host-speed knob: translation has no timing side effects, so the
    /// capacity can never change a simulation (see `DESIGN.md`,
    /// "Translation memo").
    pub tlb_entries: usize,
}

/// Default translation-memo capacity: enough slots that the two
/// 192-page tenants of an attack setup rarely alias.
const DEFAULT_TLB_ENTRIES: usize = 512;

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 4,
            timing: TimingConfig::default(),
            dram: DramConfig::default(),
            general_bytes: 64 << 20,
            prm_bytes: 32 << 20,
            l1: CacheConfig {
                sets: 64,
                ways: 8,
                line_size: 64,
            },
            l2: CacheConfig {
                sets: 1024,
                ways: 4,
                line_size: 64,
            },
            llc: CacheConfig {
                sets: 8192,
                ways: 16,
                line_size: 64,
            },
            mee_cache: CacheConfig {
                sets: 128,
                ways: 8,
                line_size: 64,
            },
            mee_policy: PolicyKind::TreePlru,
            llc_policy: PolicyKind::TreePlru,
            alloc_seed: 0xa110c,
            stall_seed: 0x57a11,
            mee_key: 0x006d_6565_5f6b_6579, // "mee_key"
            timer_quantum: 35,
            tlb_entries: DEFAULT_TLB_ENTRIES,
        }
    }
}

impl MachineConfig {
    /// The default testbed-like machine.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scaled-down machine for fast unit tests: 2 MiB general, 4 MiB PRM,
    /// small LLC, no background stalls, no DRAM jitter.
    pub fn small() -> Self {
        let dram = DramConfig {
            jitter_std: 0.0,
            ..DramConfig::default()
        };
        MachineConfig {
            general_bytes: 2 << 20,
            prm_bytes: 4 << 20,
            llc: CacheConfig {
                sets: 1024,
                ways: 16,
                line_size: 64,
            },
            timing: TimingConfig::noiseless(),
            dram,
            ..Self::default()
        }
    }

    /// Disables all noise sources (jitter + stalls), keeping geometry.
    pub fn without_noise(mut self) -> Self {
        self.timing.stall_mean_interval = 0;
        self.dram.jitter_std = 0.0;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if any component is invalid,
    /// there are no cores, or a cache's replacement policy cannot hold its
    /// geometry (tree-PLRU needs a power-of-two way count).
    pub fn validate(&self) -> Result<(), ModelError> {
        if self.cores == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "machine needs at least one core".into(),
            });
        }
        if self.timer_quantum == 0 {
            return Err(ModelError::InvalidConfig {
                reason: "timer quantum must be non-zero".into(),
            });
        }
        self.timing.validate()?;
        self.dram.validate()?;
        // The private caches and the MEE cache run `mee_policy`.
        for (name, c, policy) in [
            ("l1", &self.l1, self.mee_policy),
            ("l2", &self.l2, self.mee_policy),
            ("llc", &self.llc, self.llc_policy),
            ("mee_cache", &self.mee_cache, self.mee_policy),
        ] {
            let invalid = |why: String| ModelError::InvalidConfig {
                reason: format!("invalid {name} cache geometry {c:?}: {why}"),
            };
            CacheConfig::from_capacity(c.capacity_bytes(), c.ways, c.line_size).map_err(
                |e| match e {
                    ModelError::InvalidConfig { reason } => invalid(reason),
                    e => e,
                },
            )?;
            if policy == PolicyKind::TreePlru && !c.ways.is_power_of_two() {
                return Err(invalid(format!(
                    "tree-PLRU needs a power-of-two way count, got {}",
                    c.ways
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_cache::ReplacementPolicy;

    #[test]
    fn default_validates_and_matches_testbed() {
        let cfg = MachineConfig::default();
        cfg.validate().unwrap();
        assert_eq!(cfg.cores, 4);
        assert_eq!(cfg.mee_cache.capacity_bytes(), 64 * 1024);
        assert_eq!(cfg.mee_cache.ways, 8);
        assert_eq!(cfg.mee_cache.sets, 128);
        assert_eq!(cfg.llc.capacity_bytes(), 8 << 20);
    }

    #[test]
    fn small_validates() {
        MachineConfig::small().validate().unwrap();
    }

    #[test]
    fn without_noise_strips_all_noise() {
        let cfg = MachineConfig::default().without_noise();
        assert_eq!(cfg.timing.stall_mean_interval, 0);
        assert_eq!(cfg.dram.jitter_std, 0.0);
    }

    #[test]
    fn invalid_configs_rejected() {
        let cfg = MachineConfig {
            cores: 0,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());

        let cfg = MachineConfig {
            timer_quantum: 0,
            ..MachineConfig::default()
        };
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::default();
        cfg.l1.sets = 3;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn bad_dram_jitter_is_a_typed_error_not_a_panic() {
        for jitter_std in [f64::NAN, -1.0] {
            let mut cfg = MachineConfig::small();
            cfg.dram.jitter_std = jitter_std;
            assert!(matches!(
                cfg.validate(),
                Err(ModelError::InvalidConfig { .. })
            ));
            assert!(matches!(
                crate::Machine::new(cfg),
                Err(ModelError::InvalidConfig { .. })
            ));
        }
    }

    /// A geometry the cache's policy cannot hold is a typed error at the
    /// config boundary, not a panic in `Machine::new`.
    #[test]
    fn policy_geometry_mismatch_is_a_typed_error() {
        // A 12-way L2 under the default tree-PLRU.
        let mut cfg = MachineConfig {
            l2: CacheConfig {
                sets: 1024,
                ways: 12,
                line_size: 64,
            },
            ..MachineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(&err, ModelError::InvalidConfig { reason } if reason.contains("l2") && reason.contains("power-of-two")),
            "{err}"
        );
        assert!(crate::Machine::new(cfg.clone()).is_err());
        // Exact LRU holds any way count the valid mask can.
        cfg.mee_policy = PolicyKind::TrueLru;
        cfg.validate().unwrap();

        // More ways than a set's valid mask holds, under any policy.
        let cfg = MachineConfig {
            llc: CacheConfig {
                sets: 64,
                ways: 128,
                line_size: 64,
            },
            llc_policy: PolicyKind::TrueLru,
            ..MachineConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(
            matches!(&err, ModelError::InvalidConfig { reason } if reason.contains("llc") && reason.contains("128 ways")),
            "{err}"
        );
    }

    #[test]
    fn default_enables_the_translation_memo() {
        // The default capacity is positive (memo on); zero is the in-code
        // opt-out the differential tests use.
        assert!(MachineConfig::default().tlb_entries > 0);
    }

    #[test]
    fn policy_kinds_build() {
        for kind in [
            PolicyKind::TreePlru,
            PolicyKind::TrueLru,
            PolicyKind::Srrip,
            PolicyKind::Random { seed: 1 },
        ] {
            let p = kind.build();
            assert!(!p.name().is_empty());
        }
    }
}
