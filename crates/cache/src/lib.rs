#![warn(missing_docs)]
//! Set-associative cache models for the MEE covert-channel simulator.
//!
//! Every cache in the simulated machine — the private L1/L2, the shared
//! inclusive LLC, and the MEE cache itself — is an instance of
//! [`SetAssocCache`] with a [`ReplacementPolicy`] chosen from the
//! statically dispatched [`policy::Policy`] enum.
//!
//! The replacement policy matters for the paper: §5.3 argues the MEE cache
//! uses an "approximate LRU" policy, which is why the trojan must sweep its
//! eviction set in a *forward phase followed by a backward phase* to evict
//! reliably. The [`policy::TreePlru`] implementation models exactly that
//! class of policy, and [`policy::TrueLru`], [`policy::Srrip`] and
//! [`policy::RandomEviction`] exist so the ablation experiment can show the
//! difference.
//!
//! A cache fills on a miss only into the ways its fill mask allows
//! ([`SetAssocCache::set_fill_mask`]; every way by default), and the policy
//! picks victims among those ways — the way partitioning of the §5.5
//! mitigation experiment. Lookups ignore the mask.
//!
//! # Example
//!
//! ```
//! use mee_cache::{CacheConfig, SetAssocCache, policy::TreePlru};
//! use mee_types::LineAddr;
//!
//! # fn main() -> Result<(), mee_types::ModelError> {
//! // The MEE cache reverse-engineered by the paper: 64 KiB, 8-way, 64 B lines.
//! let cfg = CacheConfig::from_capacity(64 * 1024, 8, 64)?;
//! assert_eq!(cfg.sets, 128);
//!
//! let mut cache = SetAssocCache::new(cfg, TreePlru::new());
//! let line = LineAddr::new(0x40);
//! assert!(!cache.access(line).hit);
//! assert!(cache.access(line).hit);
//! # Ok(())
//! # }
//! ```

mod cache;
pub mod policy;
mod stats;

pub use cache::{AccessResult, CacheConfig, SetAssocCache};
pub use policy::ReplacementPolicy;
pub use stats::CacheStats;
