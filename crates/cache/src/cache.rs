//! The set-associative cache model.

use mee_types::{LineAddr, ModelError};

use crate::policy::{Policy, ReplacementPolicy};
use crate::stats::CacheStats;

/// Geometry of a set-associative cache.
///
/// ```
/// use mee_cache::CacheConfig;
///
/// # fn main() -> Result<(), mee_types::ModelError> {
/// let mee = CacheConfig::from_capacity(64 * 1024, 8, 64)?;
/// assert_eq!((mee.sets, mee.ways), (128, 8));
/// assert_eq!(mee.capacity_bytes(), 64 * 1024);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Number of ways per set.
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line_size: usize,
}

impl CacheConfig {
    /// Most ways a set may have: [`SetAssocCache`] tracks a set's valid
    /// ways in one `u64`.
    pub const MAX_WAYS: usize = 64;

    /// Builds a config from total capacity.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the capacity is not evenly
    /// divisible into power-of-two sets of `ways` lines, `ways` exceeds
    /// [`Self::MAX_WAYS`], or any parameter is zero.
    pub fn from_capacity(
        capacity_bytes: usize,
        ways: usize,
        line_size: usize,
    ) -> Result<Self, ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if ways == 0 || line_size == 0 || capacity_bytes == 0 {
            return fail("cache parameters must be non-zero".into());
        }
        if ways > Self::MAX_WAYS {
            return fail(format!(
                "{ways} ways exceed the maximum of {}",
                Self::MAX_WAYS
            ));
        }
        if !line_size.is_power_of_two() {
            return fail(format!("line size {line_size} is not a power of two"));
        }
        let lines = capacity_bytes / line_size;
        if lines * line_size != capacity_bytes {
            return fail(format!(
                "capacity {capacity_bytes} is not a multiple of line size {line_size}"
            ));
        }
        let sets = lines / ways;
        if sets * ways != lines {
            return fail(format!("{lines} lines do not divide into {ways} ways"));
        }
        if !sets.is_power_of_two() {
            return fail(format!("set count {sets} is not a power of two"));
        }
        Ok(CacheConfig {
            sets,
            ways,
            line_size,
        })
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * self.line_size
    }

    /// The way mask with every way's bit set (`u64::MAX` at 64 ways).
    pub fn all_ways(&self) -> u64 {
        match self.ways {
            64.. => u64::MAX,
            ways => (1 << ways) - 1,
        }
    }
}

/// Outcome of one [`SetAssocCache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was already resident.
    pub hit: bool,
    /// The line evicted to make room, when the fill displaced one.
    pub evicted: Option<LineAddr>,
    /// The set the line maps to.
    pub set: usize,
}

/// A physically indexed, physically tagged set-associative cache.
///
/// Stores tags only — the simulator models *where data is*, not the data
/// itself (the functional memory contents live in `mee-mem`/`mee-tree`).
pub struct SetAssocCache {
    cfg: CacheConfig,
    /// `tags[set * cfg.ways + way]`: the resident line encoded as
    /// `raw + 1`, or [`EMPTY`] (`0`) for an empty way. A fresh cache is
    /// one zeroed allocation.
    tags: Vec<u64>,
    /// `valid[set]`: bit `w` is set iff way `w` of `set` holds a line. The
    /// attack's read-then-`clflush` pairs keep nearly every set empty, so
    /// lookups compare tags only at the valid ways, and a lookup in an
    /// empty set is one load.
    valid: Vec<u64>,
    /// Bit `w` set iff misses may fill way `w`: every way by default, fewer
    /// under way partitioning (§5.5). Lookups ignore it: a hit in a way
    /// the mask excludes is still a hit.
    fill_mask: u64,
    policy: Policy,
    stats: CacheStats,
    /// Resident-line count, so empty-cache invalidation sweeps are O(1).
    resident: usize,
    /// `sets - 1` when the set count is a power of two (the standard
    /// geometry), so [`Self::set_of`] is an AND instead of a hardware
    /// divide — it runs several times per simulated memory op. `None`
    /// falls back to the modulo for exotic hand-built geometries.
    set_mask: Option<u64>,
}

/// Tag encoding of "no line".
const EMPTY: u64 = 0;

/// Encodes a line for tag storage (`raw + 1`, so zero means empty).
#[inline]
fn encode(line: LineAddr) -> u64 {
    line.raw() + 1
}

/// Decodes a non-[`EMPTY`] tag back to its line.
#[inline]
fn decode(tag: u64) -> LineAddr {
    debug_assert_ne!(tag, EMPTY);
    LineAddr::new(tag - 1)
}

impl std::fmt::Debug for SetAssocCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SetAssocCache")
            .field("cfg", &self.cfg)
            .field("policy", &self.policy.name())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SetAssocCache {
    /// Creates an empty cache with the given geometry and policy.
    ///
    /// Accepts a concrete policy by value or a [`Policy`]; either way the
    /// cache dispatches statically through the enum.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.ways` exceeds [`CacheConfig::MAX_WAYS`] (the
    /// per-set valid mask is one word), or if the policy cannot hold the
    /// geometry (tree-PLRU needs a power-of-two way count).
    pub fn new(cfg: CacheConfig, policy: impl Into<Policy>) -> Self {
        assert!(
            cfg.ways <= CacheConfig::MAX_WAYS,
            "{} ways exceed the valid mask's {}",
            cfg.ways,
            CacheConfig::MAX_WAYS
        );
        let mut policy = policy.into();
        policy.attach(cfg.sets, cfg.ways);
        SetAssocCache {
            tags: vec![EMPTY; cfg.sets * cfg.ways],
            valid: vec![0; cfg.sets],
            fill_mask: cfg.all_ways(),
            set_mask: cfg.sets.is_power_of_two().then(|| cfg.sets as u64 - 1),
            cfg,
            policy,
            stats: CacheStats::new(),
            resident: 0,
        }
    }

    /// Returns the cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Returns the set index `line` maps to.
    #[inline]
    pub fn set_of(&self, line: LineAddr) -> usize {
        match self.set_mask {
            Some(mask) => (line.raw() & mask) as usize,
            None => line.set_index(self.cfg.sets),
        }
    }

    /// Restricts future fills, and so victim selection, to the ways set
    /// in `mask` — the primitive behind way partitioning (§5.5 mitigation
    /// experiment). Resident lines stay where they are.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`], leaving the mask unchanged,
    /// if `mask` allows no way or sets a bit at or above the way count.
    pub fn set_fill_mask(&mut self, mask: u64) -> Result<(), ModelError> {
        let all = self.cfg.all_ways();
        if mask == 0 || mask & !all != 0 {
            return Err(ModelError::InvalidConfig {
                reason: format!(
                    "fill mask {mask:#x} must allow at least one of {} ways and no other",
                    self.cfg.ways
                ),
            });
        }
        self.fill_mask = mask;
        Ok(())
    }

    /// Accesses `line`: on a miss the line fills the lowest empty way the
    /// fill mask allows or, when every allowed way is occupied, evicts the
    /// replacement policy's victim among them.
    pub fn access(&mut self, line: LineAddr) -> AccessResult {
        let set = self.set_of(line);
        if let Some(way) = self.find_way(set, line) {
            return self.hit(set, way);
        }
        self.stats.misses += 1;
        let free = !self.valid[set] & self.fill_mask;
        let (way, evicted) = if free != 0 {
            self.resident += 1;
            (free.trailing_zeros() as usize, None)
        } else {
            let w = self.policy.victim(set, self.fill_mask);
            self.stats.evictions += 1;
            (w, Some(decode(self.tags[set * self.cfg.ways + w])))
        };
        self.fill(set, way, line, evicted)
    }

    /// Records a hit on `way` of `set`.
    #[inline]
    fn hit(&mut self, set: usize, way: usize) -> AccessResult {
        self.policy.on_hit(set, way);
        self.stats.hits += 1;
        AccessResult {
            hit: true,
            evicted: None,
            set,
        }
    }

    /// Writes `line` into `way` of `set` (already counted as a miss).
    #[inline]
    fn fill(
        &mut self,
        set: usize,
        way: usize,
        line: LineAddr,
        evicted: Option<LineAddr>,
    ) -> AccessResult {
        self.tags[set * self.cfg.ways + way] = encode(line);
        self.valid[set] |= 1 << way;
        self.policy.on_fill(set, way);
        AccessResult {
            hit: false,
            evicted,
            set,
        }
    }

    /// Empties the occupied `way` of `set`.
    #[inline]
    fn drop_way(&mut self, set: usize, way: usize) {
        self.tags[set * self.cfg.ways + way] = EMPTY;
        self.valid[set] &= !(1 << way);
        self.resident -= 1;
        self.policy.on_invalidate(set, way);
        self.stats.invalidations += 1;
    }

    /// The `(set, way)` a fill of `line` would take without evicting: the
    /// set's lowest empty allowed way, the one [`Self::access`] picks on a
    /// miss. `None` when `line` is resident or every allowed way of its set
    /// is occupied. Read-only: no policy or statistics update.
    #[inline]
    pub fn free_way(&self, line: LineAddr) -> Option<(usize, usize)> {
        let set = self.set_of(line);
        let free = !self.valid[set] & self.fill_mask;
        if free == 0 || self.find_way(set, line).is_some() {
            return None;
        }
        Some((set, free.trailing_zeros() as usize))
    }

    /// Applies a miss that fills the empty `way` of `set` and the
    /// invalidation of the filled line as one update: the statistics and
    /// the policy's `on_fill` then `on_invalidate`, in that order. Tags,
    /// valid masks and the resident count end where they started, so for
    /// `(set, way)` returned by [`Self::free_way`] for `line` this equals
    /// [`Self::access`] of `line` followed by [`Self::invalidate`] of it.
    #[inline]
    pub fn fill_then_invalidate(&mut self, set: usize, way: usize) {
        debug_assert_eq!(
            self.valid[set] >> way & 1,
            0,
            "way {way} of set {set} is occupied"
        );
        self.stats.misses += 1;
        self.policy.on_fill(set, way);
        self.policy.on_invalidate(set, way);
        self.stats.invalidations += 1;
    }

    /// Non-destructive residence check (no policy or stats update).
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find_way(self.set_of(line), line).is_some()
    }

    /// Invalidates `line` if resident; returns whether it was.
    pub fn invalidate(&mut self, line: LineAddr) -> bool {
        if self.resident == 0 {
            // Nothing cached (idle cores' private caches during a clflush
            // broadcast): skip even the set lookup.
            return false;
        }
        let set = self.set_of(line);
        let way = self.find_way(set, line);
        if let Some(way) = way {
            self.drop_way(set, way);
        }
        way.is_some()
    }

    /// Empties the whole cache, keeping statistics.
    pub fn invalidate_all(&mut self) {
        self.tags.fill(EMPTY);
        self.valid.fill(0);
        self.resident = 0;
        // Re-attach to reset policy metadata.
        self.policy.attach(self.cfg.sets, self.cfg.ways);
    }

    /// Invalidates every resident line of one set (a co-runner thrashing
    /// exactly that set), in ascending way order; returns how many lines
    /// were dropped.
    ///
    /// # Panics
    ///
    /// Panics if `set >= sets`.
    pub fn invalidate_set(&mut self, set: usize) -> usize {
        assert!(set < self.cfg.sets, "set {set} out of range");
        let mut valid = self.valid[set];
        let dropped = valid.count_ones() as usize;
        while valid != 0 {
            self.drop_way(set, valid.trailing_zeros() as usize);
            valid &= valid - 1;
        }
        dropped
    }

    /// Invalidates a contiguous run of `count` lines starting at `first` —
    /// the back-invalidation broadcast of a page-granular event (EPC
    /// eviction, migration) coalesced into one pass over the flat tag
    /// array instead of `count` separate calls. Per-line effects (policy
    /// `on_invalidate` calls, statistics) are identical, in identical
    /// ascending-line order, to calling [`Self::invalidate`] once per
    /// line; only the host cost changes. Returns how many lines were
    /// dropped.
    #[must_use = "the dropped-line count distinguishes a no-op broadcast from real work"]
    pub fn invalidate_range(&mut self, first: LineAddr, count: u64) -> usize {
        if self.resident == 0 {
            // Nothing cached (idle cores' private caches during a page
            // broadcast): skip the whole pass.
            return 0;
        }
        let sets = self.cfg.sets;
        let first_set = self.set_of(first);
        if (count as usize) <= sets && first_set + count as usize <= sets {
            // The run maps to `count` consecutive distinct sets (always
            // true for a page-aligned 64-line run once `sets >= 64`, i.e.
            // every on-chip cache of the default machine): one linear
            // pass over the contiguous tag window, at most one match per
            // set, stopping early once the cache drains.
            let mut dropped = 0;
            for i in 0..count as usize {
                let set = first_set + i;
                if let Some(way) = self.find_way(set, LineAddr::new(first.raw() + i as u64)) {
                    self.drop_way(set, way);
                    dropped += 1;
                    if self.resident == 0 {
                        break;
                    }
                }
            }
            dropped
        } else {
            // A run longer than the set count (or crossing the set-index
            // wrap) can alias several lines into one set: fall back to
            // per-line invalidation, which handles aliasing exactly.
            (0..count)
                .filter(|&i| self.invalidate(LineAddr::new(first.raw() + i)))
                .count()
        }
    }

    /// Number of resident lines.
    pub fn occupancy(&self) -> usize {
        self.resident
    }

    /// Number of resident lines in one set.
    ///
    /// # Panics
    ///
    /// Panics if `set >= sets`.
    pub fn set_occupancy(&self, set: usize) -> usize {
        assert!(set < self.cfg.sets, "set {set} out of range");
        self.valid[set].count_ones() as usize
    }

    /// Iterates over all resident lines.
    pub fn resident_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.tags
            .iter()
            .filter(|&&t| t != EMPTY)
            .map(|&t| decode(t))
    }

    /// Returns accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zeroes the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::new();
    }

    /// The way of `set` holding `line`, comparing tags at valid ways only.
    #[inline]
    fn find_way(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = set * self.cfg.ways;
        let tag = encode(line);
        let mut valid = self.valid[set];
        while valid != 0 {
            let w = valid.trailing_zeros() as usize;
            if self.tags[base + w] == tag {
                return Some(w);
            }
            valid &= valid - 1;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{TreePlru, TrueLru};
    use mee_rng::prop::{check, pick, vec_of, PropConfig};

    fn small_lru() -> SetAssocCache {
        let cfg = CacheConfig::from_capacity(4 * 64, 2, 64).unwrap(); // 2 sets x 2 ways
        SetAssocCache::new(cfg, TrueLru::new())
    }

    #[test]
    fn config_from_capacity() {
        let cfg = CacheConfig::from_capacity(64 * 1024, 8, 64).unwrap();
        assert_eq!(cfg.sets, 128);
        assert_eq!(cfg.capacity_bytes(), 64 * 1024);
    }

    #[test]
    fn config_rejects_bad_shapes() {
        assert!(CacheConfig::from_capacity(0, 8, 64).is_err());
        assert!(CacheConfig::from_capacity(64 * 1024, 0, 64).is_err());
        assert!(CacheConfig::from_capacity(64 * 1024, 8, 0).is_err());
        assert!(CacheConfig::from_capacity(64 * 1024, 8, 96).is_err());
        assert!(CacheConfig::from_capacity(100, 1, 64).is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig::from_capacity(3 * 2 * 64, 2, 64).is_err());
        // More ways than the valid mask holds.
        assert!(CacheConfig::from_capacity(128 * 64, 128, 64).is_err());
        assert!(CacheConfig::from_capacity(64 * 64, 64, 64).is_ok());
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_lru();
        let line = LineAddr::new(0);
        let first = c.access(line);
        assert!(!first.hit);
        assert_eq!(first.evicted, None);
        assert!(c.access(line).hit);
        assert!(c.contains(line));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_eviction_in_lru_order() {
        let mut c = small_lru(); // 2 sets
                                 // Lines 0, 2, 4 all map to set 0.
        let l0 = LineAddr::new(0);
        let l2 = LineAddr::new(2);
        let l4 = LineAddr::new(4);
        c.access(l0);
        c.access(l2);
        let r = c.access(l4);
        assert_eq!(r.evicted, Some(l0));
        assert!(!c.contains(l0));
        assert!(c.contains(l2));
        assert!(c.contains(l4));
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn invalidate_set_empties_only_that_set() {
        let mut c = small_lru();
        c.access(LineAddr::new(0)); // set 0
        c.access(LineAddr::new(2)); // set 0
        c.access(LineAddr::new(1)); // set 1
        assert_eq!(c.invalidate_set(0), 2);
        assert_eq!(c.set_occupancy(0), 0);
        assert_eq!(c.set_occupancy(1), 1);
        assert!(c.contains(LineAddr::new(1)));
        assert_eq!(c.stats().invalidations, 2);
        // Idempotent on an already-empty set.
        assert_eq!(c.invalidate_set(0), 0);
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut c = small_lru();
        c.access(LineAddr::new(0)); // set 0
        c.access(LineAddr::new(1)); // set 1
        c.access(LineAddr::new(2)); // set 0
        c.access(LineAddr::new(3)); // set 1
        assert_eq!(c.occupancy(), 4);
        assert_eq!(c.stats().evictions, 0);
        assert_eq!(c.set_occupancy(0), 2);
        assert_eq!(c.set_occupancy(1), 2);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_lru();
        let line = LineAddr::new(6);
        c.access(line);
        assert!(c.invalidate(line));
        assert!(!c.contains(line));
        assert!(!c.invalidate(line));
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = small_lru();
        for i in 0..4 {
            c.access(LineAddr::new(i));
        }
        c.invalidate_all();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.resident_lines().count(), 0);
    }

    #[test]
    fn contains_does_not_perturb_state() {
        let mut c = small_lru();
        let l0 = LineAddr::new(0);
        let l2 = LineAddr::new(2);
        c.access(l0);
        c.access(l2);
        let before = c.stats();
        // Probing l0 must NOT refresh it in LRU order.
        assert!(c.contains(l0));
        assert_eq!(c.stats(), before);
        let r = c.access(LineAddr::new(4));
        assert_eq!(r.evicted, Some(l0), "contains() perturbed LRU state");
    }

    /// Pinned spec-harness counterexample (invariant
    /// `invalidated-way-preferred`, exact op trace): invalidating a line
    /// must update the PLRU tree so the freed way is the preferred victim.
    /// With the pre-fix no-op `TreePlru::on_invalidate`, the masked fill
    /// below evicted D (the stale tree still pointed at way 2) instead of
    /// falling back from the freed-but-disallowed way 1 to way 0.
    #[test]
    fn invalidate_updates_plru_victim_state() {
        let cfg = CacheConfig::from_capacity(4 * 64, 4, 64).unwrap(); // 1 set x 4 ways
        let mut c = SetAssocCache::new(cfg, TreePlru::new());
        let (a, b, d, e) = (
            LineAddr::new(0),
            LineAddr::new(1),
            LineAddr::new(2),
            LineAddr::new(3),
        );
        c.access(a); // way 0
        c.access(b); // way 1
        c.access(d); // way 2
        c.access(e); // way 3
        c.access(a); // hit: tree points away from way 0
        c.access(b); // hit: tree points away from way 1 (victim would be way 2)
        assert!(c.invalidate(b)); // frees way 1; tree must now point AT way 1
                                  // Way-partitioned fill that may not use the freed way: the policy
                                  // falls back from way 1 to the first allowed way (0), evicting A.
        c.set_fill_mask(0b1101).unwrap();
        let r = c.access(LineAddr::new(4));
        assert_eq!(r.evicted, Some(a), "stale PLRU bits survived on_invalidate");
    }

    #[test]
    fn way_mask_restricts_fills() {
        let cfg = CacheConfig::from_capacity(8 * 64, 8, 64).unwrap(); // 1 set x 8 ways
        let mut c = SetAssocCache::new(cfg, TrueLru::new());
        c.set_fill_mask(0b11).unwrap(); // only ways 0-1
        for i in 0..4 {
            c.access(LineAddr::new(i));
        }
        // Only 2 ways allowed: at most 2 resident at once.
        assert_eq!(c.occupancy(), 2);
        assert!(c.contains(LineAddr::new(2)));
        assert!(c.contains(LineAddr::new(3)));
    }

    #[test]
    fn hit_in_disallowed_way_still_hits() {
        let cfg = CacheConfig::from_capacity(8 * 64, 8, 64).unwrap();
        let mut c = SetAssocCache::new(cfg, TrueLru::new());
        let line = LineAddr::new(0);
        c.access(line); // fills way 0 (unrestricted)
        c.set_fill_mask(0xf0).unwrap();
        assert!(c.access(line).hit);
    }

    /// A mask that allows no way, or names a way the cache lacks, is a
    /// typed error that leaves the current mask in force.
    #[test]
    fn bad_fill_masks_are_typed_errors() {
        let mut c = small_lru(); // 2 ways
        for bad in [0, 0b100, 1 << 63] {
            assert!(
                matches!(c.set_fill_mask(bad), Err(ModelError::InvalidConfig { .. })),
                "mask {bad:#b} accepted"
            );
        }
        c.set_fill_mask(0b10).unwrap();
        assert!(c.set_fill_mask(0).is_err());
        assert_eq!(c.free_way(LineAddr::new(0)), Some((0, 1)));
    }

    /// At 64 ways the default mask is every bit of the word: all 64 ways
    /// fill before the first eviction.
    #[test]
    fn sixty_four_ways_fill_every_way() {
        let cfg = CacheConfig::from_capacity(64 * 64, 64, 64).unwrap(); // 1 set
        assert_eq!(cfg.all_ways(), u64::MAX);
        let mut c = SetAssocCache::new(cfg, TrueLru::new());
        for i in 0..64 {
            assert_eq!(c.access(LineAddr::new(i)).evicted, None);
        }
        assert_eq!(c.access(LineAddr::new(64)).evicted, Some(LineAddr::new(0)));
        c.set_fill_mask(u64::MAX).unwrap();
    }

    #[test]
    fn mee_cache_shape_fills_and_self_evicts() {
        // The actual reverse-engineered shape: 128 sets x 8 ways.
        let cfg = CacheConfig::from_capacity(64 * 1024, 8, 64).unwrap();
        let mut c = SetAssocCache::new(cfg, TreePlru::new());
        // Fill with 1024 distinct lines: exactly capacity, no evictions.
        for i in 0..1024 {
            c.access(LineAddr::new(i));
        }
        assert_eq!(c.occupancy(), 1024);
        assert_eq!(c.stats().evictions, 0);
        // One more line forces exactly one eviction in its set.
        let r = c.access(LineAddr::new(1024));
        assert!(r.evicted.is_some());
        assert_eq!(c.occupancy(), 1024);
    }

    /// Occupancy never exceeds capacity and a just-accessed line is
    /// always resident afterwards.
    #[test]
    fn occupancy_bounded_and_mru_resident() {
        check(
            "occupancy_bounded_and_mru_resident",
            &PropConfig::from_env(64),
            |rng| {
                let accesses = vec_of(rng, 1..400, |r| r.random_range(0u64..512));
                let ways = pick(rng, &[1usize, 2, 4, 8]);
                let cfg = CacheConfig::from_capacity(16 * ways * 64, ways, 64).unwrap();
                let mut c = SetAssocCache::new(cfg, TreePlru::new());
                for &a in &accesses {
                    let line = LineAddr::new(a);
                    c.access(line);
                    assert!(c.contains(line));
                    assert!(c.occupancy() <= cfg.sets * cfg.ways);
                    for s in 0..cfg.sets {
                        assert!(c.set_occupancy(s) <= cfg.ways);
                    }
                }
            },
        );
    }

    /// Stats identity: accesses = hits + misses; evictions <= misses.
    #[test]
    fn stats_identities() {
        check("stats_identities", &PropConfig::from_env(64), |rng| {
            let accesses = vec_of(rng, 1..300, |r| r.random_range(0u64..256));
            let cfg = CacheConfig::from_capacity(4 * 1024, 4, 64).unwrap();
            let mut c = SetAssocCache::new(cfg, TrueLru::new());
            for &a in &accesses {
                c.access(LineAddr::new(a));
            }
            let s = c.stats();
            assert_eq!(s.accesses(), accesses.len() as u64);
            assert!(s.evictions <= s.misses);
        });
    }

    /// `invalidate_range` is observationally identical to a per-line
    /// `invalidate` loop: same dropped count, same statistics, same
    /// residents, and — via a random access suffix — same replacement
    /// state. Exercises both the consecutive-set fast path (64+ sets) and
    /// the aliasing fallback (2 sets).
    #[test]
    fn invalidate_range_matches_per_line_loop() {
        check(
            "invalidate_range_matches_per_line_loop",
            &PropConfig::from_env(64),
            |rng| {
                let sets = pick(rng, &[2usize, 64, 128]);
                let ways = pick(rng, &[2usize, 4, 8]);
                let cfg = CacheConfig::from_capacity(sets * ways * 64, ways, 64).unwrap();
                let mut bulk = SetAssocCache::new(cfg, TreePlru::new());
                let mut serial = SetAssocCache::new(cfg, TreePlru::new());
                let warmup = vec_of(rng, 0..300, |r| r.random_range(0u64..512));
                for &a in &warmup {
                    bulk.access(LineAddr::new(a));
                    serial.access(LineAddr::new(a));
                }
                let first = LineAddr::new(rng.random_range(0u64..448));
                let count = rng.random_range(1u64..=64);
                let bulk_dropped = bulk.invalidate_range(first, count);
                let serial_dropped = (0..count)
                    .filter(|&i| serial.invalidate(LineAddr::new(first.raw() + i)))
                    .count();
                assert_eq!(bulk_dropped, serial_dropped);
                assert_eq!(bulk.stats(), serial.stats());
                assert_eq!(bulk.occupancy(), serial.occupancy());
                let mut bulk_lines: Vec<_> = bulk.resident_lines().collect();
                let mut serial_lines: Vec<_> = serial.resident_lines().collect();
                bulk_lines.sort_unstable();
                serial_lines.sort_unstable();
                assert_eq!(bulk_lines, serial_lines);
                // Replacement-policy state must match too: a suffix of
                // fills has to pick identical victims on both sides.
                let suffix = vec_of(rng, 1..200, |r| r.random_range(0u64..512));
                for &a in &suffix {
                    assert_eq!(
                        bulk.access(LineAddr::new(a)),
                        serial.access(LineAddr::new(a))
                    );
                }
            },
        );
    }

    /// A random non-empty fill mask over `cfg`'s ways.
    fn random_mask(rng: &mut mee_rng::Rng, cfg: CacheConfig) -> u64 {
        rng.next_u64() & cfg.all_ways() | 1 << rng.random_range(0..cfg.ways)
    }

    /// `fill_then_invalidate` at the way `free_way` names equals `access`
    /// followed by `invalidate` of the line, for every policy, from seeded
    /// random set states and under random fill masks: same statistics and
    /// residents after every op, and the same policy state, read back
    /// through the victims of a burst of fills under full and partial
    /// masks (`TrueLru`'s clock and `RandomEviction`'s RNG included).
    /// `free_way` must refuse exactly the resident lines and the sets whose
    /// allowed ways are all occupied.
    #[test]
    fn fill_then_invalidate_matches_access_then_invalidate() {
        use crate::policy::{RandomEviction, Srrip};
        check(
            "fill_then_invalidate_matches_access_then_invalidate",
            &PropConfig::from_env(256),
            |rng| {
                const SETS: usize = 4;
                let policy = rng.random_range(0u64..4);
                let seed = rng.random_range(0u64..1000);
                let ways = pick(rng, &[1usize, 2, 4, 8]);
                let mk = || -> Policy {
                    match policy {
                        0 => TreePlru::new().into(),
                        1 => TrueLru::new().into(),
                        2 => Srrip::new().into(),
                        _ => RandomEviction::with_seed(seed).into(),
                    }
                };
                let cfg = CacheConfig::from_capacity(SETS * ways * 64, ways, 64).unwrap();
                let mut fused = SetAssocCache::new(cfg, mk());
                let mut split = SetAssocCache::new(cfg, mk());
                let universe = (2 * SETS * ways) as u64;
                for _ in 0..rng.random_range(1usize..300) {
                    let line = LineAddr::new(rng.random_range(0..universe));
                    match rng.random_range(0u8..5) {
                        0 => assert_eq!(fused.access(line), split.access(line)),
                        1 => assert_eq!(fused.invalidate(line), split.invalidate(line)),
                        2 => {
                            // The mask stays in force for the ops after it.
                            let mask = random_mask(rng, cfg);
                            fused.set_fill_mask(mask).unwrap();
                            split.set_fill_mask(mask).unwrap();
                            assert_eq!(fused.access(line), split.access(line));
                        }
                        _ => {
                            let set = split.set_of(line);
                            match fused.free_way(line) {
                                Some((s, way)) => {
                                    assert_eq!(s, set);
                                    fused.fill_then_invalidate(set, way);
                                    let r = split.access(line);
                                    assert!(!r.hit && r.evicted.is_none(), "{r:?}");
                                    assert_eq!(split.find_way(set, line), Some(way));
                                    assert!(split.invalidate(line));
                                }
                                None => {
                                    let mask = split.fill_mask;
                                    assert!(
                                        split.contains(line) || split.valid[set] & mask == mask
                                    );
                                    for c in [&mut fused, &mut split] {
                                        c.access(line);
                                        c.invalidate(line);
                                    }
                                }
                            }
                        }
                    }
                    assert_eq!(fused.stats(), split.stats());
                    assert_eq!(fused.occupancy(), split.occupancy());
                    assert_eq!(fused.valid, split.valid);
                }
                let mut fused_lines: Vec<_> = fused.resident_lines().collect();
                let mut split_lines: Vec<_> = split.resident_lines().collect();
                fused_lines.sort_unstable();
                split_lines.sort_unstable();
                assert_eq!(fused_lines, split_lines);
                // Way-masked fills read policy state that plain fills never
                // reach (tree-PLRU bits shared with an empty way).
                for _ in 0..4 * SETS * ways {
                    let line = LineAddr::new(rng.random_range(0..2 * universe));
                    let mask = if rng.random_range(0u8..2) == 0 {
                        cfg.all_ways()
                    } else {
                        random_mask(rng, cfg)
                    };
                    fused.set_fill_mask(mask).unwrap();
                    split.set_fill_mask(mask).unwrap();
                    assert_eq!(fused.access(line), split.access(line));
                }
            },
        );
    }

    /// The reference tree-PLRU: one `bool` per node, walked root to leaf
    /// on every update — the layout the policy had before its tree was
    /// packed into one word per set. Node numbering and bit meaning
    /// (`true` = go right) match [`TreePlru`].
    struct RefPlru {
        bits: Vec<bool>,
        ways: usize,
    }

    impl RefPlru {
        fn new(sets: usize, ways: usize) -> Self {
            RefPlru {
                bits: vec![false; sets * (ways - 1)],
                ways,
            }
        }

        /// Sets every node on `way`'s path to `toward ^ right`: away from
        /// the way on a hit or fill, toward it on an invalidate.
        fn point(&mut self, set: usize, way: usize, toward: bool) {
            let base = set * (self.ways - 1);
            let (mut node, mut lo, mut hi) = (0, 0, self.ways);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let right = way >= mid;
                self.bits[base + node] = right == toward;
                if right {
                    node = 2 * node + 2;
                    lo = mid;
                } else {
                    node = 2 * node + 1;
                    hi = mid;
                }
            }
        }

        fn victim(&self, set: usize) -> usize {
            let base = set * (self.ways - 1);
            let (mut node, mut lo, mut hi) = (0, 0, self.ways);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if self.bits[base + node] {
                    node = 2 * node + 2;
                    lo = mid;
                } else {
                    node = 2 * node + 1;
                    hi = mid;
                }
            }
            lo
        }
    }

    /// Every tag writer keeps the per-set valid masks exact, and the packed
    /// tree-PLRU word stays equivalent to the per-node reference tree:
    /// random mixes of `access` under full and partial fill masks, `invalidate`,
    /// `invalidate_range`, `invalidate_set` and `invalidate_all`, over
    /// every policy and 1 to 64 ways, checked after every op.
    #[test]
    fn valid_masks_and_packed_plru_track_every_tag_writer() {
        use crate::policy::{RandomEviction, Srrip};
        check(
            "valid_masks_and_packed_plru_track_every_tag_writer",
            &PropConfig::from_env(64),
            |rng| {
                const SETS: usize = 4;
                let policy = rng.random_range(0u64..4);
                let seed = rng.random_range(0u64..1000);
                let ways = pick(rng, &[1usize, 2, 4, 8, 16, 64]);
                let mk = || -> Policy {
                    match policy {
                        0 => TreePlru::new().into(),
                        1 => TrueLru::new().into(),
                        2 => Srrip::new().into(),
                        _ => RandomEviction::with_seed(seed).into(),
                    }
                };
                let cfg = CacheConfig::from_capacity(SETS * ways * 64, ways, 64).unwrap();
                let mut c = SetAssocCache::new(cfg, mk());
                // Present only under tree-PLRU, mirroring its callbacks.
                let mut reference = (policy == 0).then(|| RefPlru::new(SETS, ways));
                // Twice the capacity: hits, empty-way fills and full-set
                // victims all occur.
                let universe = (2 * SETS * ways) as u64;
                let ops = vec_of(rng, 1..600, |r| r.random_range(0u8..20));
                for op in ops {
                    let line = LineAddr::new(rng.random_range(0..universe));
                    let set = c.set_of(line);
                    match op {
                        0..=10 => {
                            if op <= 7 {
                                c.access(line);
                            } else {
                                c.set_fill_mask(random_mask(rng, cfg)).unwrap();
                                c.access(line);
                                c.set_fill_mask(cfg.all_ways()).unwrap();
                            }
                            // A hit and a fill touch the tree alike.
                            let way = c.find_way(set, line).unwrap();
                            if let Some(r) = reference.as_mut() {
                                r.point(set, way, false);
                            }
                        }
                        11..=14 => {
                            let way = c.find_way(set, line);
                            assert_eq!(c.invalidate(line), way.is_some());
                            if let (Some(r), Some(way)) = (reference.as_mut(), way) {
                                r.point(set, way, true);
                            }
                        }
                        15..=16 => {
                            // Long runs take the aliasing fallback.
                            let count = rng.random_range(1..=2 * SETS as u64);
                            let lines: Vec<_> =
                                (0..count).map(|i| LineAddr::new(line.raw() + i)).collect();
                            let hits: Vec<_> = lines
                                .iter()
                                .filter_map(|&l| Some((c.set_of(l), c.find_way(c.set_of(l), l)?)))
                                .collect();
                            assert_eq!(c.invalidate_range(line, count), hits.len());
                            if let Some(r) = reference.as_mut() {
                                for &(s, w) in &hits {
                                    r.point(s, w, true);
                                }
                            }
                        }
                        17..=18 => {
                            let valid = c.valid[set];
                            assert_eq!(c.invalidate_set(set), valid.count_ones() as usize);
                            if let Some(r) = reference.as_mut() {
                                for w in (0..ways).filter(|&w| valid >> w & 1 != 0) {
                                    r.point(set, w, true);
                                }
                            }
                        }
                        _ => {
                            c.invalidate_all();
                            reference = reference.map(|_| RefPlru::new(SETS, ways));
                        }
                    }
                    let mut total = 0;
                    for s in 0..SETS {
                        let tags = &c.tags[s * ways..(s + 1) * ways];
                        let nonempty = tags
                            .iter()
                            .enumerate()
                            .filter(|&(_, &t)| t != EMPTY)
                            .fold(0u64, |m, (w, _)| m | 1 << w);
                        assert_eq!(c.valid[s], nonempty, "set {s} mask after op {op}");
                        total += c.set_occupancy(s);
                        if let Some(r) = reference.as_ref() {
                            assert_eq!(c.policy.victim(s, cfg.all_ways()), r.victim(s), "set {s}");
                        }
                    }
                    assert_eq!(total, c.occupancy());
                }
            },
        );
    }

    /// A line in a different set is never evicted by a fill.
    #[test]
    fn fills_only_evict_within_their_set() {
        check(
            "fills_only_evict_within_their_set",
            &PropConfig::from_env(64),
            |rng| {
                let seed = rng.random_range(0u64..1000);
                let cfg = CacheConfig::from_capacity(2 * 2 * 64, 2, 64).unwrap(); // 2 sets
                let mut c = SetAssocCache::new(cfg, TrueLru::new());
                let other_set = LineAddr::new(1); // set 1
                c.access(other_set);
                // Hammer set 0.
                for i in 0..8 {
                    let r = c.access(LineAddr::new((seed % 7 + 1) * 2 + i * 2));
                    if let Some(e) = r.evicted {
                        assert_eq!(e.set_index(2), 0);
                    }
                }
                assert!(c.contains(other_set));
            },
        );
    }
}
