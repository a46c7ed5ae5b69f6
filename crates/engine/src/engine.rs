//! Walk logic and timing of the MEE.

use mee_cache::policy::Policy;
use mee_cache::{CacheConfig, SetAssocCache};
use mee_mem::DramModel;
use mee_obs::{EventKind, NullTracer, Tracer, WalkLevel};
use mee_tree::{IntegrityTree, TreeGeometry, TreeLevel};
use mee_types::{Cycles, LineAddr, ModelError, TimingConfig};

/// Where the integrity-tree walk stopped.
///
/// The ordering is the Figure-5 latency ladder: `Versions` is the cheapest
/// outcome, `Root` the most expensive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HitLevel {
    /// The versions line was cached — the fast path the spy decodes as `0`.
    Versions,
    /// Versions missed; the L0 line was cached.
    L0,
    /// Walk climbed to L1 before hitting.
    L1,
    /// Walk climbed to L2 before hitting.
    L2,
    /// Every in-memory level missed; verified against the on-die root.
    Root,
}

impl HitLevel {
    /// All hit levels, cheapest first.
    pub const ALL: [HitLevel; 5] = [
        HitLevel::Versions,
        HitLevel::L0,
        HitLevel::L1,
        HitLevel::L2,
        HitLevel::Root,
    ];

    /// Index in the latency ladder (0 = versions hit, 4 = root).
    pub fn ladder_index(self) -> usize {
        match self {
            HitLevel::Versions => 0,
            HitLevel::L0 => 1,
            HitLevel::L1 => 2,
            HitLevel::L2 => 3,
            HitLevel::Root => 4,
        }
    }

    /// Human-readable label used by the experiment harnesses.
    pub fn label(self) -> &'static str {
        match self {
            HitLevel::Versions => "versions hit",
            HitLevel::L0 => "level 0 hit",
            HitLevel::L1 => "level 1 hit",
            HitLevel::L2 => "level 2 hit",
            HitLevel::Root => "root access",
        }
    }
}

impl std::fmt::Display for HitLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A fixed-capacity inline list of line addresses touched by one walk.
///
/// A walk fills at most five lines (PD_Tag + versions + L0 + L1 + L2) and
/// each fill evicts at most one victim, so both lists fit in an inline
/// array — no heap allocation on the per-memory-op hot path.
#[derive(Clone, Copy)]
pub struct WalkList {
    len: u8,
    items: [LineAddr; Self::CAP],
}

impl WalkList {
    /// Maximum entries: one per walk level.
    pub const CAP: usize = 5;

    /// An empty list.
    pub fn new() -> Self {
        WalkList {
            len: 0,
            items: [LineAddr::new(0); Self::CAP],
        }
    }

    /// Appends a line.
    ///
    /// # Panics
    ///
    /// Panics if the list is full (cannot happen for a well-formed walk).
    pub fn push(&mut self, line: LineAddr) {
        self.items[self.len as usize] = line;
        self.len += 1;
    }

    /// The live entries, in walk order.
    pub fn as_slice(&self) -> &[LineAddr] {
        &self.items[..self.len as usize]
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the list is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `line` is in the list.
    pub fn contains(&self, line: &LineAddr) -> bool {
        self.as_slice().contains(line)
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> std::slice::Iter<'_, LineAddr> {
        self.as_slice().iter()
    }

    /// Copies the entries into a `Vec` (for order-insensitive comparisons).
    pub fn to_vec(self) -> Vec<LineAddr> {
        self.as_slice().to_vec()
    }
}

impl Default for WalkList {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for WalkList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl PartialEq for WalkList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for WalkList {}

impl<'a> IntoIterator for &'a WalkList {
    type Item = &'a LineAddr;
    type IntoIter = std::slice::Iter<'a, LineAddr>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Microarchitectural outcome of one MEE operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeeAccess {
    /// Level at which the walk stopped.
    pub hit_level: HitLevel,
    /// MEE-added latency: crypto plus any serialized tree fetches. Does
    /// *not* include the data line's own DRAM fetch (the machine charges
    /// that).
    pub latency: Cycles,
    /// Tree lines filled into the MEE cache by this walk.
    pub filled: WalkList,
    /// Tree lines evicted from the MEE cache by those fills.
    pub evicted: WalkList,
}

/// Result of a verified protected read.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeeRead {
    /// The microarchitectural outcome.
    pub access: MeeAccess,
    /// The verified data digest.
    pub digest: u64,
}

/// Cumulative MEE statistics, including the per-level hit histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MeeStats {
    /// Protected reads served.
    pub reads: u64,
    /// Protected writes served.
    pub writes: u64,
    /// Walk outcomes indexed by [`HitLevel::ladder_index`].
    pub hits_by_level: [u64; 5],
}

impl MeeStats {
    /// Number of walks that stopped at `level`.
    pub fn hits_at(&self, level: HitLevel) -> u64 {
        self.hits_by_level[level.ladder_index()]
    }
}

/// The Memory Encryption Engine: integrity tree + MEE cache + walk timing.
pub struct Mee {
    tree: IntegrityTree,
    cache: SetAssocCache,
    timing: TimingConfig,
    stats: MeeStats,
    /// Global time until which the engine's pipeline is occupied; a walk
    /// arriving earlier queues (shared-resource contention across cores).
    busy_until: Cycles,
}

impl std::fmt::Debug for Mee {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mee")
            .field("cache", &self.cache)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Mee {
    /// Creates an MEE over `geo`, keyed by `key`, with the given cache
    /// geometry and replacement policy.
    pub fn new(
        geo: TreeGeometry,
        key: u64,
        cache_cfg: CacheConfig,
        policy: impl Into<Policy>,
        timing: TimingConfig,
    ) -> Self {
        Mee {
            tree: IntegrityTree::new(geo, key),
            cache: SetAssocCache::new(cache_cfg, policy),
            timing,
            stats: MeeStats::default(),
            busy_until: Cycles::ZERO,
        }
    }

    /// The tree geometry (for address arithmetic in experiments).
    pub fn geometry(&self) -> &TreeGeometry {
        self.tree.geometry()
    }

    /// Read-only view of the MEE cache.
    pub fn cache(&self) -> &SetAssocCache {
        &self.cache
    }

    /// The functional integrity tree (tamper injection in tests).
    pub fn tree_mut(&mut self) -> &mut IntegrityTree {
        &mut self.tree
    }

    /// Cumulative statistics.
    pub fn stats(&self) -> MeeStats {
        self.stats
    }

    /// Global time until which the pipeline is occupied.
    pub fn busy_until(&self) -> Cycles {
        self.busy_until
    }

    /// Restricts future MEE-cache fills to the ways set in `mask` — the
    /// way-partitioning mitigation of §5.5. See
    /// [`SetAssocCache::set_fill_mask`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `mask` allows no way or
    /// names a way the MEE cache lacks.
    pub fn set_fill_mask(&mut self, mask: u64) -> Result<(), ModelError> {
        self.cache.set_fill_mask(mask)
    }

    /// Drops every line of the MEE cache — a whole-cache flush event (e.g.
    /// an aggressive co-runner or a power-management flush). The integrity
    /// tree itself is untouched: the next walk of any address re-fetches and
    /// re-verifies from DRAM, it does not fault.
    pub fn flush_cache(&mut self) {
        self.cache.invalidate_all();
    }

    /// Drops every resident line of one MEE-cache set (a co-runner's
    /// eviction set thrashing exactly that set); returns how many lines
    /// were dropped.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range for the cache geometry.
    pub fn flush_cache_set(&mut self, set: usize) -> usize {
        self.cache.invalidate_set(set)
    }

    /// Drops the per-block walk footprint of `data_line` from the MEE
    /// cache: its versions line and its PD_Tag line. Upper tree levels are
    /// shared across wide address ranges and are left resident — this is
    /// the footprint an EPC page eviction (`EWB`/`ELDU` rewriting the
    /// block's counters) invalidates. Returns how many lines were dropped.
    pub fn evict_walk_footprint(&mut self, data_line: LineAddr) -> usize {
        let geo = *self.tree.geometry();
        if !geo.covers(data_line.base()) {
            return 0;
        }
        let path = geo.walk_path(data_line);
        let mut dropped = 0;
        dropped += usize::from(self.cache.invalidate(geo.version_line(path.version)));
        dropped += usize::from(self.cache.invalidate(geo.pd_tag_line(path.version)));
        dropped
    }

    /// Serves a protected-region read that missed the on-chip hierarchy.
    ///
    /// # Errors
    ///
    /// * [`ModelError::BadPhysAddr`] if `data_line` is not protected data.
    /// * [`ModelError::IntegrityViolation`] if verification fails at any
    ///   walked level.
    pub fn read(
        &mut self,
        data_line: LineAddr,
        now: Cycles,
        dram: &mut DramModel,
    ) -> Result<MeeRead, ModelError> {
        self.read_traced(data_line, now, dram, &mut NullTracer)
    }

    /// [`Self::read`] with walk steps and MEE-cache evictions reported to
    /// `tracer`. The tracer observes the walk; it cannot change it, so
    /// tracing on/off leaves outcomes bit-identical.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_traced(
        &mut self,
        data_line: LineAddr,
        now: Cycles,
        dram: &mut DramModel,
        tracer: &mut dyn Tracer,
    ) -> Result<MeeRead, ModelError> {
        let access = self.walk(data_line, now, dram, tracer)?;
        self.stats.reads += 1;
        let digest = self
            .tree
            .read_partial(data_line, access.hit_level.ladder_index())?;
        Ok(MeeRead { access, digest })
    }

    /// Serves a protected-region write that missed the on-chip hierarchy:
    /// the same walk as a read (read-modify-write of the counters), then the
    /// counter bump and re-tagging, plus one more `mee_crypto` for the
    /// re-encryption.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn write(
        &mut self,
        data_line: LineAddr,
        digest: u64,
        now: Cycles,
        dram: &mut DramModel,
    ) -> Result<MeeAccess, ModelError> {
        self.write_traced(data_line, digest, now, dram, &mut NullTracer)
    }

    /// [`Self::write`] with walk steps and MEE-cache evictions reported to
    /// `tracer` (observation only — outcomes are unchanged).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn write_traced(
        &mut self,
        data_line: LineAddr,
        digest: u64,
        now: Cycles,
        dram: &mut DramModel,
        tracer: &mut dyn Tracer,
    ) -> Result<MeeAccess, ModelError> {
        let mut access = self.walk(data_line, now, dram, tracer)?;
        self.stats.writes += 1;
        self.tree.write(data_line, digest)?;
        access.latency += self.timing.mee_crypto;
        Ok(access)
    }

    /// The MEE-cache set index of `data_line`'s versions line — the set a
    /// walk of this line contends on (the per-set metrics dimension).
    /// `None` when the line is outside the protected region.
    pub fn versions_set(&self, data_line: LineAddr) -> Option<usize> {
        let geo = self.tree.geometry();
        if !geo.covers(data_line.base()) {
            return None;
        }
        let path = geo.walk_path(data_line);
        let sets = self.cache.config().sets;
        Some(geo.version_line(path.version).set_index(sets))
    }

    /// The walk itself: versions level first, climbing only on misses.
    ///
    /// `now` is the requester's (global-order) arrival time: if the engine
    /// is still serving an earlier walk, the newcomer queues for the
    /// remainder, and either way the pipeline is held for `mee_service`.
    fn walk(
        &mut self,
        data_line: LineAddr,
        now: Cycles,
        dram: &mut DramModel,
        tracer: &mut dyn Tracer,
    ) -> Result<MeeAccess, ModelError> {
        let geo = *self.tree.geometry();
        if !geo.covers(data_line.base()) {
            return Err(ModelError::BadPhysAddr {
                pa: data_line.base(),
            });
        }
        let path = geo.walk_path(data_line);
        // One virtual call up front; `NullTracer` (the bench configuration)
        // then costs nothing per walk step.
        let tracing = tracer.enabled();
        // Queue behind an in-flight walk from another core.
        let queue_delay = self.busy_until.saturating_sub(now);
        self.busy_until = now.max(self.busy_until) + self.timing.mee_service;
        let mut latency = queue_delay + self.timing.mee_crypto;
        let mut filled = WalkList::new();
        let mut evicted = WalkList::new();

        // PD_Tag metadata: always consulted, latency fully overlapped with
        // the data fetch. It still occupies (even) cache sets and DRAM
        // bandwidth when it misses.
        let tag_line = geo.pd_tag_line(path.version);
        let tag_result = self.cache.access(tag_line);
        if tracing {
            tracer.record(
                now,
                EventKind::WalkStep {
                    level: WalkLevel::PdTag,
                    line: tag_line.raw(),
                    hit: tag_result.hit,
                },
            );
        }
        if !tag_result.hit {
            dram.access(tag_line);
            filled.push(tag_line);
            if let Some(e) = tag_result.evicted {
                if tracing {
                    tracer.record(now, EventKind::MeeEvict { line: e.raw() });
                }
                evicted.push(e);
            }
        }

        // Versions level: always checked first (paper challenge 2).
        let vline = geo.version_line(path.version);
        let v = self.cache.access(vline);
        if tracing {
            tracer.record(
                now,
                EventKind::WalkStep {
                    level: WalkLevel::Versions,
                    line: vline.raw(),
                    hit: v.hit,
                },
            );
        }
        if let Some(e) = v.evicted {
            if tracing {
                tracer.record(now, EventKind::MeeEvict { line: e.raw() });
            }
            evicted.push(e);
        }
        if v.hit {
            self.stats.hits_by_level[HitLevel::Versions.ladder_index()] += 1;
            return Ok(MeeAccess {
                hit_level: HitLevel::Versions,
                latency,
                filled,
                evicted,
            });
        }
        filled.push(vline);
        latency += dram.access(vline) + self.timing.walk_step;

        // Climb L0 → L1 → L2, stopping at the first cached level.
        for (level, hit_level, walk_level) in [
            (TreeLevel::L0, HitLevel::L0, WalkLevel::L0),
            (TreeLevel::L1, HitLevel::L1, WalkLevel::L1),
            (TreeLevel::L2, HitLevel::L2, WalkLevel::L2),
        ] {
            let node_line = geo.level_line(level, path.node_at(level));
            let r = self.cache.access(node_line);
            if tracing {
                tracer.record(
                    now,
                    EventKind::WalkStep {
                        level: walk_level,
                        line: node_line.raw(),
                        hit: r.hit,
                    },
                );
            }
            if let Some(e) = r.evicted {
                if tracing {
                    tracer.record(now, EventKind::MeeEvict { line: e.raw() });
                }
                evicted.push(e);
            }
            if r.hit {
                self.stats.hits_by_level[hit_level.ladder_index()] += 1;
                return Ok(MeeAccess {
                    hit_level,
                    latency,
                    filled,
                    evicted,
                });
            }
            filled.push(node_line);
            // Upper-level fetches overlap the previous one in the MEE
            // pipeline; only the incremental exposure is charged, but the
            // DRAM bank state still sees the fetch.
            dram.access(node_line);
            latency += self.timing.upper_level_fetch;
        }

        // Everything missed: compare against the on-die root. The root is
        // on-die and has no line address; the walk step reports line 0.
        if tracing {
            tracer.record(
                now,
                EventKind::WalkStep {
                    level: WalkLevel::Root,
                    line: 0,
                    hit: true,
                },
            );
        }
        latency += self.timing.root_check;
        self.stats.hits_by_level[HitLevel::Root.ladder_index()] += 1;
        Ok(MeeAccess {
            hit_level: HitLevel::Root,
            latency,
            filled,
            evicted,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_cache::policy::{TreePlru, TrueLru};
    use mee_mem::{DramConfig, PhysLayout};
    use mee_types::{PAGE_SIZE, VERSION_BLOCK_SIZE};

    /// Monotonic arrival clock for sequential single-requester tests: far
    /// enough apart that pipeline queueing never triggers.
    #[derive(Debug)]
    struct Clock(u64);
    impl Clock {
        fn new() -> Self {
            Clock(0)
        }
        fn tick(&mut self) -> Cycles {
            self.0 += 1_000_000;
            Cycles::new(self.0)
        }
    }

    fn setup() -> (Mee, DramModel, LineAddr) {
        let layout = PhysLayout::new(1 << 20, 8 << 20).unwrap();
        let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree()).unwrap();
        let dram = DramModel::new(DramConfig {
            jitter_std: 0.0,
            ..DramConfig::default()
        })
        .unwrap();
        let mee = Mee::new(
            geo,
            0xfeed,
            CacheConfig::from_capacity(64 * 1024, 8, 64).unwrap(),
            TreePlru::new(),
            TimingConfig::noiseless(),
        );
        let base = layout.prm_data().base().line();
        (mee, dram, base)
    }

    #[test]
    fn cold_read_walks_to_root() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        let r = mee.read(base, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.access.hit_level, HitLevel::Root);
        assert_eq!(r.digest, 0);
        // Fills: PD_Tag + versions + L0 + L1 + L2.
        assert_eq!(r.access.filled.len(), 5);
    }

    #[test]
    fn warm_read_hits_versions() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        let r = mee.read(base, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.access.hit_level, HitLevel::Versions);
        assert!(r.access.filled.is_empty());
        assert_eq!(mee.stats().hits_at(HitLevel::Versions), 1);
        assert_eq!(mee.stats().hits_at(HitLevel::Root), 1);
        assert_eq!(mee.stats().reads, 2);
    }

    #[test]
    fn latency_ladder_matches_nominal() {
        let mut clk = Clock::new();
        // With zero jitter, measured latencies must sit near the nominal
        // TimingConfig ladder (minus the data fetch + hierarchy the machine
        // adds).
        let (mut mee, mut dram, base) = setup();
        let t = TimingConfig::noiseless();
        let cold = mee.read(base, clk.tick(), &mut dram).unwrap();
        let nominal_root =
            t.protected_root_latency() - t.uncached_dram_read() + t.mee_crypto - t.mee_crypto;
        // Tolerate DRAM row-state variation.
        let diff = cold.access.latency.raw() as i64 - nominal_root.raw() as i64;
        assert!(diff.abs() < 120, "root walk latency off by {diff}");

        let warm = mee.read(base, clk.tick(), &mut dram).unwrap();
        assert_eq!(warm.access.latency, t.mee_crypto);
    }

    #[test]
    fn same_block_shares_versions_line() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        // 512 B block = 8 lines; line 7 shares the versions line.
        let sibling = LineAddr::new(base.raw() + 7);
        let r = mee.read(sibling, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.access.hit_level, HitLevel::Versions);
    }

    #[test]
    fn next_block_hits_l0() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        // Next 512 B block: new versions line, same L0 line.
        let next = LineAddr::new(base.raw() + (VERSION_BLOCK_SIZE / 64) as u64);
        let r = mee.read(next, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.access.hit_level, HitLevel::L0);
    }

    #[test]
    fn next_page_hits_l1() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        // 4 KiB away: new versions + L0 lines, same L1.
        let next = LineAddr::new(base.raw() + (PAGE_SIZE / 64) as u64);
        let r = mee.read(next, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.access.hit_level, HitLevel::L1);
    }

    #[test]
    fn stride_32k_hits_l2_and_256k_hits_root() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        let at_32k = LineAddr::new(base.raw() + (32 << 10) / 64);
        assert_eq!(
            mee.read(at_32k, clk.tick(), &mut dram)
                .unwrap()
                .access
                .hit_level,
            HitLevel::L2
        );
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        let at_256k = LineAddr::new(base.raw() + (256 << 10) / 64);
        assert_eq!(
            mee.read(at_256k, clk.tick(), &mut dram)
                .unwrap()
                .access
                .hit_level,
            HitLevel::Root
        );
    }

    #[test]
    fn ladder_latencies_strictly_increase() {
        let mut clk = Clock::new();
        let strides: [u64; 4] = [512 / 64, 4096 / 64, (32 << 10) / 64, (256 << 10) / 64];
        let mut prev = Cycles::ZERO;
        for (i, stride) in strides.iter().enumerate() {
            let (mut mee, mut dram, base) = setup();
            mee.read(base, clk.tick(), &mut dram).unwrap();
            let lat = mee
                .read(LineAddr::new(base.raw() + stride), clk.tick(), &mut dram)
                .unwrap()
                .access
                .latency;
            assert!(
                lat > prev,
                "ladder step {i} not increasing: {lat} <= {prev}"
            );
            prev = lat;
        }
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        let w = mee.write(base, 0xabcd, clk.tick(), &mut dram).unwrap();
        assert_eq!(w.hit_level, HitLevel::Root);
        let r = mee.read(base, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.digest, 0xabcd);
        assert_eq!(mee.stats().writes, 1);
    }

    #[test]
    fn tamper_detected_on_deep_walk_only() {
        let mut clk = Clock::new();
        // Tamper an L0 counter. While the versions line is cached the walk
        // stops at the versions level and the tamper is NOT noticed —
        // exactly the cached-implies-verified semantics of the real MEE.
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        mee.tree_mut().tamper_counter(TreeLevel::L0, 0);
        assert!(
            mee.read(base, clk.tick(), &mut dram).is_ok(),
            "versions hit must trust cache"
        );
        // After flushing the MEE cache the full walk re-verifies and fails.
        let mut fresh = setup();
        fresh.0.read(base, clk.tick(), &mut fresh.1).unwrap();
        fresh.0.tree_mut().tamper_counter(TreeLevel::L0, 0);
        // Force a full walk by building a new MEE sharing nothing cached:
        // simplest is a second cold engine over the same tampered state —
        // instead, flush via invalidating every line.
        let (mut mee2, mut dram2, base2) = setup();
        mee2.read(base2, clk.tick(), &mut dram2).unwrap();
        mee2.tree_mut().tamper_counter(TreeLevel::Version, 0);
        // Versions-level check (PD_Tag) is always performed:
        assert!(mee2.read(base2, clk.tick(), &mut dram2).is_err());
    }

    #[test]
    fn foreign_line_rejected() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, _) = setup();
        assert!(mee.read(LineAddr::new(0), clk.tick(), &mut dram).is_err());
        assert!(mee
            .write(LineAddr::new(0), 1, clk.tick(), &mut dram)
            .is_err());
    }

    #[test]
    fn versions_fills_odd_sets_tags_even() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        let geo = *mee.geometry();
        let sets = mee.cache().config().sets;
        let path = geo.walk_path(base);
        let vset = geo.version_line(path.version).set_index(sets);
        let tset = geo.pd_tag_line(path.version).set_index(sets);
        assert_eq!(vset % 2, 1);
        assert_eq!(tset % 2, 0);
        assert!(mee.cache().contains(geo.version_line(path.version)));
        assert!(mee.cache().contains(geo.pd_tag_line(path.version)));
    }

    #[test]
    fn fill_mask_partitions_cache() {
        let mut clk = Clock::new();
        let layout = PhysLayout::new(1 << 20, 8 << 20).unwrap();
        let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree()).unwrap();
        let mut dram = DramModel::new(DramConfig {
            jitter_std: 0.0,
            ..DramConfig::default()
        })
        .unwrap();
        let mut mee = Mee::new(
            geo,
            1,
            CacheConfig::from_capacity(64 * 1024, 8, 64).unwrap(),
            TrueLru::new(),
            TimingConfig::noiseless(),
        );
        mee.set_fill_mask(0b11).unwrap();
        let base = layout.prm_data().base().line();
        mee.read(base, clk.tick(), &mut dram).unwrap();
        // Each touched set holds at most 2 lines ever.
        for _ in 0..100 {
            mee.read(base, clk.tick(), &mut dram).unwrap();
        }
        let sets = mee.cache().config().sets;
        for s in 0..sets {
            assert!(mee.cache().set_occupancy(s) <= 2);
        }
    }

    /// An empty mask or one naming a ninth way of the 8-way MEE cache is a
    /// typed error, and the walk keeps filling every way.
    #[test]
    fn bad_fill_masks_are_typed_errors() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        for bad in [0, 1 << 8, 0x1ff] {
            assert!(
                matches!(
                    mee.set_fill_mask(bad),
                    Err(ModelError::InvalidConfig { .. })
                ),
                "mask {bad:#x} accepted"
            );
        }
        let r = mee.read(base, clk.tick(), &mut dram).unwrap();
        assert_eq!(r.access.filled.len(), 5);
    }

    #[test]
    fn stats_histogram_sums_to_reads_plus_writes() {
        let mut clk = Clock::new();
        let (mut mee, mut dram, base) = setup();
        for i in 0..50u64 {
            mee.read(LineAddr::new(base.raw() + i * 8), clk.tick(), &mut dram)
                .unwrap();
        }
        mee.write(base, 9, clk.tick(), &mut dram).unwrap();
        let s = mee.stats();
        let total: u64 = s.hits_by_level.iter().sum();
        assert_eq!(total, s.reads + s.writes);
    }
}
