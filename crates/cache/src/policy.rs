//! Replacement policies.
//!
//! The policy decides which way to victimize when every way a fill may use
//! is occupied. The paper's §5.3 observes that the MEE cache behaves like
//! an "approximate LRU" cache and designs the trojan's two-phase (forward +
//! backward) eviction sweep around that; [`TreePlru`] is the canonical
//! approximate-LRU hardware policy and the default for the simulated MEE
//! cache.

use mee_rng::Rng;

/// Chooses victims within one cache set.
///
/// Implementations hold per-set metadata sized by [`attach`](Self::attach),
/// which the owning cache calls exactly once before use.
///
/// Caches hold a policy as the statically dispatched [`Policy`] enum, so
/// experiments still pick one at run time (the ablation bench does) without
/// a virtual call on the hot path.
pub trait ReplacementPolicy: std::fmt::Debug + Send {
    /// Sizes per-set metadata. Called once by the owning cache.
    fn attach(&mut self, sets: usize, ways: usize);

    /// Records a hit on `way` of `set`.
    fn on_hit(&mut self, set: usize, way: usize);

    /// Records a fill into `way` of `set`.
    fn on_fill(&mut self, set: usize, way: usize);

    /// Chooses the way to evict from `set`.
    ///
    /// Bit `w` of `allowed` permits way `w` as the victim: every way in
    /// normal operation, fewer under way partitioning (the cache's fill
    /// mask). The caller guarantees at least one bit is set, none at or
    /// above the way count, and every allowed way occupied.
    fn victim(&mut self, set: usize, allowed: u64) -> usize;

    /// Records that `way` of `set` was invalidated.
    fn on_invalidate(&mut self, set: usize, way: usize);

    /// Short policy name for logs and benches.
    fn name(&self) -> &'static str;
}

/// The ways set in `mask`, ascending.
fn ways_in(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let w = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            w
        })
    })
}

/// Exact least-recently-used: evicts the way with the oldest access stamp.
#[derive(Debug, Default)]
pub struct TrueLru {
    stamps: Vec<u64>,
    ways: usize,
    clock: u64,
}

impl TrueLru {
    /// Creates an unattached exact-LRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        self.stamps[set * self.ways + way] = self.clock;
    }
}

impl ReplacementPolicy for TrueLru {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.stamps = vec![0; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize, allowed: u64) -> usize {
        let base = set * self.ways;
        ways_in(allowed)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("victim() requires at least one allowed way")
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.stamps[set * self.ways + way] = 0;
    }

    fn name(&self) -> &'static str {
        "lru"
    }
}

/// Tree pseudo-LRU ("approximate LRU"), the policy class §5.3 attributes to
/// the real MEE cache.
///
/// A binary tree of `ways - 1` bits per set; each access flips the bits on
/// its path to point *away* from the accessed way, and the victim is found
/// by following the bits from the root. Approximate-LRU is what forces the
/// trojan's two-phase eviction sweep: one forward pass does not guarantee
/// all resident lines are replaced.
///
/// A set's tree is one `u64` (node `n` of the implicit heap-ordered tree,
/// root `0`, children `2n + 1` / `2n + 2`, is bit `n`; set = "go right"),
/// and every way's root-to-leaf path is precomputed at attach time, so a
/// hit, fill or invalidate is a single masked word update.
///
/// # Panics
///
/// [`attach`](ReplacementPolicy::attach) panics if `ways` is not a power of
/// two (the tree requires it) or exceeds 64 (the tree's word).
#[derive(Debug, Default)]
pub struct TreePlru {
    /// One tree per set.
    bits: Vec<u64>,
    /// Per way: the nodes on its path, and the values of those nodes that
    /// point away from it.
    paths: Vec<(u64, u64)>,
    ways: usize,
}

impl TreePlru {
    /// Creates an unattached tree-PLRU policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Points every node on `way`'s path away from it.
    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let (mask, away) = self.paths[way];
        let b = &mut self.bits[set];
        *b = (*b & !mask) | away;
    }

    /// Follows the bits from the root to a leaf. Nodes `0..ways - 1` are
    /// internal; leaf `ways - 1 + w` is way `w`.
    #[inline]
    fn walk(&self, set: usize) -> usize {
        let b = self.bits[set];
        let mut node = 0;
        while node < self.ways - 1 {
            node = 2 * node + 1 + (b >> node & 1) as usize;
        }
        node - (self.ways - 1)
    }
}

impl ReplacementPolicy for TreePlru {
    fn attach(&mut self, sets: usize, ways: usize) {
        assert!(
            ways.is_power_of_two() && ways <= 64,
            "tree-PLRU requires a power-of-two way count of at most 64, got {ways}"
        );
        self.ways = ways;
        self.bits = vec![0; sets];
        self.paths = (0..ways)
            .map(|way| {
                let (mut mask, mut away) = (0u64, 0u64);
                // Climb from the way's leaf; a left child (odd node) is
                // pointed away from by setting its parent's bit.
                let mut node = ways - 1 + way;
                while node > 0 {
                    let parent = (node - 1) / 2;
                    mask |= 1 << parent;
                    away |= ((node & 1) as u64) << parent;
                    node = parent;
                }
                (mask, away)
            })
            .collect();
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize, allowed: u64) -> usize {
        let lo = self.walk(set);
        if allowed >> lo & 1 != 0 {
            lo
        } else {
            // Partitioned operation: fall back to the first allowed way.
            allowed.trailing_zeros() as usize
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        // Inverse of `touch`: point every node on the path *toward* the
        // invalidated way, so the next victim search lands on it. Leaving
        // the bits stale would keep evicting live lines while the freed way
        // sits idle until some unrelated fill happens to re-point the path.
        let (mask, away) = self.paths[way];
        let b = &mut self.bits[set];
        *b = (*b & !mask) | (mask & !away);
    }

    fn name(&self) -> &'static str {
        "tree-plru"
    }
}

/// Static re-reference interval prediction (SRRIP, Jaleel et al. ISCA'10)
/// with 2-bit re-reference prediction values — the other widespread
/// "approximate LRU" in shipping hardware.
///
/// Fills insert at RRPV 2 (long re-reference), hits promote to 0; the
/// victim is the first way at RRPV 3, aging every way when none is.
#[derive(Debug, Default)]
pub struct Srrip {
    rrpv: Vec<u8>,
    ways: usize,
}

/// Maximum re-reference prediction value (2 bits).
const RRPV_MAX: u8 = 3;

impl Srrip {
    /// Creates an unattached SRRIP policy.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ReplacementPolicy for Srrip {
    fn attach(&mut self, sets: usize, ways: usize) {
        self.ways = ways;
        self.rrpv = vec![RRPV_MAX; sets * ways];
    }

    fn on_hit(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = 0;
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = RRPV_MAX - 1;
    }

    fn victim(&mut self, set: usize, allowed: u64) -> usize {
        let rrpv = &mut self.rrpv[set * self.ways..][..self.ways];
        loop {
            if let Some(w) = ways_in(allowed).find(|&w| rrpv[w] == RRPV_MAX) {
                return w;
            }
            // Age: increment every RRPV in the set (saturating).
            for r in rrpv.iter_mut() {
                if *r < RRPV_MAX {
                    *r += 1;
                }
            }
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.rrpv[set * self.ways + way] = RRPV_MAX;
    }

    fn name(&self) -> &'static str {
        "srrip"
    }
}

/// Uniform-random eviction, seeded for determinism.
#[derive(Debug)]
pub struct RandomEviction {
    rng: Rng,
}

impl RandomEviction {
    /// Creates a random-eviction policy with the given RNG seed.
    pub fn with_seed(seed: u64) -> Self {
        RandomEviction {
            rng: Rng::seed_from_u64(seed),
        }
    }
}

impl ReplacementPolicy for RandomEviction {
    fn attach(&mut self, _sets: usize, _ways: usize) {}

    fn on_hit(&mut self, _set: usize, _way: usize) {}

    fn on_fill(&mut self, _set: usize, _way: usize) {}

    fn victim(&mut self, _set: usize, allowed: u64) -> usize {
        // One draw over the allowed ways; with every way allowed the draw
        // is the way itself.
        let k = self.rng.random_range(0..allowed.count_ones() as usize);
        ways_in(allowed)
            .nth(k)
            .expect("victim() requires at least one allowed way")
    }

    fn on_invalidate(&mut self, _set: usize, _way: usize) {}

    fn name(&self) -> &'static str {
        "random"
    }
}

/// A statically dispatched policy: every concrete policy in this module as
/// an enum variant.
///
/// The simulated machine's caches sit on the hot path of every memory op
/// (the L1/L2/LLC lookups, the MEE-cache walk, clflush invalidation sweeps),
/// and all of them run [`TreePlru`] in the default configuration. Routing
/// policy callbacks through an enum instead of `Box<dyn ReplacementPolicy>`
/// lets the compiler inline the PLRU bit-tree updates into the cache access
/// itself. [`SetAssocCache::new`](crate::SetAssocCache::new) accepts
/// anything `Into<Policy>`: a concrete policy by value, or a `Policy`.
#[derive(Debug)]
pub enum Policy {
    /// Tree pseudo-LRU (the default everywhere).
    TreePlru(TreePlru),
    /// Exact LRU.
    TrueLru(TrueLru),
    /// Static re-reference interval prediction.
    Srrip(Srrip),
    /// Seeded random victims.
    Random(RandomEviction),
}

macro_rules! dispatch {
    ($self:ident, $p:ident => $body:expr) => {
        match $self {
            Policy::TreePlru($p) => $body,
            Policy::TrueLru($p) => $body,
            Policy::Srrip($p) => $body,
            Policy::Random($p) => $body,
        }
    };
}

impl ReplacementPolicy for Policy {
    fn attach(&mut self, sets: usize, ways: usize) {
        dispatch!(self, p => p.attach(sets, ways));
    }

    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_hit(set, way));
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_fill(set, way));
    }

    #[inline]
    fn victim(&mut self, set: usize, allowed: u64) -> usize {
        dispatch!(self, p => p.victim(set, allowed))
    }

    #[inline]
    fn on_invalidate(&mut self, set: usize, way: usize) {
        dispatch!(self, p => p.on_invalidate(set, way));
    }

    fn name(&self) -> &'static str {
        dispatch!(self, p => p.name())
    }
}

impl From<TreePlru> for Policy {
    fn from(p: TreePlru) -> Self {
        Policy::TreePlru(p)
    }
}

impl From<TrueLru> for Policy {
    fn from(p: TrueLru) -> Self {
        Policy::TrueLru(p)
    }
}

impl From<Srrip> for Policy {
    fn from(p: Srrip) -> Self {
        Policy::Srrip(p)
    }
}

impl From<RandomEviction> for Policy {
    fn from(p: RandomEviction) -> Self {
        Policy::Random(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_allowed(ways: usize) -> u64 {
        (1 << ways) - 1
    }

    #[test]
    fn lru_evicts_oldest() {
        let mut p = TrueLru::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        p.on_hit(0, 0); // refresh way 0; way 1 is now oldest
        assert_eq!(p.victim(0, all_allowed(4)), 1);
    }

    #[test]
    fn lru_respects_allowed_mask() {
        let mut p = TrueLru::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        let allowed = all_allowed(4) & !1; // oldest way is off-limits
        assert_eq!(p.victim(0, allowed), 1);
    }

    #[test]
    fn plru_never_evicts_most_recent() {
        let mut p = TreePlru::new();
        p.attach(1, 8);
        for w in 0..8 {
            p.on_fill(0, w);
        }
        for recent in 0..8 {
            p.on_hit(0, recent);
            assert_ne!(
                p.victim(0, all_allowed(8)),
                recent,
                "PLRU evicted the most recently used way"
            );
        }
    }

    #[test]
    fn plru_is_only_approximately_lru() {
        // Demonstrates the §5.3 problem: after touching lines in one order, a
        // single forward sweep of 8 new fills does not victimize ways in pure
        // LRU order. We just check PLRU and true LRU disagree somewhere.
        let mut plru = TreePlru::new();
        let mut lru = TrueLru::new();
        plru.attach(1, 8);
        lru.attach(1, 8);
        for w in 0..8 {
            plru.on_fill(0, w);
            lru.on_fill(0, w);
        }
        let pattern = [3usize, 1, 4, 1, 5, 2, 6, 5, 3];
        for &w in &pattern {
            plru.on_hit(0, w);
            lru.on_hit(0, w);
        }
        let mut diverged = false;
        for _ in 0..8 {
            let pv = plru.victim(0, all_allowed(8));
            let lv = lru.victim(0, all_allowed(8));
            if pv != lv {
                diverged = true;
            }
            plru.on_fill(0, pv);
            lru.on_fill(0, lv);
        }
        assert!(diverged, "tree-PLRU behaved exactly like true LRU");
    }

    /// Pinned spec-harness counterexample (invariant
    /// `invalidated-way-preferred`): with 2 ways, tree-PLRU is exactly LRU,
    /// so after `fill 0, fill 1, invalidate 1` the victim must be way 1.
    /// The pre-fix no-op `on_invalidate` left the bits pointing at way 0.
    #[test]
    fn plru_invalidate_points_tree_at_freed_way() {
        let mut p = TreePlru::new();
        p.attach(1, 2);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_invalidate(0, 1);
        assert_eq!(p.victim(0, all_allowed(2)), 1);
    }

    /// After filling every way, a single invalidation makes that way the
    /// preferred victim — for every deterministic policy.
    #[test]
    fn invalidated_way_is_preferred_victim() {
        for ways in [2usize, 4, 8] {
            for way in 0..ways {
                let policies: [Policy; 3] = [
                    TrueLru::new().into(),
                    TreePlru::new().into(),
                    Srrip::new().into(),
                ];
                for mut p in policies {
                    p.attach(1, ways);
                    for w in 0..ways {
                        p.on_fill(0, w);
                    }
                    p.on_invalidate(0, way);
                    assert_eq!(
                        p.victim(0, all_allowed(ways)),
                        way,
                        "{} did not prefer invalidated way {way} of {ways}",
                        p.name()
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn plru_rejects_non_power_of_two_ways() {
        let mut p = TreePlru::new();
        p.attach(1, 6);
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        let mut a = RandomEviction::with_seed(7);
        let mut b = RandomEviction::with_seed(7);
        a.attach(1, 8);
        b.attach(1, 8);
        let allowed = all_allowed(8);
        for _ in 0..32 {
            assert_eq!(a.victim(0, allowed), b.victim(0, allowed));
        }
    }

    #[test]
    fn random_respects_allowed_mask() {
        let mut p = RandomEviction::with_seed(3);
        p.attach(1, 8);
        for _ in 0..16 {
            assert_eq!(p.victim(0, 1 << 5), 5);
        }
    }

    /// A random victim is one `random_range(0..allowed ways)` draw taken
    /// as an index into the allowed ways, ascending — under every mask, so
    /// an unmasked victim is the drawn way itself.
    #[test]
    fn random_victim_is_one_draw_over_the_allowed_ways() {
        let mut p = RandomEviction::with_seed(0xdead);
        p.attach(4, 8);
        let mut twin = Rng::seed_from_u64(0xdead);
        let mut masks = Rng::seed_from_u64(0x51c7);
        for step in 0..2000 {
            let allowed = match step % 2 {
                0 => all_allowed(8),
                _ => masks.random_range(1..=all_allowed(8)),
            };
            let ways: Vec<usize> = (0..8).filter(|&w| allowed >> w & 1 != 0).collect();
            let expected = ways[twin.random_range(0..ways.len())];
            assert_eq!(p.victim(step % 4, allowed), expected, "step {step}");
        }
    }

    #[test]
    fn srrip_prefers_distant_rereference() {
        let mut p = Srrip::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        // All at RRPV 2; a victim search ages everyone to 3 and picks way 0.
        assert_eq!(p.victim(0, all_allowed(4)), 0);
        // A hit promotes to RRPV 0: that way outlives un-hit ways.
        p.on_fill(0, 0);
        p.on_hit(0, 1);
        let v = p.victim(0, all_allowed(4));
        assert_ne!(v, 1, "SRRIP evicted the just-hit way");
    }

    #[test]
    fn srrip_never_evicts_most_recent_hit() {
        let mut p = Srrip::new();
        p.attach(1, 8);
        for w in 0..8 {
            p.on_fill(0, w);
        }
        for recent in 0..8 {
            p.on_hit(0, recent);
            assert_ne!(p.victim(0, all_allowed(8)), recent);
        }
    }

    #[test]
    fn srrip_respects_allowed_mask() {
        let mut p = Srrip::new();
        p.attach(1, 4);
        for w in 0..4 {
            p.on_fill(0, w);
        }
        assert_ne!(p.victim(0, all_allowed(4) & !1), 0);
    }

    #[test]
    fn policy_names() {
        assert_eq!(TrueLru::new().name(), "lru");
        assert_eq!(TreePlru::new().name(), "tree-plru");
        assert_eq!(Srrip::new().name(), "srrip");
        assert_eq!(RandomEviction::with_seed(0).name(), "random");
    }
}
