//! Address arithmetic of the integrity tree.

use mee_mem::Region;
use mee_types::{LineAddr, ModelError, PhysAddr, LINE_SIZE, TREE_ARITY, VERSION_BLOCK_SIZE};

/// The in-memory levels of the counter tree, bottom-up.
///
/// The on-die root is not a [`TreeLevel`]: it is SRAM inside the CPU
/// package, can never miss, and never occupies MEE-cache space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TreeLevel {
    /// Version counters: one 64 B line per 512 B of protected data. The
    /// level the covert channel lives on.
    Version,
    /// First counter level: one line per 8 version lines (4 KiB of data).
    L0,
    /// Second counter level: one line per 64 version lines (32 KiB).
    L1,
    /// Third counter level: one line per 512 version lines (256 KiB).
    L2,
}

impl TreeLevel {
    /// All levels, bottom-up.
    pub const ALL: [TreeLevel; 4] = [
        TreeLevel::Version,
        TreeLevel::L0,
        TreeLevel::L1,
        TreeLevel::L2,
    ];

    /// Index of this level in the latency ladder (0 = versions).
    pub fn ladder_index(self) -> usize {
        match self {
            TreeLevel::Version => 0,
            TreeLevel::L0 => 1,
            TreeLevel::L1 => 2,
            TreeLevel::L2 => 3,
        }
    }

    /// The level above, or `None` for L2 (whose parent is the on-die root).
    pub fn parent(self) -> Option<TreeLevel> {
        match self {
            TreeLevel::Version => Some(TreeLevel::L0),
            TreeLevel::L0 => Some(TreeLevel::L1),
            TreeLevel::L1 => Some(TreeLevel::L2),
            TreeLevel::L2 => None,
        }
    }

    /// Bytes of protected data covered by one line of this level.
    pub fn coverage_bytes(self) -> u64 {
        let mut cov = VERSION_BLOCK_SIZE as u64;
        for _ in 0..self.ladder_index() {
            cov *= TREE_ARITY as u64;
        }
        cov
    }
}

/// The tree nodes verifying one protected data line, bottom-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkPath {
    /// Index of the 512 B block (== index of its version line).
    pub version: u64,
    /// Index of the covering L0 line.
    pub l0: u64,
    /// Index of the covering L1 line.
    pub l1: u64,
    /// Index of the covering L2 line.
    pub l2: u64,
    /// Index of the covering on-die root counter.
    pub root: u64,
}

impl WalkPath {
    /// Node index at `level`.
    pub fn node_at(&self, level: TreeLevel) -> u64 {
        match level {
            TreeLevel::Version => self.version,
            TreeLevel::L0 => self.l0,
            TreeLevel::L1 => self.l1,
            TreeLevel::L2 => self.l2,
        }
    }
}

/// Maps protected-data addresses to tree-node line addresses.
///
/// Layout of the tree region:
///
/// ```text
/// tree_base ── [PD_Tag₀ │ Ver₀ │ PD_Tag₁ │ Ver₁ │ …] ── [L0…] ── [L1…] ── [L2…]
/// ```
///
/// With the interleaving, `Verⱼ` is line `2j + 1` of the region: version
/// lines occupy odd set indices of the MEE cache and PD_Tag lines even ones
/// (paper §4.1). `TreeGeometry::new` checks this parity actually holds for
/// the given region base.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeGeometry {
    data: Region,
    tree: Region,
    /// Line index (within physical memory) where the interleaved
    /// versions/PD_Tag array starts.
    interleave_base: u64,
    /// Line index where each upper level's array starts.
    l0_base: u64,
    l1_base: u64,
    l2_base: u64,
    /// Node counts per level.
    version_lines: u64,
    l0_lines: u64,
    l1_lines: u64,
    l2_lines: u64,
    root_counters: u64,
}

impl TreeGeometry {
    /// Computes the tree layout for `data` inside `tree`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if the tree region is too small
    /// for the required arrays, or if the region base breaks the odd/even
    /// versions/PD_Tag parity (the base line index must be even).
    pub fn new(data: Region, tree: Region) -> Result<Self, ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        let line = LINE_SIZE as u64;
        let version_lines = data.size() / VERSION_BLOCK_SIZE as u64;
        if version_lines == 0 {
            return fail("protected data region smaller than one version block".into());
        }
        let interleave_base = tree.base().line().raw();
        if !interleave_base.is_multiple_of(2) {
            return fail("tree region base must start at an even line index".into());
        }
        let l0_lines = version_lines.div_ceil(TREE_ARITY as u64);
        let l1_lines = l0_lines.div_ceil(TREE_ARITY as u64);
        let l2_lines = l1_lines.div_ceil(TREE_ARITY as u64);
        let root_counters = l2_lines;
        let l0_base = interleave_base + 2 * version_lines;
        let l1_base = l0_base + l0_lines;
        let l2_base = l1_base + l1_lines;
        let end = l2_base + l2_lines;
        if end * line > tree.end().raw() {
            return fail(format!(
                "tree region of {} bytes cannot hold {} bytes of tree arrays",
                tree.size(),
                end * line - tree.base().raw()
            ));
        }
        Ok(TreeGeometry {
            data,
            tree,
            interleave_base,
            l0_base,
            l1_base,
            l2_base,
            version_lines,
            l0_lines,
            l1_lines,
            l2_lines,
            root_counters,
        })
    }

    /// The protected data region this tree covers.
    pub fn data_region(&self) -> Region {
        self.data
    }

    /// The tree region.
    pub fn tree_region(&self) -> Region {
        self.tree
    }

    /// Whether `pa` is protected data covered by this tree.
    pub fn covers(&self, pa: PhysAddr) -> bool {
        self.data.contains(pa)
    }

    /// Number of protected data lines (64 B each).
    pub fn data_lines(&self) -> u64 {
        self.data.size() / LINE_SIZE as u64
    }

    /// Number of nodes (lines) at `level`.
    pub fn lines_at(&self, level: TreeLevel) -> u64 {
        match level {
            TreeLevel::Version => self.version_lines,
            TreeLevel::L0 => self.l0_lines,
            TreeLevel::L1 => self.l1_lines,
            TreeLevel::L2 => self.l2_lines,
        }
    }

    /// Number of on-die root counters.
    pub fn root_counters(&self) -> u64 {
        self.root_counters
    }

    /// Index of the 512 B version block containing a protected data line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not in the data region.
    pub fn block_of(&self, data_line: LineAddr) -> u64 {
        let pa = data_line.base();
        assert!(self.covers(pa), "{pa} is not in the protected data region");
        (pa - self.data.base()) / VERSION_BLOCK_SIZE as u64
    }

    /// Index of a protected data line within the data region.
    ///
    /// # Panics
    ///
    /// Panics if the line is not in the data region.
    pub fn data_line_index(&self, data_line: LineAddr) -> u64 {
        let pa = data_line.base();
        assert!(self.covers(pa), "{pa} is not in the protected data region");
        (pa - self.data.base()) / LINE_SIZE as u64
    }

    /// Physical line of version node `block` (odd interleave slot).
    pub fn version_line(&self, block: u64) -> LineAddr {
        assert!(block < self.version_lines, "version block out of range");
        LineAddr::new(self.interleave_base + 2 * block + 1)
    }

    /// Physical line of the PD_Tag metadata for `block` (even slot).
    pub fn pd_tag_line(&self, block: u64) -> LineAddr {
        assert!(block < self.version_lines, "version block out of range");
        LineAddr::new(self.interleave_base + 2 * block)
    }

    /// Physical line of node `index` at `level`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for the level.
    pub fn level_line(&self, level: TreeLevel, index: u64) -> LineAddr {
        assert!(index < self.lines_at(level), "node index out of range");
        match level {
            TreeLevel::Version => self.version_line(index),
            TreeLevel::L0 => LineAddr::new(self.l0_base + index),
            TreeLevel::L1 => LineAddr::new(self.l1_base + index),
            TreeLevel::L2 => LineAddr::new(self.l2_base + index),
        }
    }

    /// The verification path for a protected data line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not in the data region.
    pub fn walk_path(&self, data_line: LineAddr) -> WalkPath {
        let version = self.block_of(data_line);
        let arity = TREE_ARITY as u64;
        let l0 = version / arity;
        let l1 = l0 / arity;
        let l2 = l1 / arity;
        WalkPath {
            version,
            l0,
            l1,
            l2,
            root: l2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_mem::PhysLayout;
    use mee_rng::prop::{check, PropConfig};
    use mee_types::PAGE_SIZE;

    fn geo() -> TreeGeometry {
        let layout = PhysLayout::new(1 << 20, 4 << 20).unwrap();
        TreeGeometry::new(layout.prm_data(), layout.prm_tree()).unwrap()
    }

    #[test]
    fn level_coverage_matches_paper_strides() {
        // Figure 5 strides: 512 B (versions), 4 KiB (L0), 32 KiB (L1),
        // 256 KiB (L2).
        assert_eq!(TreeLevel::Version.coverage_bytes(), 512);
        assert_eq!(TreeLevel::L0.coverage_bytes(), 4 << 10);
        assert_eq!(TreeLevel::L1.coverage_bytes(), 32 << 10);
        assert_eq!(TreeLevel::L2.coverage_bytes(), 256 << 10);
    }

    #[test]
    fn level_parents_chain_to_root() {
        assert_eq!(TreeLevel::Version.parent(), Some(TreeLevel::L0));
        assert_eq!(TreeLevel::L0.parent(), Some(TreeLevel::L1));
        assert_eq!(TreeLevel::L1.parent(), Some(TreeLevel::L2));
        assert_eq!(TreeLevel::L2.parent(), None);
    }

    #[test]
    fn version_lines_are_odd_sets_tags_even() {
        let g = geo();
        for block in [0u64, 1, 7, 100, g.lines_at(TreeLevel::Version) - 1] {
            let v = g.version_line(block);
            let t = g.pd_tag_line(block);
            assert_eq!(v.raw() % 2, 1, "version line of block {block} not odd");
            assert_eq!(t.raw() % 2, 0, "PD_Tag line of block {block} not even");
            // Same property as MEE-cache set parity for any power-of-two set
            // count >= 2.
            assert_eq!(v.set_index(128) % 2, 1);
            assert_eq!(t.set_index(128) % 2, 0);
        }
    }

    #[test]
    fn page_owns_eight_consecutive_version_lines() {
        // Paper §4.1: a 4 KiB page guarantees 8 contiguously-mapped version
        // lines (the "consecutive versions data region").
        let g = geo();
        let page_base = g.data_region().base().line();
        let first = g.walk_path(page_base).version;
        for blk in 0..(PAGE_SIZE / 512) as u64 {
            let line = LineAddr::new(page_base.raw() + blk * 8);
            assert_eq!(g.walk_path(line).version, first + blk);
        }
        // Their version lines are 2 apart (interleaved with tags) => they
        // cover 16 consecutive line slots = 16 consecutive cache sets.
        let v0 = g.version_line(first);
        let v7 = g.version_line(first + 7);
        assert_eq!(v7.raw() - v0.raw(), 14);
    }

    #[test]
    fn walk_path_divides_by_arity() {
        let g = geo();
        let line = LineAddr::new(g.data_region().base().line().raw() + 8 * 513);
        let p = g.walk_path(line);
        assert_eq!(p.l0, p.version / 8);
        assert_eq!(p.l1, p.version / 64);
        assert_eq!(p.l2, p.version / 512);
        assert_eq!(p.root, p.l2);
        assert_eq!(p.node_at(TreeLevel::Version), p.version);
        assert_eq!(p.node_at(TreeLevel::L2), p.l2);
    }

    #[test]
    fn arrays_do_not_overlap() {
        let g = geo();
        let mut last_end = g.tree_region().base().line().raw();
        // Interleaved region.
        let interleaved_end = last_end + 2 * g.lines_at(TreeLevel::Version);
        assert!(interleaved_end > last_end);
        last_end = interleaved_end;
        for level in [TreeLevel::L0, TreeLevel::L1, TreeLevel::L2] {
            let start = g.level_line(level, 0).raw();
            let end = start + g.lines_at(level);
            assert!(start >= last_end, "{level:?} overlaps previous array");
            last_end = end;
        }
        assert!(last_end * 64 <= g.tree_region().end().raw());
    }

    #[test]
    fn level_counts_shrink_by_arity() {
        let g = geo();
        let v = g.lines_at(TreeLevel::Version);
        assert_eq!(g.lines_at(TreeLevel::L0), v.div_ceil(8));
        assert_eq!(g.lines_at(TreeLevel::L1), v.div_ceil(8).div_ceil(8));
        assert_eq!(g.root_counters(), g.lines_at(TreeLevel::L2));
    }

    #[test]
    fn rejects_undersized_tree_region() {
        let layout = PhysLayout::new(1 << 20, 4 << 20).unwrap();
        // Swap regions: data region is far too small to be a tree region
        // for itself... construct a deliberately tiny tree region.
        let tiny = mee_mem::Region::new(layout.prm_tree().base(), PAGE_SIZE as u64);
        assert!(TreeGeometry::new(layout.prm_data(), tiny).is_err());
    }

    #[test]
    #[should_panic(expected = "not in the protected data region")]
    fn block_of_rejects_foreign_lines() {
        let g = geo();
        g.block_of(LineAddr::new(0));
    }

    /// Every data line in the region has a valid path whose node
    /// addresses stay inside the tree region and on the right parity.
    #[test]
    fn paths_are_well_formed() {
        check("paths_are_well_formed", &PropConfig::from_env(256), |rng| {
            let offset = rng.random_range(0u64..10_000);
            let g = geo();
            let lines = g.data_lines();
            let line = LineAddr::new(g.data_region().base().line().raw() + offset % lines);
            let p = g.walk_path(line);
            let v = g.version_line(p.version);
            assert!(g.tree_region().contains(v.base()));
            assert_eq!(v.raw() % 2, 1);
            for (level, node) in [
                (TreeLevel::L0, p.l0),
                (TreeLevel::L1, p.l1),
                (TreeLevel::L2, p.l2),
            ] {
                let l = g.level_line(level, node);
                assert!(g.tree_region().contains(l.base()));
            }
            assert!(p.root < g.root_counters());
        });
    }

    /// Distinct blocks get distinct version lines (injectivity).
    #[test]
    fn version_lines_injective() {
        check(
            "version_lines_injective",
            &PropConfig::from_env(256),
            |rng| {
                let g = geo();
                let n = g.lines_at(TreeLevel::Version);
                let a = rng.random_range(0u64..4096) % n;
                let b = rng.random_range(0u64..4096) % n;
                if a != b {
                    assert_ne!(g.version_line(a), g.version_line(b));
                    assert_ne!(g.pd_tag_line(a), g.pd_tag_line(b));
                }
                assert_ne!(g.version_line(a), g.pd_tag_line(b));
            },
        );
    }
}
