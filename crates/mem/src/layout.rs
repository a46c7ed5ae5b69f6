//! Physical memory layout: general region + PRM (protected data + tree).

use mee_types::{ModelError, PhysAddr, LINE_SIZE, PAGE_SIZE, TREE_ARITY, VERSION_BLOCKS_PER_PAGE};

/// A contiguous range of physical memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    base: PhysAddr,
    size: u64,
}

impl Region {
    /// Creates a region.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `size` is not page-aligned.
    pub fn new(base: PhysAddr, size: u64) -> Self {
        assert!(
            base.is_aligned(PAGE_SIZE),
            "region base must be page-aligned"
        );
        assert_eq!(
            size % PAGE_SIZE as u64,
            0,
            "region size must be page-aligned"
        );
        Region { base, size }
    }

    /// First byte of the region.
    pub fn base(&self) -> PhysAddr {
        self.base
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// One past the last byte.
    pub fn end(&self) -> PhysAddr {
        self.base + self.size
    }

    /// Number of 4 KiB pages in the region.
    pub fn pages(&self) -> u64 {
        self.size / PAGE_SIZE as u64
    }

    /// Whether `pa` falls inside the region.
    pub fn contains(&self, pa: PhysAddr) -> bool {
        pa >= self.base && pa < self.end()
    }
}

/// Which architectural region a physical address belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// Ordinary DRAM: no encryption, no integrity tree.
    General,
    /// Protected data inside the PRM: every access goes through the MEE.
    ProtectedData,
    /// The integrity-tree arrays inside the PRM (versions + PD_Tag
    /// interleaved, then L0/L1/L2). Only the MEE itself reads these.
    IntegrityTree,
}

/// The machine's physical memory map.
///
/// ```text
/// 0 ──────────────── general ──────────────── prm_base ── tree ── data ── end
/// ```
///
/// The PRM is split so the integrity tree exactly covers the protected data
/// region: per 4 KiB data page the tree needs 16 interleaved version/PD_Tag
/// lines (1 KiB) plus one L0 line (64 B) plus 1/8 L1 line plus 1/64 L2 line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysLayout {
    general: Region,
    tree: Region,
    data: Region,
}

impl PhysLayout {
    /// Lays out `general_bytes` of ordinary DRAM followed by a PRM of
    /// `prm_bytes` (the paper's machine: 32 GiB with a 128 MiB PRM — tests
    /// use smaller numbers; the model only stores tags, not contents).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if either size is zero, not
    /// page-aligned, or the PRM is too small to hold even one protected page
    /// plus its tree.
    pub fn new(general_bytes: u64, prm_bytes: u64) -> Result<Self, ModelError> {
        let fail = |reason: String| Err(ModelError::InvalidConfig { reason });
        if general_bytes == 0 || prm_bytes == 0 {
            return fail("memory region sizes must be non-zero".into());
        }
        if !general_bytes.is_multiple_of(PAGE_SIZE as u64)
            || !prm_bytes.is_multiple_of(PAGE_SIZE as u64)
        {
            return fail("memory region sizes must be page-aligned".into());
        }

        // Per-page integrity overhead in bytes (see type-level doc).
        let versions_and_tags = 2 * VERSION_BLOCKS_PER_PAGE as u64 * LINE_SIZE as u64; // 1 KiB
        let l0 = LINE_SIZE as u64; // one L0 line per page
                                   // L1/L2 shares are fractional; compute the split in whole pages.
        let data_pages = {
            // Solve data_pages such that total fits, walking down from the
            // upper bound given by the dominant per-page overhead.
            let per_page_min = PAGE_SIZE as u64 + versions_and_tags + l0;
            let mut pages = prm_bytes / per_page_min;
            while pages > 0 && Self::tree_bytes_for(pages) + pages * PAGE_SIZE as u64 > prm_bytes {
                pages -= 1;
            }
            pages
        };
        if data_pages == 0 {
            return fail(format!(
                "PRM of {prm_bytes} bytes cannot hold one protected page plus its tree"
            ));
        }

        let tree_bytes = Self::tree_bytes_for(data_pages);
        let general = Region::new(PhysAddr::new(0), general_bytes);
        let tree = Region::new(general.end(), tree_bytes);
        let data = Region::new(tree.end(), data_pages * PAGE_SIZE as u64);
        Ok(PhysLayout {
            general,
            tree,
            data,
        })
    }

    /// Total integrity-tree bytes needed to cover `data_pages` protected
    /// pages: interleaved versions/PD_Tag lines plus L0/L1/L2 arrays, each
    /// rounded up to whole pages.
    pub fn tree_bytes_for(data_pages: u64) -> u64 {
        let line = LINE_SIZE as u64;
        let versions_lines = data_pages * VERSION_BLOCKS_PER_PAGE as u64;
        let interleaved = 2 * versions_lines * line;
        let mut level_lines = versions_lines;
        let mut upper = 0u64;
        for _ in 0..3 {
            level_lines = level_lines.div_ceil(TREE_ARITY as u64);
            upper += level_lines * line;
        }
        let total = interleaved + upper;
        total.div_ceil(PAGE_SIZE as u64) * PAGE_SIZE as u64
    }

    /// The ordinary (non-PRM) DRAM region.
    pub fn general(&self) -> Region {
        self.general
    }

    /// The protected-data region of the PRM (enclave pages live here).
    pub fn prm_data(&self) -> Region {
        self.data
    }

    /// The integrity-tree region of the PRM.
    pub fn prm_tree(&self) -> Region {
        self.tree
    }

    /// Total physical memory covered by the layout.
    pub fn total_bytes(&self) -> u64 {
        self.data.end().raw()
    }

    /// Classifies a physical address.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPhysAddr`] when `pa` is outside all regions.
    pub fn classify(&self, pa: PhysAddr) -> Result<RegionKind, ModelError> {
        if self.general.contains(pa) {
            Ok(RegionKind::General)
        } else if self.tree.contains(pa) {
            Ok(RegionKind::IntegrityTree)
        } else if self.data.contains(pa) {
            Ok(RegionKind::ProtectedData)
        } else {
            Err(ModelError::BadPhysAddr { pa })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_basics() {
        let r = Region::new(PhysAddr::new(0x1000), 0x2000);
        assert_eq!(r.pages(), 2);
        assert!(r.contains(PhysAddr::new(0x1000)));
        assert!(r.contains(PhysAddr::new(0x2fff)));
        assert!(!r.contains(PhysAddr::new(0x3000)));
        assert!(!r.contains(PhysAddr::new(0xfff)));
    }

    #[test]
    #[should_panic(expected = "page-aligned")]
    fn region_rejects_unaligned_base() {
        let _ = Region::new(PhysAddr::new(0x100), 0x1000);
    }

    #[test]
    fn layout_regions_are_disjoint_and_ordered() {
        let l = PhysLayout::new(1 << 24, 8 << 20).unwrap();
        assert_eq!(l.general().base(), PhysAddr::new(0));
        assert_eq!(l.prm_tree().base(), l.general().end());
        assert_eq!(l.prm_data().base(), l.prm_tree().end());
        assert!(l.prm_data().pages() > 0);
    }

    #[test]
    fn prm_split_fits_and_is_tight() {
        for prm_mb in [1u64, 8, 32, 128] {
            let prm = prm_mb << 20;
            let l = PhysLayout::new(1 << 20, prm).unwrap();
            let used = l.prm_tree().size() + l.prm_data().size();
            assert!(used <= prm, "PRM overflow at {prm_mb} MiB");
            // Tightness: one more data page must not fit.
            let pages = l.prm_data().pages();
            assert!(
                PhysLayout::tree_bytes_for(pages + 1) + (pages + 1) * PAGE_SIZE as u64 > prm,
                "split not tight at {prm_mb} MiB"
            );
        }
    }

    #[test]
    fn overhead_matches_real_sgx_scale() {
        // Real SGX: 128 MiB PRM yields roughly 93-100 MiB usable EPC.
        let l = PhysLayout::new(1 << 20, 128 << 20).unwrap();
        let data_mb = l.prm_data().size() >> 20;
        assert!(
            (90..=105).contains(&data_mb),
            "usable protected data = {data_mb} MiB"
        );
    }

    #[test]
    fn classify_covers_all_regions() {
        let l = PhysLayout::new(1 << 20, 4 << 20).unwrap();
        assert_eq!(l.classify(PhysAddr::new(0)).unwrap(), RegionKind::General);
        assert_eq!(
            l.classify(l.prm_tree().base()).unwrap(),
            RegionKind::IntegrityTree
        );
        assert_eq!(
            l.classify(l.prm_data().base()).unwrap(),
            RegionKind::ProtectedData
        );
        assert!(l.classify(l.prm_data().end()).is_err());
    }

    #[test]
    fn rejects_degenerate_layouts() {
        assert!(PhysLayout::new(0, 4 << 20).is_err());
        assert!(PhysLayout::new(1 << 20, 0).is_err());
        assert!(PhysLayout::new(1 << 20, 100).is_err()); // unaligned
        assert!(PhysLayout::new(1 << 20, PAGE_SIZE as u64).is_err()); // too small
    }

    #[test]
    fn tree_bytes_monotone_in_pages() {
        let mut prev = 0;
        for pages in [1u64, 2, 10, 100, 1000, 10000] {
            let t = PhysLayout::tree_bytes_for(pages);
            assert!(t >= prev);
            prev = t;
        }
    }
}
