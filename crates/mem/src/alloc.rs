//! Page-frame allocation.
//!
//! Frame placement is load-bearing for the paper: the reverse-engineering
//! experiments (§4) rely on the OS handing out *scattered* physical frames,
//! so that version lines of 4 KB-strided virtual pages land in MEE-cache
//! sets with only 1-in-8 alignment probability. [`PlacementPolicy::Randomized`]
//! is therefore the default; [`PlacementPolicy::Sequential`] exists for
//! white-box tests, and [`FrameAllocator::alloc_contiguous`] models the
//! hugepage-backed allocations available *outside* enclaves (challenge 3).

use mee_rng::Rng;
use mee_types::{ModelError, Ppn};

use crate::layout::Region;

/// How the allocator orders free frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Frames are handed out in a seeded random order — the OS-buddy-like
    /// behaviour the paper's statistics assume.
    Randomized {
        /// RNG seed controlling the shuffle.
        seed: u64,
    },
    /// Frames are handed out in ascending physical order (for white-box
    /// tests and worst-case analyses).
    Sequential,
}

/// Allocates 4 KiB frames from one physical [`Region`].
#[derive(Debug, Clone)]
pub struct FrameAllocator {
    region: Region,
    /// Free frames; allocation pops from the back.
    free: Vec<Ppn>,
    policy: PlacementPolicy,
    /// RNG used by the randomized policy to scatter *reuse* as well as the
    /// initial order (a real OS hands back recycled frames in effectively
    /// random order, which the §4 statistics depend on).
    rng: Option<Rng>,
}

impl FrameAllocator {
    /// Creates an allocator owning every frame in `region`.
    pub fn new(region: Region, policy: PlacementPolicy) -> Self {
        let first = region.base().ppn().raw();
        let mut free: Vec<Ppn> = (first..first + region.pages()).map(Ppn::new).collect();
        let rng = match policy {
            PlacementPolicy::Randomized { seed } => {
                let mut rng = Rng::seed_from_u64(seed);
                rng.shuffle(&mut free);
                Some(rng)
            }
            PlacementPolicy::Sequential => {
                // Pop from the back => ascending order needs descending list.
                free.reverse();
                None
            }
        };
        FrameAllocator {
            region,
            free,
            policy,
            rng,
        }
    }

    /// The region this allocator serves.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The placement policy in force.
    pub fn policy(&self) -> PlacementPolicy {
        self.policy
    }

    /// Number of free frames remaining.
    pub fn free_pages(&self) -> usize {
        self.free.len()
    }

    /// Allocates one frame.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfMemory`] when the region is exhausted.
    pub fn alloc(&mut self) -> Result<Ppn, ModelError> {
        self.free.pop().ok_or(ModelError::OutOfMemory {
            requested_pages: 1,
            available_pages: 0,
        })
    }

    /// Allocates `count` physically contiguous frames (a hugepage-style
    /// run), returning the first frame. Only meaningful for non-enclave
    /// memory — SGX has no hugepages.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::OutOfMemory`] if no contiguous run of `count`
    /// free frames exists.
    pub fn alloc_contiguous(&mut self, count: usize) -> Result<Ppn, ModelError> {
        if count == 0 || count > self.free.len() {
            return Err(ModelError::OutOfMemory {
                requested_pages: count,
                available_pages: self.free.len(),
            });
        }
        let mut sorted: Vec<u64> = self.free.iter().map(|p| p.raw()).collect();
        sorted.sort_unstable();
        let mut run_start = 0usize;
        let mut found = None;
        for i in 1..=sorted.len() {
            if i == sorted.len() || sorted[i] != sorted[i - 1] + 1 {
                if i - run_start >= count {
                    found = Some(sorted[run_start]);
                    break;
                }
                run_start = i;
            }
        }
        let first = found.ok_or(ModelError::OutOfMemory {
            requested_pages: count,
            available_pages: self.free.len(),
        })?;
        let taken = first..first + count as u64;
        self.free.retain(|p| !taken.contains(&p.raw()));
        Ok(Ppn::new(first))
    }

    /// Returns a frame to the pool.
    ///
    /// # Panics
    ///
    /// Panics if `ppn` is outside the region or already free (double free).
    pub fn free(&mut self, ppn: Ppn) {
        assert!(
            self.region.contains(ppn.base()),
            "{ppn} is outside the allocator's region"
        );
        assert!(!self.free.contains(&ppn), "double free of {ppn}");
        self.free.push(ppn);
        // Randomized policy: scatter the recycled frame into the free list
        // so reuse order is as unpredictable as initial placement.
        if let Some(rng) = &mut self.rng {
            let len = self.free.len();
            let i = rng.random_range(0..len);
            self.free.swap(i, len - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_types::{PhysAddr, PAGE_SIZE};
    use std::collections::BTreeSet;

    fn region(pages: u64) -> Region {
        Region::new(PhysAddr::new(0x10_0000), pages * PAGE_SIZE as u64)
    }

    #[test]
    fn sequential_allocates_in_order() {
        let mut a = FrameAllocator::new(region(4), PlacementPolicy::Sequential);
        let first = a.alloc().unwrap();
        let second = a.alloc().unwrap();
        assert_eq!(first.raw() + 1, second.raw());
        assert_eq!(a.free_pages(), 2);
    }

    #[test]
    fn randomized_is_a_permutation() {
        let pages = 64;
        let mut a = FrameAllocator::new(region(pages), PlacementPolicy::Randomized { seed: 9 });
        let mut seen = BTreeSet::new();
        for _ in 0..pages {
            assert!(seen.insert(a.alloc().unwrap().raw()));
        }
        assert_eq!(seen.len(), pages as usize);
        assert!(a.alloc().is_err());
        // All frames within the region.
        let base = region(pages).base().ppn().raw();
        assert!(seen.iter().all(|&p| (base..base + pages).contains(&p)));
    }

    #[test]
    fn randomized_actually_scatters() {
        let mut a = FrameAllocator::new(region(256), PlacementPolicy::Randomized { seed: 1 });
        let order: Vec<u64> = (0..256).map(|_| a.alloc().unwrap().raw()).collect();
        let ascending = order.windows(2).filter(|w| w[1] == w[0] + 1).count();
        assert!(ascending < 32, "allocation order suspiciously sequential");
    }

    #[test]
    fn same_seed_same_order() {
        let mk = || FrameAllocator::new(region(32), PlacementPolicy::Randomized { seed: 5 });
        let (mut a, mut b) = (mk(), mk());
        for _ in 0..32 {
            assert_eq!(a.alloc().unwrap(), b.alloc().unwrap());
        }
    }

    #[test]
    fn randomized_reuse_is_not_lifo() {
        let mut a = FrameAllocator::new(region(128), PlacementPolicy::Randomized { seed: 3 });
        // Allocate and free the same batch repeatedly; the batches must not
        // keep coming back identical (a real OS recycles frames unpredictably).
        let first: Vec<Ppn> = (0..16).map(|_| a.alloc().unwrap()).collect();
        for &p in &first {
            a.free(p);
        }
        let second: Vec<Ppn> = (0..16).map(|_| a.alloc().unwrap()).collect();
        assert_ne!(first, second, "recycled frames returned in LIFO order");
    }

    #[test]
    fn contiguous_allocation_finds_runs() {
        let mut a = FrameAllocator::new(region(16), PlacementPolicy::Randomized { seed: 2 });
        let first = a.alloc_contiguous(8).unwrap();
        assert_eq!(a.free_pages(), 8);
        // The run really is gone.
        for _ in 0..8 {
            let p = a.alloc().unwrap();
            assert!(
                p.raw() < first.raw() || p.raw() >= first.raw() + 8,
                "contiguous frames leaked back"
            );
        }
    }

    #[test]
    fn contiguous_fails_when_fragmented() {
        let mut a = FrameAllocator::new(region(8), PlacementPolicy::Sequential);
        // Take every other frame.
        let frames: Vec<Ppn> = (0..8).map(|_| a.alloc().unwrap()).collect();
        for f in frames.iter().step_by(2) {
            a.free(*f);
        }
        assert_eq!(a.free_pages(), 4);
        assert!(a.alloc_contiguous(2).is_err());
        assert!(a.alloc_contiguous(1).is_ok());
    }

    #[test]
    fn oom_reports_availability() {
        let mut a = FrameAllocator::new(region(2), PlacementPolicy::Sequential);
        a.alloc().unwrap();
        a.alloc().unwrap();
        match a.alloc() {
            Err(ModelError::OutOfMemory {
                available_pages, ..
            }) => assert_eq!(available_pages, 0),
            other => panic!("expected OOM, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut a = FrameAllocator::new(region(2), PlacementPolicy::Sequential);
        let p = a.alloc().unwrap();
        a.free(p);
        a.free(p);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn foreign_free_panics() {
        let mut a = FrameAllocator::new(region(2), PlacementPolicy::Sequential);
        a.free(Ppn::new(0));
    }
}
