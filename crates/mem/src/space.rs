//! Per-tenant virtual address spaces.

use mee_types::{FxHashMap, ModelError, PhysAddr, Ppn, VirtAddr, Vpn, PAGE_SIZE};

/// Whether an address space is an SGX enclave.
///
/// Enclave address spaces carry the restrictions the paper works around in
/// §3: 4 KiB pages only (no hugepages) and no `rdtsc`. The machine crate
/// enforces the instruction-level rules; this crate enforces the mapping
/// rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AddressSpaceKind {
    /// An ordinary process: may map general-region frames, including
    /// contiguous "hugepage" runs.
    Regular,
    /// An SGX enclave: pages must come from the PRM protected-data region
    /// and only 4 KiB granularity exists.
    Enclave,
}

/// A single tenant's virtual→physical mapping.
///
/// Deliberately minimal: a hash map of 4 KiB translations (translation is
/// on the hot path of every memory op, so lookups must be O(1)). The
/// simulator cares about *which physical lines* a program touches, not
/// about permissions or dirty bits.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    kind: AddressSpaceKind,
    table: FxHashMap<Vpn, Ppn>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new(kind: AddressSpaceKind) -> Self {
        AddressSpace {
            kind,
            table: FxHashMap::default(),
        }
    }

    /// Returns the kind of this address space.
    pub fn kind(&self) -> AddressSpaceKind {
        self.kind
    }

    /// Maps one 4 KiB page.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `vpn` is already mapped
    /// (the model has no implicit remap).
    pub fn map_page(&mut self, vpn: Vpn, ppn: Ppn) -> Result<(), ModelError> {
        if self.table.contains_key(&vpn) {
            return Err(ModelError::InvalidConfig {
                reason: format!("{vpn} is already mapped"),
            });
        }
        self.table.insert(vpn, ppn);
        Ok(())
    }

    /// Removes a mapping, returning the frame it pointed to.
    pub fn unmap_page(&mut self, vpn: Vpn) -> Option<Ppn> {
        self.table.remove(&vpn)
    }

    /// Translates a virtual address.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PageFault`] for unmapped addresses.
    pub fn translate(&self, va: VirtAddr) -> Result<PhysAddr, ModelError> {
        let ppn = self
            .table
            .get(&va.vpn())
            .ok_or(ModelError::PageFault { va })?;
        Ok(ppn.base() + va.page_offset())
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.table.len()
    }

    /// Iterates over mappings in VPN order.
    ///
    /// Sorts on each call — this is a debugging/introspection API, not a
    /// hot path; the backing table is unordered.
    pub fn iter(&self) -> impl Iterator<Item = (Vpn, Ppn)> + '_ {
        let mut pairs: Vec<(Vpn, Ppn)> = self.table.iter().map(|(&v, &p)| (v, p)).collect();
        pairs.sort_unstable_by_key(|&(v, _)| v);
        pairs.into_iter()
    }

    /// Total mapped bytes.
    pub fn mapped_bytes(&self) -> u64 {
        self.table.len() as u64 * PAGE_SIZE as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_translate_roundtrip() {
        let mut s = AddressSpace::new(AddressSpaceKind::Enclave);
        s.map_page(Vpn::new(0x100), Ppn::new(0x55)).unwrap();
        let pa = s
            .translate(VirtAddr::new(0x100 * PAGE_SIZE as u64 + 0xabc))
            .unwrap();
        assert_eq!(pa, PhysAddr::new(0x55 * PAGE_SIZE as u64 + 0xabc));
        assert_eq!(s.mapped_pages(), 1);
        assert_eq!(s.mapped_bytes(), PAGE_SIZE as u64);
        assert_eq!(s.kind(), AddressSpaceKind::Enclave);
    }

    #[test]
    fn unmapped_address_faults() {
        let s = AddressSpace::new(AddressSpaceKind::Regular);
        let va = VirtAddr::new(0xdead_b000);
        assert_eq!(s.translate(va), Err(ModelError::PageFault { va }));
    }

    #[test]
    fn double_map_is_rejected() {
        let mut s = AddressSpace::new(AddressSpaceKind::Regular);
        s.map_page(Vpn::new(1), Ppn::new(2)).unwrap();
        assert!(s.map_page(Vpn::new(1), Ppn::new(3)).is_err());
    }

    #[test]
    fn unmap_then_fault() {
        let mut s = AddressSpace::new(AddressSpaceKind::Regular);
        s.map_page(Vpn::new(1), Ppn::new(2)).unwrap();
        assert_eq!(s.unmap_page(Vpn::new(1)), Some(Ppn::new(2)));
        assert!(s.translate(VirtAddr::new(PAGE_SIZE as u64)).is_err());
        assert_eq!(s.unmap_page(Vpn::new(1)), None);
    }

    #[test]
    fn iter_is_vpn_ordered() {
        let mut s = AddressSpace::new(AddressSpaceKind::Regular);
        for vpn in [5u64, 1, 3] {
            s.map_page(Vpn::new(vpn), Ppn::new(vpn * 10)).unwrap();
        }
        let order: Vec<u64> = s.iter().map(|(v, _)| v.raw()).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }
}
