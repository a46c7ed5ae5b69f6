//! The SGX semantics the paper's challenges (§3) rest on, verified through
//! the machine's public API.

use mee_covert::machine::{CoreId, Machine};
use mee_covert::mem::AddressSpaceKind;
use mee_covert::testbed;
use mee_covert::tree::TreeLevel;
use mee_covert::types::{Cycles, ModelError, VirtAddr, PAGE_SIZE};

const CORE0: CoreId = CoreId::new(0);

fn machine() -> Machine {
    testbed::machine().unwrap()
}

#[test]
fn challenge1_clflush_does_not_touch_the_mee_cache() {
    let mut m = machine();
    let p = m.create_process(AddressSpaceKind::Enclave);
    let base = VirtAddr::new(0x10_0000);
    m.map_pages(p, base, 1).unwrap();

    m.read(CORE0, p, base).unwrap();
    let mee_lines_before = m.mee().cache().occupancy();
    assert!(mee_lines_before > 0, "walk should have filled tree lines");

    m.clflush(CORE0, p, base).unwrap();
    // On-chip copy gone…
    let pa = m.translate(p, base).unwrap();
    assert!(!m.line_cached_anywhere(pa.line()));
    // …but the MEE cache still holds the tree lines.
    assert_eq!(m.mee().cache().occupancy(), mee_lines_before);
}

#[test]
fn challenge2_versions_level_is_always_checked() {
    let mut m = machine();
    let p = m.create_process(AddressSpaceKind::Enclave);
    let base = VirtAddr::new(0x10_0000);
    m.map_pages(p, base, 8).unwrap();
    // Every MEE-visible access reports a hit level, and a warm re-access of
    // the same line stops at the versions level.
    for i in 0..8u64 {
        let va = base + i * PAGE_SIZE as u64;
        m.read(CORE0, p, va).unwrap();
        assert!(m.last_mee_hit().is_some());
        m.clflush(CORE0, p, va).unwrap();
        m.read(CORE0, p, va).unwrap();
        assert_eq!(
            m.last_mee_hit(),
            Some(mee_covert::engine::HitLevel::Versions)
        );
        m.clflush(CORE0, p, va).unwrap();
    }
}

#[test]
fn challenge3_no_hugepages_in_enclaves() {
    let mut m = machine();
    let e = m.create_process(AddressSpaceKind::Enclave);
    assert!(matches!(
        m.map_pages_contiguous(e, VirtAddr::new(0x20_0000), 8),
        Err(ModelError::IllegalInEnclave { .. })
    ));
}

#[test]
fn challenge4_rdtsc_faults_but_the_timer_trick_works() {
    let mut m = machine();
    let e = m.create_process(AddressSpaceKind::Enclave);
    assert!(m.rdtsc(CORE0, e).is_err());
    // The hyperthread mailbox works from anywhere and is cheap.
    let before = m.core_now(CORE0);
    let ts = m.timer_read(CORE0);
    assert!(ts <= before);
    assert_eq!(m.core_now(CORE0) - before, m.config().timing.timer_read);
}

#[test]
fn restriction_rdtsc_denial_names_the_instruction() {
    // One test per SGX1 restriction, asserting the exact error variant the
    // model raises — downstream actor code matches on these.
    let mut m = machine();
    let e = m.create_process(AddressSpaceKind::Enclave);
    assert_eq!(
        m.rdtsc(CORE0, e),
        Err(ModelError::IllegalInEnclave {
            instruction: "rdtsc"
        })
    );
    // The denial is enclave-specific, not a global rdtsc ban.
    let r = m.create_process(AddressSpaceKind::Regular);
    assert!(m.rdtsc(CORE0, r).is_ok());
}

#[test]
fn restriction_hugepage_denial_names_the_instruction() {
    let mut m = machine();
    let e = m.create_process(AddressSpaceKind::Enclave);
    assert_eq!(
        m.map_pages_contiguous(e, VirtAddr::new(0x50_0000), 4),
        Err(ModelError::IllegalInEnclave {
            instruction: "hugepage mapping"
        })
    );
    // Regular processes may still get contiguous frames.
    let r = m.create_process(AddressSpaceKind::Regular);
    m.map_pages_contiguous(r, VirtAddr::new(0x50_0000), 4)
        .unwrap();
}

#[test]
fn restriction_enclave_allocations_are_prm_bounded() {
    // Enclave memory comes from the PRM data region and nowhere else: a
    // request exceeding what remains must fail with the allocator's
    // bookkeeping intact, not spill into regular DRAM.
    let mut m = machine();
    let e = m.create_process(AddressSpaceKind::Enclave);
    let prm_pages = m.layout().prm_data().pages() as usize;
    let err = m
        .map_pages(e, VirtAddr::new(0x60_0000), prm_pages + 1)
        .unwrap_err();
    match err {
        ModelError::OutOfMemory {
            requested_pages,
            available_pages,
        } => {
            assert!(
                requested_pages > available_pages,
                "refused although {requested_pages} ≤ {available_pages}"
            );
            assert!(
                available_pages <= prm_pages,
                "allocator claims more free pages ({available_pages}) than the PRM holds ({prm_pages})"
            );
        }
        other => panic!("expected OutOfMemory, got {other:?}"),
    }
}

#[test]
fn integrity_violations_surface_through_memory_reads() {
    let mut m = machine();
    let p = m.create_process(AddressSpaceKind::Enclave);
    let base = VirtAddr::new(0x30_0000);
    m.map_pages(p, base, 1).unwrap();
    m.write(CORE0, p, base, 0x5ec4e7).unwrap();

    // Tamper with the stored data in "DRAM".
    let pa = m.translate(p, base).unwrap();
    m.mee_mut().tree_mut().tamper_digest(pa.line()).unwrap();

    // A cached read does not notice (plaintext on chip)…
    assert!(m.read(CORE0, p, base).is_ok());
    // …but flushing and re-reading walks the MEE and detects it.
    m.clflush(CORE0, p, base).unwrap();
    assert!(matches!(
        m.read(CORE0, p, base),
        Err(ModelError::IntegrityViolation { .. })
    ));
}

#[test]
fn counter_tamper_detected_only_on_deep_walks() {
    // Cached-implies-verified: while the versions line is in the MEE cache,
    // an upper-level counter tamper goes unnoticed — exactly the real MEE's
    // trust model (§2.2).
    let mut m = machine();
    let p = m.create_process(AddressSpaceKind::Enclave);
    let base = VirtAddr::new(0x40_0000);
    m.map_pages(p, base, 1).unwrap();
    m.read(CORE0, p, base).unwrap();
    m.clflush(CORE0, p, base).unwrap();

    let pa = m.translate(p, base).unwrap();
    let path = {
        let geo = *m.mee().geometry();
        geo.walk_path(pa.line())
    };
    m.mee_mut()
        .tree_mut()
        .tamper_counter(TreeLevel::L1, path.l1);

    // Versions line is still cached: walk stops early, tamper unnoticed.
    assert!(m.read(CORE0, p, base).is_ok());
}

#[test]
fn busy_wait_and_clock_ordering() {
    let mut m = machine();
    m.busy_until(CORE0, Cycles::new(123_456));
    assert_eq!(m.core_now(CORE0), Cycles::new(123_456));
    // Other cores' clocks are untouched.
    assert_eq!(m.core_now(CoreId::new(1)), Cycles::ZERO);
}
