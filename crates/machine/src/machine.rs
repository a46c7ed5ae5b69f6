//! The machine itself: cores, hierarchy, processes, and instruction
//! primitives.

use std::fmt;

use mee_cache::SetAssocCache;
use mee_engine::Mee;
use mee_mem::{
    AddressSpace, AddressSpaceKind, DramModel, FrameAllocator, PhysLayout, PlacementPolicy,
    RegionKind, StallGenerator,
};
use mee_obs::{EventKind, MemOpKind, Obs, ServedAt, Tracer, WalkLevel};
use mee_rng::{stream_seed, Rng};
use mee_tree::TreeGeometry;
use mee_types::{Cycles, FxHashMap, LineAddr, ModelError, PhysAddr, VirtAddr, PAGE_SIZE};

use crate::config::MachineConfig;

/// Identifies a physical core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CoreId(usize);

impl CoreId {
    /// Creates a core id.
    pub const fn new(index: usize) -> Self {
        CoreId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for CoreId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "core{}", self.0)
    }
}

/// Identifies a simulated process (regular or enclave).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcId(usize);

impl ProcId {
    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ProcId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "proc{}", self.0)
    }
}

struct CoreState {
    l1: SetAssocCache,
    l2: SetAssocCache,
    now: Cycles,
    stalls: StallGenerator,
}

struct Process {
    space: AddressSpace,
}

/// One translation-memo slot: a (process, virtual page) → physical page
/// pairing, valid only while `stamp` matches the machine's current
/// page-table generation (see [`Machine::translate_cached`]).
#[derive(Clone, Copy)]
struct TlbEntry {
    /// Page-table generation this entry was filled under (`0` = never
    /// filled; the machine's generation starts at 1).
    stamp: u64,
    proc: u32,
    vpn: u64,
    /// Physical base of the translated page.
    page_base: u64,
}

impl TlbEntry {
    const EMPTY: TlbEntry = TlbEntry {
        stamp: 0,
        proc: 0,
        vpn: 0,
        page_base: 0,
    };
}

/// The simulated multi-core SGX machine.
///
/// See the crate docs for the architectural overview. All methods that model
/// instructions advance the issuing core's local clock by the instruction's
/// latency plus any background stalls, and return that same elapsed time.
pub struct Machine {
    cfg: MachineConfig,
    layout: PhysLayout,
    dram: DramModel,
    mee: Mee,
    llc: SetAssocCache,
    cores: Vec<CoreState>,
    procs: Vec<Process>,
    general_alloc: FrameAllocator,
    prm_alloc: FrameAllocator,
    /// Functional store for general-region lines (protected lines live in
    /// the integrity tree).
    general_store: FxHashMap<LineAddr, u64>,
    rng: Rng,
    /// Page-table generation stamp: bumped by every mapping mutation and
    /// EPC eviction, so every memo entry below goes stale at once. Starts
    /// at 1 so a zeroed [`TlbEntry`] can never validate.
    pt_generation: u64,
    /// The translation memo: a direct-mapped cache of page translations
    /// for the hot instruction paths (empty when `cfg.tlb_entries == 0`).
    /// Translation has no timing side effects, so this is purely a
    /// host-speed structure — it can never change a simulation.
    tlb: Vec<TlbEntry>,
    /// Where the MEE walk of the most recent memory op stopped (`None` if
    /// the op never reached the MEE).
    last_mee_hit: Option<mee_engine::HitLevel>,
    /// Observability state (event sink, metrics, host profile). Off by
    /// default: the instruction paths pay one disabled branch and nothing
    /// else. Tracing observes the simulation; it never changes it, so
    /// outcomes are bit-identical with tracing on or off.
    obs: Obs,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("cores", &self.cores.len())
            .field("procs", &self.procs.len())
            .field("mee", &self.mee)
            .finish_non_exhaustive()
    }
}

impl Machine {
    /// Builds the machine described by `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for invalid configurations.
    pub fn new(cfg: MachineConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        let layout = PhysLayout::new(cfg.general_bytes, cfg.prm_bytes)?;
        let geo = TreeGeometry::new(layout.prm_data(), layout.prm_tree())?;
        let dram = DramModel::new(cfg.dram.clone())?;
        let mee = Mee::new(
            geo,
            cfg.mee_key,
            cfg.mee_cache,
            cfg.mee_policy.build(),
            cfg.timing.clone(),
        );
        let llc = SetAssocCache::new(cfg.llc, cfg.llc_policy.build());
        let cores = (0..cfg.cores)
            .map(|i| CoreState {
                l1: SetAssocCache::new(cfg.l1, cfg.mee_policy.build()),
                l2: SetAssocCache::new(cfg.l2, cfg.mee_policy.build()),
                now: Cycles::ZERO,
                stalls: StallGenerator::new(
                    cfg.timing.stall_mean_interval,
                    cfg.timing.stall_min,
                    cfg.timing.stall_max,
                    // Per-core sub-stream: adding a core never shifts the
                    // noise seen by existing cores.
                    stream_seed(cfg.stall_seed, i as u64),
                ),
            })
            .collect();
        let general_alloc = FrameAllocator::new(
            layout.general(),
            PlacementPolicy::Randomized {
                seed: stream_seed(cfg.alloc_seed, 0),
            },
        );
        let prm_alloc = FrameAllocator::new(
            layout.prm_data(),
            PlacementPolicy::Randomized {
                seed: stream_seed(cfg.alloc_seed, 1),
            },
        );
        Ok(Machine {
            rng: Rng::seed_from_u64(stream_seed(cfg.alloc_seed, 2)),
            pt_generation: 1,
            tlb: vec![TlbEntry::EMPTY; cfg.tlb_entries],
            cfg,
            layout,
            dram,
            mee,
            llc,
            cores,
            procs: Vec::new(),
            general_alloc,
            prm_alloc,
            general_store: FxHashMap::default(),
            last_mee_hit: None,
            obs: Obs::off(),
        })
    }

    /// Turns on event tracing and metrics with a `capacity`-bounded ring.
    /// For metrics that reconcile exactly with [`Mee::stats`], enable
    /// tracing before issuing any memory ops.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Self::disable_tracing`]).
    pub fn enable_tracing(&mut self, capacity: usize) {
        let cores = self.cores.len();
        let mee_sets = self.mee.cache().config().sets;
        self.obs = Obs::enabled(capacity, cores, mee_sets);
    }

    /// Turns tracing back off, discarding any captured events and metrics
    /// (the host profile is discarded too).
    pub fn disable_tracing(&mut self) {
        self.obs = Obs::off();
    }

    /// The observability state (events, metrics, host profile).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Mutable observability state — for host-time spans and for layers
    /// above the machine (faults, channel) recording their own events via
    /// [`Self::trace_fault`] / [`Self::trace_phase`] equivalents.
    pub fn obs_mut(&mut self) -> &mut Obs {
        &mut self.obs
    }

    /// Records a fault firing in the event trace (no-op when tracing is
    /// off). Called by the fault injector after applying a fault.
    pub fn trace_fault(&mut self, kind: &'static str, arg: u64, at: Cycles) {
        if self.obs.sink.enabled() {
            self.obs.sink.record(at, EventKind::Fault { kind, arg });
        }
    }

    /// Records a channel phase transition in the event trace (no-op when
    /// tracing is off). Called by the attack layer at session milestones.
    pub fn trace_phase(&mut self, name: &'static str, arg: u64, at: Cycles) {
        if self.obs.sink.enabled() {
            self.obs.sink.record(at, EventKind::Phase { name, arg });
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The physical memory layout.
    pub fn layout(&self) -> &PhysLayout {
        &self.layout
    }

    /// Read-only view of the MEE (cache contents, stats, geometry).
    pub fn mee(&self) -> &Mee {
        &self.mee
    }

    /// Mutable MEE access, for tamper-injection tests and the §5.5
    /// way-partitioning mitigation.
    pub fn mee_mut(&mut self) -> &mut Mee {
        &mut self.mee
    }

    /// Read-only view of the shared LLC.
    pub fn llc(&self) -> &SetAssocCache {
        &self.llc
    }

    /// The local clock of a core.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_now(&self, core: CoreId) -> Cycles {
        self.cores[core.index()].now
    }

    /// Number of cores.
    pub fn core_count(&self) -> usize {
        self.cores.len()
    }

    /// Whether `core`'s private L1 or L2 holds `line` — for tests that
    /// reason about migration and eviction effects from outside the crate.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_caches_line(&self, core: CoreId, line: LineAddr) -> bool {
        let c = &self.cores[core.index()];
        c.l1.contains(line) || c.l2.contains(line)
    }

    /// Creates a process with an empty address space.
    pub fn create_process(&mut self, kind: AddressSpaceKind) -> ProcId {
        self.procs.push(Process {
            space: AddressSpace::new(kind),
        });
        ProcId(self.procs.len() - 1)
    }

    /// Whether a process is an enclave.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is out of range.
    pub fn is_enclave(&self, proc: ProcId) -> bool {
        self.procs[proc.index()].space.kind() == AddressSpaceKind::Enclave
    }

    /// Maps `count` pages at `base` (page-aligned) into `proc`. Enclave
    /// pages come from the PRM protected-data region, regular pages from
    /// general DRAM — both physically scattered by the randomized allocator,
    /// as a real OS would.
    ///
    /// # Errors
    ///
    /// Propagates allocation ([`ModelError::OutOfMemory`]) and mapping
    /// errors; returns [`ModelError::InvalidConfig`] if `base` is not
    /// page-aligned.
    pub fn map_pages(
        &mut self,
        proc: ProcId,
        base: VirtAddr,
        count: usize,
    ) -> Result<(), ModelError> {
        self.check_proc(proc)?;
        self.check_alignment(base)?;
        // Bump before mutating: a partial failure below still leaves the
        // page tables changed, so the memo must already be stale.
        self.pt_generation += 1;
        let enclave = self.is_enclave(proc);
        for i in 0..count {
            let ppn = if enclave {
                self.prm_alloc.alloc()?
            } else {
                self.general_alloc.alloc()?
            };
            let vpn = (base + (i * PAGE_SIZE) as u64).vpn();
            self.procs[proc.index()].space.map_page(vpn, ppn)?;
        }
        Ok(())
    }

    /// Unmaps `count` pages at `base` from `proc` and returns their frames
    /// to the allocator. Cached copies are left to age out naturally (the
    /// experiments flush what they must).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PageFault`] if any page in the range is not
    /// mapped; pages before the faulting one stay unmapped.
    pub fn unmap_pages(
        &mut self,
        proc: ProcId,
        base: VirtAddr,
        count: usize,
    ) -> Result<(), ModelError> {
        self.check_proc(proc)?;
        self.check_alignment(base)?;
        self.pt_generation += 1;
        let enclave = self.is_enclave(proc);
        for i in 0..count {
            let va = base + (i * PAGE_SIZE) as u64;
            let ppn = self.procs[proc.index()]
                .space
                .unmap_page(va.vpn())
                .ok_or(ModelError::PageFault { va })?;
            if enclave {
                self.prm_alloc.free(ppn);
            } else {
                self.general_alloc.free(ppn);
            }
        }
        Ok(())
    }

    /// Maps `count` pages at `base` backed by *physically contiguous*
    /// frames — a hugepage-style allocation. SGX provides no hugepages
    /// (paper challenge 3), so this fails for enclaves.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IllegalInEnclave`] for enclave processes, and
    /// propagates allocation/mapping errors otherwise.
    pub fn map_pages_contiguous(
        &mut self,
        proc: ProcId,
        base: VirtAddr,
        count: usize,
    ) -> Result<(), ModelError> {
        self.check_proc(proc)?;
        self.check_alignment(base)?;
        if self.is_enclave(proc) {
            return Err(ModelError::IllegalInEnclave {
                instruction: "hugepage mapping",
            });
        }
        self.pt_generation += 1;
        let first = self.general_alloc.alloc_contiguous(count)?;
        for i in 0..count {
            let vpn = (base + (i * PAGE_SIZE) as u64).vpn();
            self.procs[proc.index()]
                .space
                .map_page(vpn, mee_types::Ppn::new(first.raw() + i as u64))?;
        }
        Ok(())
    }

    /// Translates a virtual address in `proc` (no timing side effects).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PageFault`] for unmapped addresses and
    /// [`ModelError::NoSuchProcess`] for a process id this machine never
    /// issued.
    pub fn translate(&self, proc: ProcId, va: VirtAddr) -> Result<PhysAddr, ModelError> {
        self.check_proc(proc)?;
        self.procs[proc.index()].space.translate(va)
    }

    /// [`Self::translate`] through the translation memo — the hot-path
    /// variant used by every instruction that touches memory.
    ///
    /// The memo is a direct-mapped array of page translations, each
    /// stamped with the page-table generation it was filled under. Every
    /// mapping mutation ([`Self::map_pages`], [`Self::unmap_pages`],
    /// [`Self::map_pages_contiguous`]) and every EPC eviction
    /// ([`Self::epc_evict_page`]) bumps the generation, so a stale entry
    /// can never validate: it either carries an older stamp (rejected) or
    /// was filled after the mutation (already correct). Combined with
    /// translation having no timing side effects, a memo hit is
    /// observationally identical to a fresh page-table walk — see
    /// `DESIGN.md`, "Translation memo".
    fn translate_cached(&mut self, proc: ProcId, va: VirtAddr) -> Result<PhysAddr, ModelError> {
        if self.tlb.is_empty() {
            return self.translate(proc, va);
        }
        let vpn = va.vpn().raw();
        let pid = proc.index() as u64;
        // Multiply-shift: the high word of `hash · len` is a slot below
        // `len`, with no division.
        let hash =
            (vpn ^ pid.wrapping_mul(0x9e37_79b9_7f4a_7c15)).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = ((u128::from(hash) * self.tlb.len() as u128) >> 64) as usize;
        let e = self.tlb[slot];
        if e.stamp == self.pt_generation && e.vpn == vpn && u64::from(e.proc) == pid {
            return Ok(PhysAddr::new(e.page_base + va.page_offset()));
        }
        let pa = self.translate(proc, va)?;
        self.tlb[slot] = TlbEntry {
            stamp: self.pt_generation,
            proc: proc.index() as u32,
            vpn,
            page_base: pa.raw() - va.page_offset(),
        };
        Ok(pa)
    }

    /// Loads from `va`: walks L1 → L2 → LLC → DRAM (+ MEE for protected
    /// data), returning the elapsed cycles including background stalls.
    ///
    /// # Errors
    ///
    /// Returns page-fault, bad-address, or integrity-violation errors, and
    /// [`ModelError::NoSuchCore`]/[`ModelError::NoSuchProcess`] for ids
    /// this machine never issued.
    pub fn read(&mut self, core: CoreId, proc: ProcId, va: VirtAddr) -> Result<Cycles, ModelError> {
        self.mem_op(core, proc, va, None)
    }

    /// Loads from `va` and also returns the 64-bit digest stored there.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn read_value(
        &mut self,
        core: CoreId,
        proc: ProcId,
        va: VirtAddr,
    ) -> Result<(Cycles, u64), ModelError> {
        let (lat, line, kind) = self.mem_op_classified(core, proc, va, None)?;
        let value = match kind {
            RegionKind::ProtectedData => self.mee.tree_mut().peek(line)?,
            _ => self.general_store.get(&line).copied().unwrap_or(0),
        };
        Ok((lat, value))
    }

    /// Stores `digest` to `va` (write-allocate; protected stores update the
    /// integrity tree — through the full MEE write path on a hierarchy miss,
    /// functionally otherwise).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`].
    pub fn write(
        &mut self,
        core: CoreId,
        proc: ProcId,
        va: VirtAddr,
        digest: u64,
    ) -> Result<Cycles, ModelError> {
        self.mem_op(core, proc, va, Some(digest))
    }

    /// Evicts `va`'s line from every on-chip cache (all cores' L1/L2 and the
    /// LLC). Crucially, `clflush` does **not** touch the MEE cache — the
    /// asymmetry the whole attack rests on (paper challenge 1).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PageFault`] for unmapped addresses.
    pub fn clflush(
        &mut self,
        core: CoreId,
        proc: ProcId,
        va: VirtAddr,
    ) -> Result<Cycles, ModelError> {
        self.check_core(core)?;
        let pa = self.translate_cached(proc, va)?;
        Ok(self.clflush_at(core, proc, pa))
    }

    /// The post-translation body of [`Self::clflush`], shared with the
    /// batched sweep path (which translates each address once for its
    /// read *and* its flush).
    fn clflush_at(&mut self, core: CoreId, proc: ProcId, pa: PhysAddr) -> Cycles {
        let line = pa.line();
        for c in &mut self.cores {
            c.l1.invalidate(line);
            c.l2.invalidate(line);
        }
        self.llc.invalidate(line);
        self.charge_clflush(core, proc, line)
    }

    /// The timing half of a `clflush` of `line`, once the line has left
    /// every on-chip cache: the latency plus stalls, and its trace record.
    fn charge_clflush(&mut self, core: CoreId, proc: ProcId, line: LineAddr) -> Cycles {
        let elapsed = self.advance_with_stalls(core, self.cfg.timing.clflush);
        self.record_mem_op(core, proc, MemOpKind::Clflush, line, None, elapsed);
        elapsed
    }

    /// Runs one establishment sweep: for each address in `addrs` (in
    /// reverse order when `rev`), a load followed by a `clflush` of the
    /// same line — the prime/warm primitive of Algorithm 1 and the
    /// trojan's eviction sweeps. Per-op semantics (latencies, stall
    /// draws, cache and MEE effects, trace events) are exactly those of
    /// the equivalent [`Self::read`] + [`Self::clflush`] sequence — the
    /// differential tier holds the two paths bit-identical. The batch pays
    /// core validation and page translation once per address instead of
    /// twice, keeps the whole loop in one call frame, and applies a pair
    /// whose line no cache level has to evict for in one pass (see
    /// [`Self::sweep_pair_at`]).
    ///
    /// Returns the total elapsed cycles across the batch.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`]; ops before the failing address
    /// remain applied.
    pub fn sweep_read_flush(
        &mut self,
        core: CoreId,
        proc: ProcId,
        addrs: &[VirtAddr],
        rev: bool,
    ) -> Result<Cycles, ModelError> {
        self.check_core(core)?;
        let mut total = Cycles::ZERO;
        let step = |m: &mut Self, va: VirtAddr| -> Result<Cycles, ModelError> {
            let pa = m.translate_cached(proc, va)?;
            let (read, flush) = m.sweep_pair_at(core, proc, pa)?;
            Ok(read + flush)
        };
        if rev {
            for &va in addrs.iter().rev() {
                total += step(self, va)?;
            }
        } else {
            for &va in addrs {
                total += step(self, va)?;
            }
        }
        Ok(total)
    }

    /// A load of `va` followed by a `clflush` of its line: one pair of
    /// [`Self::sweep_read_flush`]. Returns the load's elapsed cycles (the
    /// flush's are charged to the core clock as usual).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::read`]; the flush does not run when the
    /// load fails.
    pub fn read_flush(
        &mut self,
        core: CoreId,
        proc: ProcId,
        va: VirtAddr,
    ) -> Result<Cycles, ModelError> {
        self.check_core(core)?;
        let pa = self.translate_cached(proc, va)?;
        self.sweep_pair_at(core, proc, pa).map(|(read, _)| read)
    }

    /// One read-then-`clflush` pair; returns the load's and the flush's
    /// elapsed cycles.
    ///
    /// When the line is absent from the sweeping core's L1 and L2 and from
    /// the LLC, and each of those sets has a free way (the attack keeps
    /// nearly every set empty), the pair's net cache effect is local: each
    /// level counts a miss and an invalidation and runs its policy's
    /// `on_fill` then `on_invalidate` on the free way, while tags, valid
    /// masks and resident counts end where they started
    /// ([`SetAssocCache::fill_then_invalidate`]). No level evicts, so no
    /// back-invalidation can land between the load and the flush, and by
    /// inclusion no other core caches the line, so the flush's broadcast
    /// to their private caches would find nothing. The DRAM access, the
    /// MEE walk, both clock advances and the trace records run as in the
    /// split halves, in the same order. If the walk fails, the line is
    /// left filled at all three levels, as the split load leaves it.
    ///
    /// Every other state runs the split halves, [`Self::mem_op_at`] then
    /// [`Self::clflush_at`] (`DESIGN.md`, "The batched sweep pair"). The
    /// seeded differential test
    /// `sweep_matches_split_under_l1_resident_llc_victims` holds both paths
    /// to the split `read` + `clflush` sequence.
    fn sweep_pair_at(
        &mut self,
        core: CoreId,
        proc: ProcId,
        pa: PhysAddr,
    ) -> Result<(Cycles, Cycles), ModelError> {
        let line = pa.line();
        let c = &self.cores[core.index()];
        let (Some(l1), Some(l2), Some(llc)) = (
            c.l1.free_way(line),
            c.l2.free_way(line),
            self.llc.free_way(line),
        ) else {
            let (read, _, _) = self.mem_op_at(core, proc, pa, None)?;
            return Ok((read, self.clflush_at(core, proc, pa)));
        };
        debug_assert!(
            (0..self.cores.len()).all(|i| !self.core_caches_line(CoreId::new(i), line)),
            "inclusion: a private cache holds line {line:?} absent from the LLC"
        );
        let kind = self.data_region(pa)?;
        self.last_mee_hit = None;
        let t = &self.cfg.timing;
        let on_chip = t.l1_hit + t.l2_hit + t.llc_hit;
        let lat = match self.fetch_line(core, line, kind, None, on_chip) {
            Ok(lat) => lat,
            Err(e) => {
                // The split load has filled all three levels by the time
                // its walk fails; leave the line where it would be.
                let c = &mut self.cores[core.index()];
                c.l1.access(line);
                c.l2.access(line);
                self.llc.access(line);
                return Err(e);
            }
        };
        let c = &mut self.cores[core.index()];
        c.l1.fill_then_invalidate(l1.0, l1.1);
        c.l2.fill_then_invalidate(l2.0, l2.1);
        self.llc.fill_then_invalidate(llc.0, llc.1);
        let read = self.advance_with_stalls(core, lat);
        self.record_mem_op(
            core,
            proc,
            MemOpKind::Read,
            line,
            Some(ServedAt::Dram),
            read,
        );
        Ok((read, self.charge_clflush(core, proc, line)))
    }

    /// A serializing fence (ordering is implicit in the sequential model;
    /// only the latency is charged).
    pub fn mfence(&mut self, core: CoreId) -> Cycles {
        let lat = self.cfg.timing.mfence;
        self.advance_with_stalls(core, lat)
    }

    /// Reads the time-stamp counter. Illegal in enclave mode on SGX1
    /// (paper challenge 4).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IllegalInEnclave`] when `proc` is an enclave.
    pub fn rdtsc(&mut self, core: CoreId, proc: ProcId) -> Result<Cycles, ModelError> {
        self.check_core(core)?;
        self.check_proc(proc)?;
        if self.is_enclave(proc) {
            return Err(ModelError::IllegalInEnclave {
                instruction: "rdtsc",
            });
        }
        let ts = self.cores[core.index()].now;
        self.advance_with_stalls(core, self.cfg.timing.rdtsc);
        Ok(ts)
    }

    /// Reads the hyperthread timer mailbox (paper Figure 2(c)): a sibling
    /// thread continuously publishes `rdtsc` to normal memory, so enclave
    /// code can read a timestamp for ~50 cycles — quantized to the
    /// publisher's refresh period.
    pub fn timer_read(&mut self, core: CoreId) -> Cycles {
        let now = self.cores[core.index()].now.raw();
        let q = self.cfg.timer_quantum;
        let ts = Cycles::new(now - now % q);
        self.advance_with_stalls(core, self.cfg.timing.timer_read);
        ts
    }

    /// Obtains a timestamp via an OCALL round trip (paper Figure 2(b)):
    /// legal from an enclave but costs 8000–15000 cycles, which is why the
    /// paper rejects it.
    pub fn ocall_rdtsc(&mut self, core: CoreId) -> Cycles {
        let lat = Cycles::new(
            self.rng
                .random_range(self.cfg.timing.ocall_min.raw()..=self.cfg.timing.ocall_max.raw()),
        );
        self.advance_with_stalls(core, lat);
        self.cores[core.index()].now
    }

    /// Spins until the core's clock reaches `deadline` (polling the timer
    /// mailbox). A background stall near the deadline delays the wake-up by
    /// the portion spilling past it.
    pub fn busy_until(&mut self, core: CoreId, deadline: Cycles) {
        let c = &mut self.cores[core.index()];
        if c.now >= deadline {
            return;
        }
        let mut wake = deadline;
        c.stalls.for_each_stall_in(c.now, deadline, |at, dur| {
            let end = at + dur;
            if end > wake {
                wake = end;
            }
        });
        c.now = wake;
    }

    /// Advances the core's clock by `cycles` of pure computation.
    pub fn advance(&mut self, core: CoreId, cycles: Cycles) -> Cycles {
        self.advance_with_stalls(core, cycles)
    }

    /// Checks whether `line` is resident anywhere on-chip (L1/L2/LLC) —
    /// an oracle for tests, not an instruction.
    pub fn line_cached_anywhere(&self, line: LineAddr) -> bool {
        self.llc.contains(line)
            || self
                .cores
                .iter()
                .any(|c| c.l1.contains(line) || c.l2.contains(line))
    }

    /// Verifies the inclusive-LLC invariant: every line resident in any
    /// core's L1 or L2 must also be resident in the LLC. Returns the first
    /// violating `(core, line)` if any — a test oracle, not an instruction.
    pub fn check_inclusion(&self) -> Option<(CoreId, LineAddr)> {
        for (i, c) in self.cores.iter().enumerate() {
            for line in c.l1.resident_lines().chain(c.l2.resident_lines()) {
                if !self.llc.contains(line) {
                    return Some((CoreId::new(i), line));
                }
            }
        }
        None
    }

    /// Verifies that no tree-region line ever entered the on-chip caches
    /// (tree data is visible only to the MEE). Returns a violating line if
    /// any — a test oracle.
    pub fn check_no_tree_lines_on_chip(&self) -> Option<LineAddr> {
        let tree = self.layout.prm_tree();
        let mut all_lines = self.llc.resident_lines().chain(
            self.cores
                .iter()
                .flat_map(|c| c.l1.resident_lines().chain(c.l2.resident_lines())),
        );
        all_lines.find(|&line| tree.contains(line.base()))
    }

    /// Where the MEE walk of the most recent [`Self::read`]/[`Self::write`]
    /// stopped, or `None` if the access was served on-chip or from the
    /// general region. Ground-truth oracle for experiment labeling — not an
    /// instruction.
    pub fn last_mee_hit(&self) -> Option<mee_engine::HitLevel> {
        self.last_mee_hit
    }

    // --- Fault-injection primitives -------------------------------------
    //
    // Structured adversity hooks for the `mee-faults` crate. These model
    // OS- or co-runner-induced events, so none of them charges latency to
    // the issuing instruction stream: preemption moves a core's clock
    // forward without doing work, and the cache events happen "from the
    // outside" (another core, the OS paging daemon) asynchronously to the
    // victim.

    /// Preempts `core` until cycle `resume`: the core executes nothing in
    /// the burst and its clock lands at `max(now, resume)` — a
    /// CacheZoom-style interrupt storm or a scheduler tick. In the
    /// discrete-event model a preempted core cannot "freeze" (shared state
    /// is touched in global clock order), so lost time is modeled as the
    /// clock jumping past the burst. A core that had already slept past
    /// `resume` (e.g. in a `busy_until` window wait) absorbs the interrupt
    /// inside the sleep and loses nothing, exactly as on real hardware.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn preempt_until(&mut self, core: CoreId, resume: Cycles) {
        let c = &mut self.cores[core.index()];
        c.now = c.now.max(resume);
    }

    /// Skews `core`'s clock forward by `skew` cycles — transient inter-core
    /// timer drift (the hyperthread timer mailbox lagging, an SMI charging
    /// time to the wrong core). Unlike [`Self::preempt_until`] the skew is
    /// additive: it displaces whatever the core does next, even mid-sleep.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn skew_clock(&mut self, core: CoreId, skew: Cycles) {
        let c = &mut self.cores[core.index()];
        c.now += skew;
    }

    /// Flushes `core`'s private L1/L2 caches — the architectural cost of
    /// migrating the thread off and back onto a core (the channel's shared
    /// state in the LLC and the MEE cache survives a migration, which is
    /// why the attack tolerates it; pair with [`Self::preempt_until`] for
    /// the migration downtime). Inclusion is preserved: private caches hold a
    /// subset of the LLC, so dropping them violates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn flush_private_caches(&mut self, core: CoreId) {
        let c = &mut self.cores[core.index()];
        c.l1.invalidate_all();
        c.l2.invalidate_all();
    }

    /// Flushes the entire MEE cache (a whole-cache flush event). See
    /// [`Mee::flush_cache`].
    pub fn flush_mee_cache(&mut self) {
        self.mee.flush_cache();
    }

    /// Thrashes one MEE-cache set (a co-runner cycling an eviction set
    /// through exactly that set); returns how many lines were dropped.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range for the MEE-cache geometry.
    pub fn thrash_mee_set(&mut self, set: usize) -> usize {
        self.mee.flush_cache_set(set)
    }

    /// Evicts and immediately re-maps an EPC page: every line of the page
    /// leaves the on-chip hierarchy (all L1/L2s and the LLC), and each
    /// version block's walk footprint (versions + PD_Tag lines) leaves the
    /// MEE cache — `EWB` re-encrypts the page out and `ELDU` loads it back
    /// into the *same* frame with fresh counters. The mapping itself is
    /// unchanged, so the victim's next access re-walks rather than faults.
    /// Returns the number of MEE-cache lines dropped.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::PageFault`] if `page` is unmapped in `proc`,
    /// or [`ModelError::InvalidConfig`] if it is not page-aligned.
    pub fn epc_evict_page(&mut self, proc: ProcId, page: VirtAddr) -> Result<usize, ModelError> {
        self.check_alignment(page)?;
        let pa = self.translate(proc, page)?;
        // The counters are rewritten even though the frame stays the same;
        // stamp conservatively so no memo entry outlives the eviction.
        self.pt_generation += 1;
        let first = pa.line();
        let count = (PAGE_SIZE / mee_types::LINE_SIZE) as u64;
        // Back-invalidate the page from every on-chip cache in one pass
        // per tag array instead of per-line broadcast calls. Caches are
        // independent, so regrouping the per-line × per-cache loop into
        // per-cache page runs preserves each cache's invalidation order.
        for c in &mut self.cores {
            let _ = c.l1.invalidate_range(first, count);
            let _ = c.l2.invalidate_range(first, count);
        }
        let _ = self.llc.invalidate_range(first, count);
        let mut mee_dropped = 0;
        for i in 0..count {
            mee_dropped += self
                .mee
                .evict_walk_footprint(LineAddr::new(first.raw() + i));
        }
        Ok(mee_dropped)
    }

    /// Rejects out-of-range core ids on the fallible instruction paths, so
    /// a `CoreId` minted for a bigger machine surfaces as a typed error
    /// instead of an index panic. Infallible paths (clock queries, fault
    /// primitives) keep their documented panics: widening every signature
    /// to `Result` would make each call site handle an error that a correct
    /// actor binding can never produce.
    fn check_core(&self, core: CoreId) -> Result<(), ModelError> {
        if core.index() < self.cores.len() {
            Ok(())
        } else {
            Err(ModelError::NoSuchCore { core: core.index() })
        }
    }

    /// Same as [`Self::check_core`] for process ids (a `ProcId` from one
    /// machine used on another).
    fn check_proc(&self, proc: ProcId) -> Result<(), ModelError> {
        if proc.index() < self.procs.len() {
            Ok(())
        } else {
            Err(ModelError::NoSuchProcess { proc: proc.index() })
        }
    }

    fn check_alignment(&self, base: VirtAddr) -> Result<(), ModelError> {
        if base.is_aligned(PAGE_SIZE) {
            Ok(())
        } else {
            Err(ModelError::InvalidConfig {
                reason: format!("mapping base {base} is not page-aligned"),
            })
        }
    }

    fn advance_with_stalls(&mut self, core: CoreId, lat: Cycles) -> Cycles {
        let c = &mut self.cores[core.index()];
        let start = c.now;
        let end = start + lat;
        let stall = c.stalls.stall_in(start, end);
        c.now = end + stall;
        lat + stall
    }

    fn mem_op(
        &mut self,
        core: CoreId,
        proc: ProcId,
        va: VirtAddr,
        store: Option<u64>,
    ) -> Result<Cycles, ModelError> {
        self.mem_op_classified(core, proc, va, store)
            .map(|(lat, _, _)| lat)
    }

    /// [`Self::mem_op`] that also returns the physical line and its region,
    /// so value-returning loads need not translate twice.
    fn mem_op_classified(
        &mut self,
        core: CoreId,
        proc: ProcId,
        va: VirtAddr,
        store: Option<u64>,
    ) -> Result<(Cycles, LineAddr, RegionKind), ModelError> {
        self.check_core(core)?;
        let pa = self.translate_cached(proc, va)?;
        self.mem_op_at(core, proc, pa, store)
    }

    /// The post-translation body of a memory op, shared with the batched
    /// sweep path.
    fn mem_op_at(
        &mut self,
        core: CoreId,
        proc: ProcId,
        pa: PhysAddr,
        store: Option<u64>,
    ) -> Result<(Cycles, LineAddr, RegionKind), ModelError> {
        let kind = self.data_region(pa)?;
        let line = pa.line();
        let issued = self.cores[core.index()].now;
        let t = &self.cfg.timing;
        let mut lat = t.l1_hit;
        let mut reached_dram = false;
        let mut served = ServedAt::L1;
        self.last_mee_hit = None;

        let l1_hit = self.cores[core.index()].l1.access(line).hit;
        if !l1_hit {
            lat += t.l2_hit;
            served = ServedAt::L2;
            let l2_hit = self.cores[core.index()].l2.access(line).hit;
            if !l2_hit {
                lat += t.llc_hit;
                served = ServedAt::Llc;
                let llc_res = self.llc.access(line);
                if let Some(victim) = llc_res.evicted {
                    // Inclusive LLC: back-invalidate every private cache.
                    for c in &mut self.cores {
                        c.l1.invalidate(victim);
                        c.l2.invalidate(victim);
                    }
                    if self.obs.sink.enabled() {
                        self.obs
                            .sink
                            .record(issued, EventKind::LlcEvict { line: victim.raw() });
                    }
                }
                if !llc_res.hit {
                    reached_dram = true;
                    served = ServedAt::Dram;
                    lat = self.fetch_line(core, line, kind, store, lat)?;
                }
            }
        }

        // Functional store for writes that never reached the MEE (cache
        // hits): write-through to the authoritative state.
        if let Some(digest) = store {
            match kind {
                RegionKind::ProtectedData => {
                    if !reached_dram {
                        self.mee.tree_mut().write(line, digest)?;
                    }
                }
                RegionKind::General => {
                    self.general_store.insert(line, digest);
                }
                RegionKind::IntegrityTree => unreachable!("guarded above"),
            }
        }

        let elapsed = self.advance_with_stalls(core, lat);
        let op = if store.is_some() {
            MemOpKind::Write
        } else {
            MemOpKind::Read
        };
        self.record_mem_op(core, proc, op, line, Some(served), elapsed);
        Ok((elapsed, line, kind))
    }

    /// The region of `pa`, refusing integrity-tree frames.
    fn data_region(&self, pa: PhysAddr) -> Result<RegionKind, ModelError> {
        let kind = self.layout.classify(pa)?;
        if kind == RegionKind::IntegrityTree {
            // Software can never map tree frames; defense in depth.
            return Err(ModelError::BadPhysAddr { pa });
        }
        Ok(kind)
    }

    /// The miss path below the LLC: the DRAM fetch of `line` and, for
    /// protected data, the MEE walk (a write walk when `store` carries a
    /// digest), setting [`Self::last_mee_hit`] and the walk's set metric.
    /// `lat` is the latency elapsed on this core before the fetch; returns
    /// it plus the fetch and the walk.
    fn fetch_line(
        &mut self,
        core: CoreId,
        line: LineAddr,
        kind: RegionKind,
        store: Option<u64>,
        mut lat: Cycles,
    ) -> Result<Cycles, ModelError> {
        lat += self.dram.access(line);
        if kind != RegionKind::ProtectedData {
            return Ok(lat);
        }
        // The walk reaches the MEE after the on-chip lookups and the data
        // fetch have elapsed on this core.
        let arrival = self.cores[core.index()].now + lat;
        // Split borrow: the walk needs the MEE, the DRAM model, and the
        // event sink at once.
        let Machine { mee, dram, obs, .. } = self;
        let hit_level = match store {
            Some(digest) => {
                let access = mee.write_traced(line, digest, arrival, dram, &mut obs.sink)?;
                lat += access.latency;
                access.hit_level
            }
            None => {
                let r = mee.read_traced(line, arrival, dram, &mut obs.sink)?;
                lat += r.access.latency;
                r.access.hit_level
            }
        };
        self.last_mee_hit = Some(hit_level);
        if self.obs.metrics.is_some() {
            if let Some(set) = self.mee.versions_set(line) {
                if let Some(m) = self.obs.metrics.as_mut() {
                    m.record_mee_set_walk(set);
                }
            }
        }
        Ok(lat)
    }

    /// Records one memory op that just took `elapsed` cycles on `core` in
    /// the event trace and the metrics (a no-op when tracing is off). The
    /// op was issued `elapsed` before the core's clock. A load or store
    /// (`served` is `Some`) carries the level [`Self::last_mee_hit`] names;
    /// a `clflush` carries none.
    #[inline]
    fn record_mem_op(
        &mut self,
        core: CoreId,
        proc: ProcId,
        op: MemOpKind,
        line: LineAddr,
        served: Option<ServedAt>,
        elapsed: Cycles,
    ) {
        if !self.obs.is_enabled() {
            return;
        }
        let issued = self.cores[core.index()].now - elapsed;
        let mee_level = served
            .and(self.last_mee_hit)
            .map(|h| WalkLevel::from_ladder_index(h.ladder_index()));
        self.obs.sink.record(
            issued,
            EventKind::MemOp {
                core: core.index() as u32,
                proc: proc.index() as u32,
                op,
                line: line.raw(),
                served,
                mee_level,
                latency: elapsed.raw(),
            },
        );
        if let Some(m) = self.obs.metrics.as_mut() {
            m.record_mem_op(
                core.index(),
                proc.index(),
                op,
                served,
                mee_level,
                elapsed.raw(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    const CORE0: CoreId = CoreId::new(0);
    const CORE1: CoreId = CoreId::new(1);

    fn machine() -> Machine {
        Machine::new(MachineConfig::small()).unwrap()
    }

    fn enclave_with_pages(m: &mut Machine, pages: usize) -> (ProcId, VirtAddr) {
        let p = m.create_process(AddressSpaceKind::Enclave);
        let base = VirtAddr::new(0x100_0000);
        m.map_pages(p, base, pages).unwrap();
        (p, base)
    }

    #[test]
    fn read_miss_then_hit_latencies() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        let cold = m.read(CORE0, p, base).unwrap();
        let warm = m.read(CORE0, p, base).unwrap();
        assert!(warm < cold);
        assert_eq!(warm, m.config().timing.l1_hit);
        // Cold protected read went through the MEE: root-walk territory.
        assert!(cold.raw() > 500, "cold read = {cold}");
    }

    #[test]
    fn clflush_forces_mee_visible_access() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        m.read(CORE0, p, base).unwrap();
        assert_eq!(m.mee().stats().reads, 1);
        // Cached: no MEE traffic.
        m.read(CORE0, p, base).unwrap();
        assert_eq!(m.mee().stats().reads, 1);
        // Flush the on-chip copy; the MEE cache keeps its tree lines.
        m.clflush(CORE0, p, base).unwrap();
        let lat = m.read(CORE0, p, base).unwrap();
        assert_eq!(m.mee().stats().reads, 2);
        // Versions line still cached in the MEE: the fast ~480-cycle path.
        let t = &m.config().timing;
        let nominal = t.protected_hit_latency(0);
        let diff = lat.raw() as i64 - nominal.raw() as i64;
        assert!(
            diff.abs() < 100,
            "versions-hit latency {lat} vs nominal {nominal}"
        );
    }

    #[test]
    fn cross_core_llc_sharing() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        m.read(CORE0, p, base).unwrap();
        // Core 1 misses L1/L2 but hits the shared LLC.
        let lat = m.read(CORE1, p, base).unwrap();
        let t = &m.config().timing;
        assert_eq!(lat, t.l1_hit + t.l2_hit + t.llc_hit);
    }

    #[test]
    fn rdtsc_faults_in_enclave_only() {
        let mut m = machine();
        let (e, _) = enclave_with_pages(&mut m, 1);
        let r = m.create_process(AddressSpaceKind::Regular);
        assert!(matches!(
            m.rdtsc(CORE0, e),
            Err(ModelError::IllegalInEnclave {
                instruction: "rdtsc"
            })
        ));
        assert!(m.rdtsc(CORE0, r).is_ok());
    }

    #[test]
    fn hugepages_refused_for_enclaves() {
        let mut m = machine();
        let e = m.create_process(AddressSpaceKind::Enclave);
        let r = m.create_process(AddressSpaceKind::Regular);
        let base = VirtAddr::new(0x200_0000);
        assert!(m.map_pages_contiguous(e, base, 4).is_err());
        m.map_pages_contiguous(r, base, 4).unwrap();
        // Contiguity check.
        let pa0 = m.translate(r, base).unwrap();
        let pa3 = m.translate(r, base + 3 * PAGE_SIZE as u64).unwrap();
        assert_eq!(pa3 - pa0, 3 * PAGE_SIZE as u64);
    }

    #[test]
    fn enclave_pages_live_in_prm_and_scatter() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 16);
        let mut sequential_pairs = 0;
        let mut prev = None;
        for i in 0..16u64 {
            let pa = m.translate(p, base + i * PAGE_SIZE as u64).unwrap();
            assert!(m.layout().prm_data().contains(pa));
            if let Some(prev) = prev {
                if pa > prev && pa - prev == PAGE_SIZE as u64 {
                    sequential_pairs += 1;
                }
            }
            prev = Some(pa);
        }
        assert!(sequential_pairs < 8, "frames not scattered");
    }

    #[test]
    fn timer_read_is_quantized_and_cheap() {
        let mut m = machine();
        m.advance(CORE0, Cycles::new(1234));
        let ts = m.timer_read(CORE0);
        assert_eq!(ts.raw() % m.config().timer_quantum, 0);
        assert!(ts.raw() <= 1234);
        assert!(1234 - ts.raw() < m.config().timer_quantum);
        // Cost: ~50 cycles.
        assert_eq!(
            m.core_now(CORE0),
            Cycles::new(1234) + m.config().timing.timer_read
        );
    }

    #[test]
    fn ocall_timestamp_is_expensive() {
        let mut m = machine();
        let before = m.core_now(CORE0);
        let ts = m.ocall_rdtsc(CORE0);
        let elapsed = ts - before;
        assert!(
            (8_000..=15_000).contains(&elapsed.raw()),
            "ocall = {elapsed}"
        );
    }

    #[test]
    fn busy_until_reaches_deadline() {
        let mut m = machine();
        m.busy_until(CORE0, Cycles::new(50_000));
        assert_eq!(m.core_now(CORE0), Cycles::new(50_000));
        // No-op when already past.
        m.busy_until(CORE0, Cycles::new(10));
        assert_eq!(m.core_now(CORE0), Cycles::new(50_000));
    }

    #[test]
    fn write_then_read_value_roundtrip() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        m.write(CORE0, p, base + 64, 0xfeed).unwrap();
        let (_, v) = m.read_value(CORE0, p, base + 64).unwrap();
        assert_eq!(v, 0xfeed);
        // General-region store too.
        let r = m.create_process(AddressSpaceKind::Regular);
        let gbase = VirtAddr::new(0x900_0000);
        m.map_pages(r, gbase, 1).unwrap();
        m.write(CORE0, r, gbase, 77).unwrap();
        assert_eq!(m.read_value(CORE0, r, gbase).unwrap().1, 77);
    }

    #[test]
    fn unmapped_access_faults() {
        let mut m = machine();
        let p = m.create_process(AddressSpaceKind::Regular);
        assert!(matches!(
            m.read(CORE0, p, VirtAddr::new(0x1000)),
            Err(ModelError::PageFault { .. })
        ));
    }

    #[test]
    fn general_reads_never_touch_mee() {
        let mut m = machine();
        let r = m.create_process(AddressSpaceKind::Regular);
        let base = VirtAddr::new(0x800_0000);
        m.map_pages(r, base, 8).unwrap();
        for i in 0..8u64 {
            m.read(CORE0, r, base + i * PAGE_SIZE as u64).unwrap();
        }
        assert_eq!(m.mee().stats().reads, 0);
        assert_eq!(m.mee().cache().occupancy(), 0);
    }

    #[test]
    fn per_core_clocks_are_independent() {
        let mut m = machine();
        m.advance(CORE0, Cycles::new(100));
        assert_eq!(m.core_now(CORE0), Cycles::new(100));
        assert_eq!(m.core_now(CORE1), Cycles::ZERO);
    }

    /// Foreign ids surface as typed errors on every fallible instruction
    /// path, never as index panics (spec-harness invariant `prm-bounds`).
    #[test]
    fn foreign_ids_yield_typed_errors() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        let bad_core = CoreId::new(m.core_count() + 3);
        assert!(matches!(
            m.read(bad_core, p, base),
            Err(ModelError::NoSuchCore { .. })
        ));
        assert!(matches!(
            m.write(bad_core, p, base, 1),
            Err(ModelError::NoSuchCore { .. })
        ));
        assert!(matches!(
            m.clflush(bad_core, p, base),
            Err(ModelError::NoSuchCore { .. })
        ));
        // A ProcId from a bigger machine: mint one legitimately elsewhere.
        let mut other = machine();
        for _ in 0..3 {
            other.create_process(AddressSpaceKind::Regular);
        }
        let foreign = other.create_process(AddressSpaceKind::Regular);
        assert!(matches!(
            m.read(CORE0, foreign, base),
            Err(ModelError::NoSuchProcess { .. })
        ));
        assert!(matches!(
            m.rdtsc(CORE0, foreign),
            Err(ModelError::NoSuchProcess { .. })
        ));
        assert!(matches!(
            m.map_pages(foreign, base, 1),
            Err(ModelError::NoSuchProcess { .. })
        ));
        assert!(matches!(
            m.translate(foreign, base),
            Err(ModelError::NoSuchProcess { .. })
        ));
    }

    #[test]
    fn map_rejects_unaligned_base() {
        let mut m = machine();
        let p = m.create_process(AddressSpaceKind::Regular);
        assert!(m.map_pages(p, VirtAddr::new(0x123), 1).is_err());
    }

    #[test]
    fn preempt_jumps_the_clock_without_work() {
        let mut m = machine();
        m.advance(CORE0, Cycles::new(100));
        m.preempt_until(CORE0, Cycles::new(30_000));
        assert_eq!(m.core_now(CORE0), Cycles::new(30_000));
        assert_eq!(m.core_now(CORE1), Cycles::ZERO, "other cores unaffected");
        // A core already past the resume point absorbed the burst in a sleep.
        m.preempt_until(CORE0, Cycles::new(10_000));
        assert_eq!(m.core_now(CORE0), Cycles::new(30_000));
        // Clock drift is additive even then.
        m.skew_clock(CORE0, Cycles::new(250));
        assert_eq!(m.core_now(CORE0), Cycles::new(30_250));
    }

    #[test]
    fn flush_private_caches_spares_llc_and_other_cores() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        m.read(CORE0, p, base).unwrap();
        m.read(CORE1, p, base).unwrap();
        let line = m.translate(p, base).unwrap().line();
        m.flush_private_caches(CORE0);
        // Core 0's private copies are gone; LLC and core 1 keep theirs.
        assert!(m.llc.contains(line));
        assert!(!m.cores[0].l1.contains(line) && !m.cores[0].l2.contains(line));
        assert!(m.cores[1].l1.contains(line));
        assert!(m.check_inclusion().is_none());
    }

    #[test]
    fn mee_flush_and_set_thrash_force_deeper_walks() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 1);
        m.read(CORE0, p, base).unwrap();
        assert!(m.mee().cache().occupancy() > 0);
        m.flush_mee_cache();
        assert_eq!(m.mee().cache().occupancy(), 0);
        // Refill, then thrash exactly the versions set.
        m.clflush(CORE0, p, base).unwrap();
        m.read(CORE0, p, base).unwrap();
        let geo = *m.mee().geometry();
        let sets = m.mee().cache().config().sets;
        let line = m.translate(p, base).unwrap().line();
        let vset = geo
            .version_line(geo.walk_path(line).version)
            .set_index(sets);
        assert!(m.thrash_mee_set(vset) > 0);
        // The versions line is gone: the next flushed read misses Versions.
        m.clflush(CORE0, p, base).unwrap();
        m.read(CORE0, p, base).unwrap();
        assert_ne!(m.last_mee_hit(), Some(mee_engine::HitLevel::Versions));
    }

    #[test]
    fn epc_evict_drops_page_lines_and_walk_footprint() {
        let mut m = machine();
        let (p, base) = enclave_with_pages(&mut m, 2);
        m.read(CORE0, p, base).unwrap();
        let line = m.translate(p, base).unwrap().line();
        let dropped = m.epc_evict_page(p, base).unwrap();
        assert!(dropped > 0, "walk footprint should have been resident");
        assert!(!m.line_cached_anywhere(line));
        // The page stays mapped: the next access re-walks, not faults, and
        // misses the versions level (fresh counters after ELDU).
        m.read(CORE0, p, base).unwrap();
        assert_ne!(m.last_mee_hit(), Some(mee_engine::HitLevel::Versions));
        // Unaligned / unmapped targets are rejected.
        assert!(m.epc_evict_page(p, base + 64u64).is_err());
        assert!(m.epc_evict_page(p, VirtAddr::new(0xdead_d000)).is_err());
    }

    /// The translation memo can never serve a stale entry: under random
    /// interleavings of mapping mutations (map/unmap/EPC-evict) with
    /// memory ops, a machine with a tiny aliasing-prone memo stays
    /// bit-identical — op results, latencies, page-fault errors, and every
    /// live translation — to one that walks the page tables on every op.
    #[test]
    fn translation_memo_matches_unmemoised_machine_under_mutations() {
        use mee_rng::prop::{check, pick, PropConfig};
        check(
            "translation_memo_matches_unmemoised_machine_under_mutations",
            &PropConfig::from_env(32),
            |rng| {
                let mk = |tlb_entries: usize| {
                    let mut cfg = MachineConfig::small();
                    // 4 slots over a 16-page pool forces constant slot
                    // aliasing — the hardest regime for stale entries.
                    cfg.tlb_entries = tlb_entries;
                    Machine::new(cfg).unwrap()
                };
                let mut memo = mk(4);
                let mut plain = mk(0);
                let pm = memo.create_process(AddressSpaceKind::Enclave);
                let pp = plain.create_process(AddressSpaceKind::Enclave);
                let base = 0x100_0000u64;
                const SLOTS: usize = 16;
                let mut mapped = [false; SLOTS];
                let page = |s: usize| VirtAddr::new(base + (s * PAGE_SIZE) as u64);
                let show = |r: Result<Cycles, ModelError>| r.map_err(|e| e.to_string());
                for _ in 0..rng.random_range(30usize..120) {
                    let s = rng.random_range(0usize..SLOTS);
                    let va = page(s) + 64 * rng.random_range(0u64..64);
                    match pick(rng, &[0u8, 1, 2, 3, 4, 5]) {
                        0 if !mapped[s] => {
                            memo.map_pages(pm, page(s), 1).unwrap();
                            plain.map_pages(pp, page(s), 1).unwrap();
                            mapped[s] = true;
                        }
                        1 if mapped[s] => {
                            memo.unmap_pages(pm, page(s), 1).unwrap();
                            plain.unmap_pages(pp, page(s), 1).unwrap();
                            mapped[s] = false;
                        }
                        2 => {
                            let a = memo.epc_evict_page(pm, page(s));
                            let b = plain.epc_evict_page(pp, page(s));
                            assert_eq!(a.map_err(|e| e.to_string()), b.map_err(|e| e.to_string()));
                        }
                        3 => {
                            let digest = rng.random();
                            assert_eq!(
                                show(memo.write(CORE0, pm, va, digest)),
                                show(plain.write(CORE0, pp, va, digest))
                            );
                        }
                        4 => assert_eq!(
                            show(memo.clflush(CORE0, pm, va)),
                            show(plain.clflush(CORE0, pp, va))
                        ),
                        _ => assert_eq!(
                            show(memo.read(CORE0, pm, va)),
                            show(plain.read(CORE0, pp, va))
                        ),
                    }
                    // Every live translation agrees after every step —
                    // a stale memo entry would surface here even if the
                    // faulting op's latency happened to match.
                    for (slot, &is_mapped) in mapped.iter().enumerate() {
                        let a = memo.translate(pm, page(slot));
                        let b = plain.translate(pp, page(slot));
                        assert_eq!(a.is_ok(), is_mapped, "slot {slot} mapping lost");
                        assert_eq!(
                            a.map_err(|e| e.to_string()),
                            b.map_err(|e| e.to_string()),
                            "translation diverged for slot {slot}"
                        );
                    }
                }
                assert_eq!(memo.core_now(CORE0), plain.core_now(CORE0));
            },
        );
    }

    /// Both sweep-pair paths must remain the split `read` + `clflush`
    /// sequence, op for op. Twin machines run the same workload: machine A
    /// issues every pair through `sweep_read_flush` or `read_flush`,
    /// machine B as a literal `read` then `clflush`, and after every step
    /// latencies, errors, both cores' clocks, every cache's statistics,
    /// residency and the MEE state must agree.
    ///
    /// The hierarchy has one set per level, so pairs alternate between the
    /// one-pass path (every level has a free way) and the split fallback,
    /// including the ordering a per-level fusion gets wrong: an LLC victim
    /// back-invalidating a line the sweeping core still caches, whose
    /// private set (power-of-two set counts) is the swept line's, so
    /// flushing the swept line before the back-invalidation would leave
    /// different policy state than the split order. A second core keeps
    /// private copies of pool lines, every policy runs at L1/L2 (the MEE
    /// policy) and at the LLC, a tampered version counter makes some pairs
    /// fail with `IntegrityViolation` mid-walk, and some twins trace, with
    /// equal event rings and metrics demanded. The test requires the
    /// victim scenario, both paths, a failing pair and a traced twin to
    /// actually occur: a fixed case that forces each of them runs ahead of
    /// the random ones, so they occur at any case count and under a
    /// one-case `MEE_PROP_SEED` replay.
    #[test]
    fn sweep_matches_split_under_l1_resident_llc_victims() {
        use crate::config::PolicyKind;
        use mee_cache::CacheConfig;
        use mee_rng::prop::{check, pick, PropConfig};
        use mee_tree::TreeLevel;
        use std::cell::Cell;

        const POLICIES: [PolicyKind; 4] = [
            PolicyKind::TreePlru,
            PolicyKind::TrueLru,
            PolicyKind::Srrip,
            PolicyKind::Random { seed: 7 },
        ];
        const POOL: usize = 10;
        /// One step of the twins' workload, over pool slots.
        enum Op {
            /// A sweep over the slots, reversed if the flag is set.
            Sweep(Vec<usize>, bool),
            ReadFlush(usize),
            /// Corrupt the slot's version counter in "DRAM" on both
            /// machines: its next walk fails.
            Tamper(usize),
            /// A plain (unflushed) read, so the private caches retain
            /// eviction candidates.
            Read(CoreId, usize),
        }
        let victim_fired = Cell::new(false);
        let one_pass = Cell::new(0usize);
        let fallback = Cell::new(0usize);
        let violations = Cell::new(0usize);
        let traced = Cell::new(0usize);
        let run = |mee_policy: PolicyKind, llc_policy: PolicyKind, tracing: bool, ops: &[Op]| {
            let mk = || {
                let mut cfg = MachineConfig::small();
                let one_set = |ways| CacheConfig {
                    sets: 1,
                    ways,
                    line_size: 64,
                };
                cfg.l1 = one_set(4);
                cfg.l2 = one_set(4);
                cfg.llc = one_set(8);
                cfg.mee_policy = mee_policy;
                cfg.llc_policy = llc_policy;
                let mut m = Machine::new(cfg).unwrap();
                if tracing {
                    m.enable_tracing(1 << 16);
                }
                m
            };
            let mut a = mk(); // pairs through sweep_read_flush / read_flush
            let mut b = mk(); // pairs as a split read + clflush
            let proc_a = a.create_process(AddressSpaceKind::Enclave);
            let proc_b = b.create_process(AddressSpaceKind::Enclave);
            let base = VirtAddr::new(0x100_0000);
            a.map_pages(proc_a, base, POOL).unwrap();
            b.map_pages(proc_b, base, POOL).unwrap();
            let addr = |s: usize| base + (s * PAGE_SIZE) as u64;
            let lines: Vec<LineAddr> = (0..POOL)
                .map(|s| a.translate(proc_a, addr(s)).unwrap().line())
                .collect();
            let residency = |m: &Machine, line: LineAddr| {
                (
                    m.core_caches_line(CORE0, line),
                    m.core_caches_line(CORE1, line),
                    m.llc().contains(line),
                )
            };
            let show = |r: Result<Cycles, ModelError>| r.map_err(|e| e.to_string());
            // The split pair on B: the flush runs only if the load did.
            let split_pair = |b: &mut Machine, va: VirtAddr| -> Result<Cycles, ModelError> {
                let read = b.read(CORE0, proc_b, va)?;
                b.clflush(CORE0, proc_b, va)?;
                Ok(read)
            };

            for op in ops {
                match *op {
                    Op::Sweep(ref slots, rev) => {
                        let addrs: Vec<VirtAddr> = slots.iter().map(|&s| addr(s)).collect();
                        let before: Vec<_> = lines.iter().map(|&l| residency(&a, l)).collect();
                        let batch = show(a.sweep_read_flush(CORE0, proc_a, &addrs, rev));
                        let order: Vec<VirtAddr> = if rev {
                            addrs.iter().rev().copied().collect()
                        } else {
                            addrs.clone()
                        };
                        let mut split = Ok(Cycles::ZERO);
                        for &va in &order {
                            let read = b.read(CORE0, proc_b, va);
                            split = match (split, read) {
                                (Ok(total), Ok(read)) => {
                                    Ok(total + read + b.clflush(CORE0, proc_b, va).unwrap())
                                }
                                (_, Err(e)) => Err(e),
                                (Err(e), _) => Err(e),
                            };
                            if split.is_err() {
                                break;
                            }
                        }
                        assert_eq!(batch, show(split), "batch diverged from split");
                        let swept: Vec<LineAddr> = order
                            .iter()
                            .map(|&va| b.translate(proc_b, va).unwrap().line())
                            .collect();
                        for (i, &l) in lines.iter().enumerate() {
                            let (was_private, _, was_llc) = before[i];
                            if was_private && was_llc && !a.llc().contains(l) && !swept.contains(&l)
                            {
                                // An LLC eviction back-invalidated a line the
                                // sweeping core still held privately.
                                victim_fired.set(true);
                            }
                        }
                    }
                    Op::ReadFlush(s) => {
                        let va = addr(s);
                        let line = a.translate(proc_a, va).unwrap().line();
                        let c = &a.cores[0];
                        let free = c.l1.free_way(line).is_some()
                            && c.l2.free_way(line).is_some()
                            && a.llc.free_way(line).is_some();
                        let counter = if free { &one_pass } else { &fallback };
                        counter.set(counter.get() + 1);
                        let got = show(a.read_flush(CORE0, proc_a, va));
                        if got.is_err() {
                            violations.set(violations.get() + 1);
                        }
                        assert_eq!(got, show(split_pair(&mut b, va)), "read_flush diverged");
                    }
                    Op::Tamper(s) => {
                        for (m, p) in [(&mut a, proc_a), (&mut b, proc_b)] {
                            let pa = m.translate(p, addr(s)).unwrap();
                            let geo = *m.mee().geometry();
                            let node = geo.walk_path(pa.line()).version;
                            m.mee_mut()
                                .tree_mut()
                                .tamper_counter(TreeLevel::Version, node);
                        }
                    }
                    Op::Read(core, s) => {
                        let va = addr(s);
                        assert_eq!(
                            show(a.read(core, proc_a, va)),
                            show(b.read(core, proc_b, va))
                        );
                    }
                }
                for core in [CORE0, CORE1] {
                    assert_eq!(a.core_now(core), b.core_now(core));
                    let (ca, cb) = (&a.cores[core.index()], &b.cores[core.index()]);
                    assert_eq!(ca.l1.stats(), cb.l1.stats());
                    assert_eq!(ca.l2.stats(), cb.l2.stats());
                }
                assert_eq!(a.llc().stats(), b.llc().stats());
                assert_eq!(a.mee().stats(), b.mee().stats());
                assert_eq!(a.last_mee_hit(), b.last_mee_hit());
                for &l in &lines {
                    assert_eq!(residency(&a, l), residency(&b, l));
                }
            }
            // Policy state, read back through the victims of a burst
            // of plain reads over the whole pool.
            for s in 0..POOL {
                assert_eq!(
                    show(a.read(CORE0, proc_a, addr(s))),
                    show(b.read(CORE0, proc_b, addr(s)))
                );
                for &l in &lines {
                    assert_eq!(residency(&a, l), residency(&b, l));
                }
            }
            if tracing {
                traced.set(traced.get() + 1);
                assert_eq!(a.obs().events(), b.obs().events(), "event rings diverged");
                assert_eq!(a.obs().metrics, b.obs().metrics, "metrics diverged");
            }
        };

        // The fixed case, traced, with an LRU LLC so the victim is known:
        // a pair on the cold hierarchy takes the one-pass path; slot 9's
        // first walk reads its tampered counter and fails; core 1 fills
        // the LLC behind core 0's private slot 1, so sweeping slot 0
        // evicts slot 1; four plain reads fill core 0's L1, so the last
        // pair falls back.
        let mut forced = vec![Op::Tamper(9), Op::ReadFlush(0), Op::ReadFlush(9)];
        forced.push(Op::Read(CORE0, 1));
        forced.extend((2..=8).map(|s| Op::Read(CORE1, s)));
        forced.push(Op::Sweep(vec![0], false));
        forced.extend((2..=5).map(|s| Op::Read(CORE0, s)));
        forced.push(Op::ReadFlush(6));
        run(PolicyKind::TreePlru, PolicyKind::TrueLru, true, &forced);

        check(
            "sweep_matches_split_under_l1_resident_llc_victims",
            &PropConfig::from_env(24),
            |rng| {
                let mee_policy = pick(rng, &POLICIES);
                let llc_policy = pick(rng, &POLICIES);
                let tracing = rng.random_range(0u8..3) == 0;
                let ops: Vec<Op> = (0..rng.random_range(20usize..60))
                    .map(|_| match rng.random_range(0u8..16) {
                        0..=3 => {
                            // A sweep over 1–3 pool slots, either direction.
                            let n = rng.random_range(1usize..4);
                            let slots = (0..n).map(|_| rng.random_range(0usize..POOL)).collect();
                            Op::Sweep(slots, rng.random_range(0u8..2) == 1)
                        }
                        4..=5 => Op::ReadFlush(rng.random_range(0usize..POOL)),
                        6 => Op::Tamper(rng.random_range(0usize..POOL)),
                        op => {
                            let core = if op >= 14 { CORE1 } else { CORE0 };
                            Op::Read(core, rng.random_range(0usize..POOL))
                        }
                    })
                    .collect();
                run(mee_policy, llc_policy, tracing, &ops);
            },
        );
        assert!(
            victim_fired.get(),
            "workloads never exercised an LLC eviction back-invalidating a \
             privately cached line mid-sweep"
        );
        assert!(one_pass.get() > 0, "no pair took the one-pass path");
        assert!(fallback.get() > 0, "no pair took the split fallback");
        assert!(violations.get() > 0, "no pair failed its walk");
        assert!(traced.get() > 0, "no twin ran with tracing on");
    }
}
