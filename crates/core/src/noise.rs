//! Noise programs standing in for the paper's §5.4 "noisy environments".
//!
//! * [`MeeNoiseActor`] — another tenant on a third physical core constantly
//!   loading fresh integrity-tree data through the MEE cache, at either a
//!   512 B or 4 KiB stride (Figure 8(c)/(d)). Different strides pollute the
//!   MEE cache differently: 512 B walks the versions region sequentially,
//!   4 KiB jumps pages and drags L0/L1 lines in too.
//! * [`MemStressActor`] — the `stress-ng`-like load: hammers ordinary
//!   (non-enclave) memory, thrashing the LLC and DRAM but never touching
//!   the MEE (Figure 8(b) — "minimal impact since the MEE cache is not
//!   accessed").

use mee_machine::{Actor, CoreHandle, Machine, ProcId, StepOutcome};
use mee_mem::AddressSpaceKind;
use mee_types::{ModelError, VirtAddr, PAGE_SIZE};

use crate::setup::AttackSetup;

/// An enclave tenant sweeping its own protected buffer at a fixed stride,
/// keeping the MEE cache under pressure. Runs until the scheduler horizon.
#[derive(Debug)]
pub struct MeeNoiseActor {
    base: VirtAddr,
    stride: usize,
    span: usize,
    cursor: usize,
}

impl MeeNoiseActor {
    /// Creates the noise tenant: maps `pages` enclave pages for `proc` and
    /// sweeps them at `stride` bytes.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors; rejects strides that are not positive
    /// multiples of 64.
    pub fn install(
        machine: &mut Machine,
        stride: usize,
        pages: usize,
        base: VirtAddr,
    ) -> Result<(ProcId, Self), ModelError> {
        if stride == 0 || !stride.is_multiple_of(64) {
            return Err(ModelError::InvalidConfig {
                reason: format!("noise stride {stride} must be a positive multiple of 64"),
            });
        }
        let proc = machine.create_process(AddressSpaceKind::Enclave);
        machine.map_pages(proc, base, pages)?;
        Ok((
            proc,
            MeeNoiseActor {
                base,
                stride,
                span: pages * PAGE_SIZE,
                cursor: 0,
            },
        ))
    }

    /// Convenience for [`AttackSetup`]: installs the noise tenant at a fresh
    /// scratch range.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn install_on(
        setup: &mut AttackSetup,
        stride: usize,
        pages: usize,
    ) -> Result<(ProcId, Self), ModelError> {
        // Scratch from a brand-new process keeps the address spaces apart.
        let base = VirtAddr::new(0x7000_0000);
        Self::install(&mut setup.machine, stride, pages, base)
    }
}

impl Actor for MeeNoiseActor {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        let va = self.base + self.cursor as u64;
        cpu.read_flush(va)?;
        self.cursor = (self.cursor + self.stride) % self.span;
        Ok(StepOutcome::Running)
    }
}

/// A regular (non-enclave) process chasing through a large ordinary buffer,
/// saturating LLC and DRAM bandwidth without involving the MEE.
#[derive(Debug)]
pub struct MemStressActor {
    base: VirtAddr,
    span: usize,
    cursor: usize,
    /// Large odd stride so successive lines map to different sets/banks.
    stride: usize,
}

impl MemStressActor {
    /// Creates the stress process with `pages` of general memory.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn install(
        machine: &mut Machine,
        pages: usize,
        base: VirtAddr,
    ) -> Result<(ProcId, Self), ModelError> {
        let proc = machine.create_process(AddressSpaceKind::Regular);
        machine.map_pages(proc, base, pages)?;
        Ok((
            proc,
            MemStressActor {
                base,
                span: pages * PAGE_SIZE,
                cursor: 0,
                stride: 64 * 97, // co-prime with set counts: scatters widely
            },
        ))
    }

    /// Convenience for [`AttackSetup`].
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn install_on(setup: &mut AttackSetup, pages: usize) -> Result<(ProcId, Self), ModelError> {
        Self::install(&mut setup.machine, pages, VirtAddr::new(0x7800_0000))
    }
}

impl Actor for MemStressActor {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        let va = self.base + self.cursor as u64;
        cpu.read_flush(va)?;
        self.cursor = (self.cursor + self.stride) % self.span;
        Ok(StepOutcome::Running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_machine::{run_actor_refs_hooked, CoreId, NoopHook};
    use mee_types::Cycles;

    #[test]
    fn mee_noise_pressures_the_mee_cache() {
        let mut setup = AttackSetup::quiet(91).unwrap();
        let (proc, mut actor) = MeeNoiseActor::install_on(&mut setup, 512, 64).unwrap();
        let before = setup.machine.mee().stats().reads;
        let mut actors: Vec<mee_machine::ActorRef<'_>> = vec![(CoreId::new(2), proc, &mut actor)];
        run_actor_refs_hooked(
            &mut setup.machine,
            &mut actors,
            Cycles::new(200_000),
            &mut NoopHook,
        )
        .unwrap();
        let after = setup.machine.mee().stats().reads;
        assert!(after > before + 100, "only {} MEE reads", after - before);
    }

    #[test]
    fn mem_stress_never_touches_the_mee() {
        let mut setup = AttackSetup::quiet(92).unwrap();
        let (proc, mut actor) = MemStressActor::install_on(&mut setup, 128).unwrap();
        let before = setup.machine.mee().stats().reads;
        let mut actors: Vec<mee_machine::ActorRef<'_>> = vec![(CoreId::new(2), proc, &mut actor)];
        run_actor_refs_hooked(
            &mut setup.machine,
            &mut actors,
            Cycles::new(200_000),
            &mut NoopHook,
        )
        .unwrap();
        assert_eq!(setup.machine.mee().stats().reads, before);
        // But it does hammer the LLC.
        assert!(setup.machine.llc().stats().misses > 100);
    }

    #[test]
    fn bad_stride_rejected() {
        let mut setup = AttackSetup::quiet(93).unwrap();
        assert!(MeeNoiseActor::install_on(&mut setup, 100, 8).is_err());
        assert!(MeeNoiseActor::install_on(&mut setup, 0, 8).is_err());
    }
}
