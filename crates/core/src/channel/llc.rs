//! A classic LLC Prime+Probe covert channel (Liu et al., cited as \[7\]) —
//! the related-work baseline the paper positions itself against.
//!
//! Two *regular* (non-enclave) processes on different cores: outside SGX,
//! hugepages are available, so the spy maps a physically contiguous buffer,
//! computes an LLC eviction set for one cache set analytically, and runs
//! textbook Prime+Probe. This channel is much faster than the MEE channel
//! (no MEE walk per probe, smaller windows) — the paper concedes "other
//! covert channel attacks have demonstrated higher bit rate" — but it lives
//! in the LLC, where occupancy/eviction-based defenses watch; the
//! [`stealth`](crate::experiments::stealth) experiment quantifies the
//! difference in footprint.

use mee_machine::{NoopHook, ProcId};
use mee_mem::AddressSpaceKind;
use mee_types::{Cycles, ModelError, VirtAddr, LINE_SIZE, PAGE_SIZE};

use crate::channel::prime_probe::{MidWindowTouch, SetProbe};
use crate::channel::windowed::{run_windows, Schedule, TransmitOutcome};
use crate::setup::AttackSetup;

/// An established LLC Prime+Probe channel between two regular processes.
#[derive(Debug, Clone)]
pub struct LlcSession {
    /// The spy's regular process.
    pub spy_proc: ProcId,
    /// The trojan's regular process.
    pub trojan_proc: ProcId,
    /// The spy's LLC eviction set (one address per way).
    pub eviction_set: Vec<VirtAddr>,
    /// The trojan's conflicting address.
    pub target: VirtAddr,
    /// Window size per bit.
    pub window: Cycles,
    /// Probe-time decode threshold.
    pub probe_threshold: Cycles,
}

impl LlcSession {
    /// Establishes the channel: maps hugepage-backed buffers for both
    /// parties and computes the eviction set analytically from physical
    /// contiguity (the very capability SGX withholds — challenge 3).
    ///
    /// # Errors
    ///
    /// Propagates allocation and translation errors; returns
    /// [`ModelError::InvalidConfig`] for a zero window.
    pub fn establish(setup: &mut AttackSetup, window: Cycles) -> Result<Self, ModelError> {
        if window == Cycles::ZERO {
            return Err(ModelError::InvalidConfig {
                reason: "window must be non-zero".into(),
            });
        }
        let llc = setup.machine.llc().config();
        let ways = llc.ways;
        let sets = llc.sets;
        // Contiguous span covering `ways` lines of one set: ways × sets
        // lines.
        let span_pages = (ways * sets * LINE_SIZE).div_ceil(PAGE_SIZE) + 1;

        // With physical contiguity, the set index of any VA is computable
        // from the base alignment (hugepage bases are known-aligned; here we
        // read the translation once, as real attackers read /proc or probe).
        // Each party maps its buffer and takes its first line in the target
        // set.
        let (sets, target_set) = (sets as u64, 0x2a % sets as u64);
        let mut map = |base: VirtAddr| -> Result<(ProcId, VirtAddr), ModelError> {
            let proc = setup.machine.create_process(AddressSpaceKind::Regular);
            setup.machine.map_pages_contiguous(proc, base, span_pages)?;
            let pa_line = setup.machine.translate(proc, base)?.line().raw();
            let align = (target_set + sets - pa_line % sets) % sets;
            Ok((proc, base + align * LINE_SIZE as u64))
        };
        let (spy_proc, spy_first) = map(VirtAddr::new(0x4000_0000))?;
        let (trojan_proc, target) = map(VirtAddr::new(0x5000_0000))?;
        let eviction_set: Vec<VirtAddr> = (0..ways as u64)
            .map(|w| spy_first + w * sets * LINE_SIZE as u64)
            .collect();

        // Calibrate: all-hit probe sweeps (no flushes — the lines alias in
        // L1/L2 and keep falling through to the LLC) vs the DRAM penalty of
        // one miss.
        let mut quiet_total = 0u64;
        let reps = 8u64;
        {
            for &a in &eviction_set {
                setup.machine.read(setup.spy.core, spy_proc, a)?;
            }
            for _ in 0..reps {
                let t1 = setup.machine.timer_read(setup.spy.core);
                for &a in &eviction_set {
                    setup.machine.read(setup.spy.core, spy_proc, a)?;
                }
                let t2 = setup.machine.timer_read(setup.spy.core);
                quiet_total += t2.saturating_sub(t1).raw();
            }
        }
        let t = &setup.machine.config().timing;
        let miss_penalty = (t.dram_row_hit + t.dram_row_miss) / 2;
        let probe_threshold = Cycles::new(quiet_total / reps) + miss_penalty / 2;

        Ok(LlcSession {
            spy_proc,
            trojan_proc,
            eviction_set,
            target,
            window,
            probe_threshold,
        })
    }

    /// Transmits `bits`, one per window, using the spy/trojan cores of
    /// `setup` but the regular processes of this session.
    ///
    /// # Errors
    ///
    /// Propagates machine errors; returns [`ModelError::InvalidConfig`] for
    /// a zero window.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<TransmitOutcome, ModelError> {
        let schedule = Schedule::agree(
            &setup.machine,
            setup.spy.core,
            setup.trojan.core,
            self.window,
        )?;
        // No flushes: the eviction set's lines alias in the (smaller) L1/L2
        // sets, so probe accesses naturally fall through to the LLC.
        let (probe, _) = run_windows(
            &mut setup.machine,
            schedule,
            bits.len(),
            (
                setup.spy.core,
                self.spy_proc,
                SetProbe::new(self.eviction_set.clone(), false),
            ),
            (
                setup.trojan.core,
                self.trojan_proc,
                MidWindowTouch::new(self.target, bits.to_vec()),
            ),
            &mut [],
            &mut NoopHook,
        )?;
        Ok(TransmitOutcome::new(
            &setup.machine,
            schedule,
            bits.len(),
            bits,
            probe.decode(self.probe_threshold),
            probe.probe_times(),
            &[],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::random_bits;

    #[test]
    fn eviction_set_really_collides_in_one_llc_set() {
        let mut setup = AttackSetup::quiet(311).unwrap();
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let sets = setup.machine.llc().config().sets;
        let set_of = |proc, va| {
            setup
                .machine
                .translate(proc, va)
                .unwrap()
                .line()
                .set_index(sets)
        };
        let expected = set_of(session.trojan_proc, session.target);
        for &a in &session.eviction_set {
            assert_eq!(set_of(session.spy_proc, a), expected);
        }
        assert_eq!(
            session.eviction_set.len(),
            setup.machine.llc().config().ways
        );
    }

    #[test]
    fn llc_channel_communicates_and_is_faster() {
        let mut setup = AttackSetup::quiet(312).unwrap();
        // 4000-cycle windows: ~131 KBps, far above the MEE channel's 35.
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let bits = random_bits(64, 312);
        let out = session.transmit(&mut setup, &bits).unwrap();
        assert_eq!(out.received, bits, "LLC channel miscommunicated");
        assert!(out.kbps > 100.0, "kbps = {}", out.kbps);
    }

    #[test]
    fn zero_window_is_rejected() {
        let mut setup = AttackSetup::quiet(314).unwrap();
        assert!(matches!(
            LlcSession::establish(&mut setup, Cycles::ZERO),
            Err(ModelError::InvalidConfig { .. })
        ));
        // The window is a public field, so transmit checks it too.
        let mut session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        session.window = Cycles::ZERO;
        assert!(matches!(
            session.transmit(&mut setup, &[true, false]),
            Err(ModelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn llc_channel_under_noise() {
        let mut setup = AttackSetup::new(313).unwrap();
        let session = LlcSession::establish(&mut setup, Cycles::new(4_000)).unwrap();
        let bits = random_bits(256, 313);
        let out = session.transmit(&mut setup, &bits).unwrap();
        assert!(out.errors.rate() < 0.08, "error rate {}", out.errors.rate());
    }
}
