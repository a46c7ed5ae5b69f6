//! The Prime+Probe baseline that fails over the MEE cache (paper §5.2,
//! Figure 6a).
//!
//! Classic LLC Prime+Probe, ported directly: the **spy** owns the
//! 8-address eviction set, primes the whole set, and probes all 8 ways every
//! window; the **trojan** touches a single conflicting address to send `1`.
//! The probe must make 8 protected-region reads, each of which reaches main
//! memory *whether or not* the MEE cache hits — so the probe costs over
//! 3500 cycles while the hit/miss signal is only ~300 cycles, and the
//! channel drowns in access-latency variance. That failure is the paper's
//! motivation for reversing the roles.

use mee_machine::{CoreHandle, NoopHook};
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::ChannelConfig;
use crate::channel::session::Session;
use crate::channel::windowed::{run_windows, Flow, Schedule, Slot, TransmitOutcome, WindowAction};
use crate::setup::AttackSetup;

/// The baseline trojan's action: touches one address per `1` window (also
/// the LLC channel's trojan).
#[derive(Debug)]
pub struct MidWindowTouch {
    target: VirtAddr,
    bits: Vec<bool>,
}

impl MidWindowTouch {
    /// Creates the baseline trojan's action, sending `bits` one per window.
    pub fn new(target: VirtAddr, bits: Vec<bool>) -> Self {
        MidWindowTouch { target, bits }
    }
}

impl WindowAction for MidWindowTouch {
    const LEAD_IN: bool = true;

    fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError> {
        if at.k == 0 {
            if !self.bits[at.i] {
                return Ok(Flow::Idle);
            }
            // Touch mid-window, after the spy's (long, ~4000-cycle) probe
            // sweep of this window has drained — otherwise the eviction
            // lands *inside* the running sweep and the baseline's window
            // alignment becomes accidental.
            cpu.busy_until(at.start + at.len / 2);
            return Ok(Flow::Continue);
        }
        cpu.read_flush(self.target)?;
        cpu.mfence();
        Ok(Flow::Wait)
    }
}

/// The baseline spy's action: probes the *whole* eviction set at each
/// boundary, timing the total sweep. The MEE baseline flushes each line
/// after reading it; the LLC channel does not (classic Prime+Probe relies
/// on conflict misses).
#[derive(Debug)]
pub struct SetProbe {
    eviction_set: Vec<VirtAddr>,
    flush: bool,
    t1: Cycles,
    probe_times: Vec<Cycles>,
}

impl SetProbe {
    /// Creates the baseline spy's action; `flush` adds a `clflush` after
    /// every probe read.
    ///
    /// # Panics
    ///
    /// Panics if the eviction set is empty.
    pub fn new(eviction_set: Vec<VirtAddr>, flush: bool) -> Self {
        assert!(!eviction_set.is_empty(), "eviction set must be non-empty");
        SetProbe {
            eviction_set,
            flush,
            t1: Cycles::ZERO,
            probe_times: Vec::new(),
        }
    }

    /// Raw full-set probe durations (index 0 is the prime sweep).
    pub fn probe_times(&self) -> &[Cycles] {
        &self.probe_times
    }

    /// Decodes with the given total-probe-time threshold: longer sweep →
    /// some way missed → `1`.
    pub fn decode(&self, threshold: Cycles) -> Vec<bool> {
        self.probe_times
            .iter()
            .skip(1)
            .map(|&t| t > threshold)
            .collect()
    }
}

impl WindowAction for SetProbe {
    const LEAD_IN: bool = false;

    fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError> {
        // Step 0 starts the timer, 1..=n probe one way each, n+1 stops it.
        if at.k == 0 {
            cpu.busy_until(at.start);
            self.t1 = cpu.timer_read();
            return Ok(Flow::Continue);
        }
        if let Some(&addr) = self.eviction_set.get(at.k - 1) {
            if self.flush {
                cpu.read_flush(addr)?;
            } else {
                cpu.read(addr)?;
            }
            return Ok(Flow::Continue);
        }
        let t2 = cpu.timer_read();
        self.probe_times.push(t2.saturating_sub(self.t1));
        Ok(Flow::Next)
    }
}

/// The established baseline channel.
#[derive(Debug, Clone)]
pub struct PrimeProbeSession {
    /// The spy's eviction set (8 addresses, one per way).
    pub eviction_set: Vec<VirtAddr>,
    /// The trojan's single conflicting address.
    pub target: VirtAddr,
    /// Shared parameters.
    pub config: ChannelConfig,
    /// Decode threshold for total probe time, calibrated at establishment.
    pub probe_threshold: Cycles,
}

impl PrimeProbeSession {
    /// Establishes the baseline: the channel's establishment with the
    /// roles swapped ([`Session::establish_directed`] with the spy
    /// building the eviction set and the trojan searching for its
    /// conflicting address), then a probe threshold calibrated from quiet
    /// sweeps: mean + half the versions-hit/miss signal.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::establish`].
    pub fn establish(setup: &mut AttackSetup, cfg: &ChannelConfig) -> Result<Self, ModelError> {
        let (spy, trojan) = (setup.spy, setup.trojan);
        let swapped = Session::establish_directed(setup, spy, trojan, cfg)?;
        let eviction_set = swapped.eviction_set;

        // Calibrate the probe threshold: quiet all-hit sweeps.
        let mut quiet_total = 0u64;
        let sweeps = 8u64;
        {
            let mut spy = setup.spy_handle();
            let _ = spy.sweep_read_flush(&eviction_set)?;
            for _ in 0..sweeps {
                let t1 = spy.timer_read();
                let _ = spy.sweep_read_flush(&eviction_set)?;
                let t2 = spy.timer_read();
                quiet_total += t2.saturating_sub(t1).raw();
            }
        }
        let quiet_mean = quiet_total / sweeps;
        let t = &setup.machine.config().timing;
        let signal = t.protected_hit_latency(1) - t.protected_hit_latency(0);
        let probe_threshold = Cycles::new(quiet_mean + signal.raw() / 2);

        Ok(PrimeProbeSession {
            eviction_set,
            target: swapped.monitor,
            config: cfg.clone(),
            probe_threshold,
        })
    }

    /// Transmits `bits` over the baseline channel.
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
            self.config.window,
        )?;
        let (probe, _) = run_windows(
            &mut setup.machine,
            schedule,
            bits.len(),
            (
                setup.spy.core,
                setup.spy.proc,
                SetProbe::new(self.eviction_set.clone(), true),
            ),
            (
                setup.trojan.core,
                setup.trojan.proc,
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
    use crate::channel::message::alternating_bits;

    #[test]
    fn baseline_probe_times_exceed_3500_cycles() {
        let mut setup = AttackSetup::quiet(81).unwrap();
        let session = PrimeProbeSession::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let out = session.transmit(&mut setup, &alternating_bits(16)).unwrap();
        // §5.2: "a probing latency that exceeds 3500 cycles".
        for &t in &out.probe_times {
            assert!(t.raw() > 3_500, "probe time {t} below the paper's floor");
        }
    }

    #[test]
    fn transmit_rejects_a_zero_window() {
        let mut setup = AttackSetup::quiet(82).unwrap();
        let session = PrimeProbeSession {
            eviction_set: setup.spy.candidates(8, 0),
            target: setup.trojan.candidate(0, 0),
            config: ChannelConfig {
                window: Cycles::ZERO,
                ..ChannelConfig::default()
            },
            probe_threshold: Cycles::new(4_000),
        };
        assert!(matches!(
            session.transmit(&mut setup, &[true, false]),
            Err(ModelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn baseline_is_much_worse_than_the_papers_channel_under_noise() {
        // Pooled over sixteen seeds: per-seed error rates at small payload
        // sizes fluctuate enough that a single lucky P+P run can close the
        // gap (the noise streams occasionally miss the probed set), but the
        // qualitative claim — the LLC baseline is clearly noisier than the
        // MEE-cache channel — must hold in aggregate. The sessions run
        // through the parallel sweep runner with seeds split from one root,
        // so the pool is identical no matter how many worker threads the
        // host grants.
        // The Prime+Probe panel peels a whole-set eviction set from the
        // candidate pool, which needs more slack than the single-address
        // search: with the 64-candidate sweep profile one of the sixteen
        // split seeds fails peeling outright, so widen the pool for this
        // sweep while keeping the cheap establishment reps.
        let cfg = ChannelConfig {
            trojan_candidates: 96,
            ..ChannelConfig::sweep_setup()
        };
        let runs = mee_sweep::Sweep::from_env()
            .unwrap()
            .try_seed_sweep(2019, 16, |spec| {
                crate::experiments::run_fig6_with(spec.seed, 24, &cfg)
            })
            .unwrap();
        let total_bits: usize = runs.iter().map(|r| r.this_work.sent.len()).sum();
        let rate = |errors: usize| errors as f64 / total_bits as f64;
        let prime_probe_rate = rate(runs.iter().map(|r| r.prime_probe.errors.count()).sum());
        let this_work_rate = rate(runs.iter().map(|r| r.this_work.errors.count()).sum());
        assert_eq!(total_bits, 16 * 24);
        assert!(
            prime_probe_rate > this_work_rate + 0.05,
            "Prime+Probe ({:.1}%) should be clearly worse than the MEE channel ({:.1}%)",
            prime_probe_rate * 100.0,
            this_work_rate * 100.0
        );
        assert!(
            this_work_rate < 0.10,
            "pooled MEE-channel error rate {:.1}% too high",
            this_work_rate * 100.0
        );
    }
}
