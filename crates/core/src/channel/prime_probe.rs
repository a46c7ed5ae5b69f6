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

use mee_machine::{run_actor_refs, ActorRef, CoreHandle};
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::ChannelConfig;
use crate::channel::message::BitErrors;
use crate::channel::session::find_conflicting;
use crate::channel::windowed::{Flow, Schedule, Slot, WindowAction, WindowedActor};
use crate::recon::eviction::find_eviction_set;
use crate::setup::AttackSetup;
use crate::threshold::LatencyClassifier;

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
        cpu.read(self.target)?;
        cpu.clflush(self.target)?;
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
            cpu.read(addr)?;
            if self.flush {
                cpu.clflush(addr)?;
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

/// Result of a baseline transmission.
#[derive(Debug, Clone)]
pub struct PrimeProbeOutcome {
    /// What the trojan sent.
    pub sent: Vec<bool>,
    /// What the spy decoded.
    pub received: Vec<bool>,
    /// Total 8-way probe durations (the y-axis of Figure 6a).
    pub probe_times: Vec<Cycles>,
    /// Positional errors.
    pub errors: BitErrors,
}

impl PrimeProbeSession {
    /// Establishes the baseline: the *spy* runs Algorithm 1, then the
    /// conflicting trojan address is found with the role-swapped handshake.
    /// The probe threshold is calibrated from quiet sweeps: mean + half the
    /// versions-hit/miss signal.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Session::establish`](crate::channel::Session::establish).
    pub fn establish(setup: &mut AttackSetup, cfg: &ChannelConfig) -> Result<Self, ModelError> {
        cfg.validate()?;
        // Host-time span over the baseline's establishment, recorded at the
        // end; wall-clock only.
        let host_start = std::time::Instant::now();
        let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);

        // Spy builds the eviction set this time.
        let candidates = setup
            .spy
            .candidates(cfg.trojan_candidates, cfg.agreed_offset);
        let eviction_set = {
            let mut cpu = setup.spy_handle();
            find_eviction_set(&mut cpu, &candidates, &classifier, cfg.setup_reps)?.eviction_set
        };

        // Trojan finds one conflicting address (the role-swapped handshake).
        let trojan_candidates = setup
            .trojan
            .candidates(cfg.spy_candidates, cfg.agreed_offset);
        let target = find_conflicting(
            setup,
            setup.trojan,
            setup.spy,
            &trojan_candidates,
            &eviction_set,
            &classifier,
            cfg.setup_reps,
        )?
        .ok_or_else(|| ModelError::InvalidConfig {
            reason: "no conflicting trojan address found for the baseline".into(),
        })?;

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
        setup
            .machine
            .obs_mut()
            .host
            .record("establish", host_start.elapsed());

        Ok(PrimeProbeSession {
            eviction_set,
            target,
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
    ) -> Result<PrimeProbeOutcome, ModelError> {
        let schedule = Schedule::agree(
            &setup.machine,
            setup.spy.core,
            setup.trojan.core,
            self.config.window,
        )?;
        let mut trojan = WindowedActor::new(
            schedule,
            bits.len(),
            MidWindowTouch::new(self.target, bits.to_vec()),
        );
        let mut spy = WindowedActor::new(
            schedule,
            bits.len() + 1,
            SetProbe::new(self.eviction_set.clone(), true),
        );
        {
            let mut actors: Vec<ActorRef<'_>> = vec![
                (setup.spy.core, setup.spy.proc, &mut spy),
                (setup.trojan.core, setup.trojan.proc, &mut trojan),
            ];
            let horizon = schedule.horizon(bits.len(), Cycles::new(100_000));
            run_actor_refs(&mut setup.machine, &mut actors, horizon)?;
        }
        let received = spy.action().decode(self.probe_threshold);
        let errors = BitErrors::compare(bits, &received);
        Ok(PrimeProbeOutcome {
            sent: bits.to_vec(),
            received,
            probe_times: spy.action().probe_times().to_vec(),
            errors,
        })
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
        let plan = crate::experiments::SweepPlan::new(2019, 16);
        let sweep = crate::experiments::run_fig6_sweep(&plan, 24, &cfg).unwrap();
        let pooled = sweep.pooled();
        assert_eq!(pooled.total_bits, 16 * 24);
        assert!(
            pooled.prime_probe_rate() > pooled.this_work_rate() + 0.05,
            "Prime+Probe ({:.1}%) should be clearly worse than the MEE channel ({:.1}%)",
            pooled.prime_probe_rate() * 100.0,
            pooled.this_work_rate() * 100.0
        );
        assert!(
            pooled.this_work_rate() < 0.10,
            "pooled MEE-channel error rate {:.1}% too high",
            pooled.this_work_rate() * 100.0
        );
    }
}
