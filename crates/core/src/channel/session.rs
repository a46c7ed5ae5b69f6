//! Establishing and running the covert channel.

use mee_machine::{ActorRef, CoreHandle, NoopHook, StepHook};
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::coding;
use crate::channel::config::ChannelConfig;
use crate::channel::message::BitErrors;
use crate::channel::spy::TimedProbe;
use crate::channel::trojan::EvictionSweep;
use crate::channel::windowed::{run_windows, Schedule, TransmitOutcome};
use crate::recon::eviction::find_eviction_set;
use crate::setup::{AttackSetup, Tenant};
use crate::threshold::{AdaptiveClassifier, LatencyClassifier};

/// An established MEE-cache covert channel: the trojan's eviction set and
/// the spy's monitor address, in conflict within one MEE-cache set.
#[derive(Debug, Clone)]
pub struct Session {
    /// The trojan's eviction addresses (Algorithm 1's output).
    pub eviction_set: Vec<VirtAddr>,
    /// The spy's monitor address.
    pub monitor: VirtAddr,
    /// The channel parameters.
    pub config: ChannelConfig,
    /// The sending tenant (holds the eviction set).
    pub sender: Tenant,
    /// The receiving tenant (probes the monitor address).
    pub receiver: Tenant,
    /// Classifier for true-latency samples (setup-time probes).
    classifier: LatencyClassifier,
}

/// The result of one self-healing transmission ([`Session::transmit_robust`]).
#[derive(Debug, Clone)]
#[must_use = "a robust outcome carries the recovered payload and recovery statistics"]
pub struct RobustOutcome {
    /// The recovered payload (after preamble lock, Hamming correction, and
    /// adaptive thresholding).
    pub received: Vec<bool>,
    /// Positional errors of `received` against the sent payload.
    pub errors: BitErrors,
    /// Whether the run-length sanity check on the decoded preamble tripped
    /// (the receiver believed it had lost window alignment).
    pub desynced: bool,
    /// Where the preamble re-locked, if it was not found at offset 0.
    pub resync_offset: Option<usize>,
    /// Whether the preamble was found at all; when `false`, `received` is
    /// a best-effort decode at offset 0 and should be treated as corrupt.
    pub locked: bool,
    /// Online threshold recalibrations performed while decoding.
    pub recalibrations: usize,
    /// The underlying wire-level transmission.
    pub raw: TransmitOutcome,
}

impl RobustOutcome {
    /// Payload bit error rate in `[0, 1]` after recovery.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.errors.rate()
    }
}

/// The best (smallest) Hamming distance between the known preamble and any
/// window of `decoded` starting within the first `search` offsets — the
/// pilot-sequence score used to choose between candidate decodes.
fn preamble_distance(decoded: &[bool], search: usize) -> usize {
    let p = coding::PREAMBLE.len();
    if decoded.len() < p {
        return p;
    }
    (0..=search.min(decoded.len() - p))
        .map(|k| {
            decoded[k..k + p]
                .iter()
                .zip(coding::PREAMBLE.iter())
                .filter(|(a, b)| a != b)
                .count()
        })
        .min()
        .unwrap_or(p)
}

/// Longest run of equal bits in `bits`.
fn max_run(bits: &[bool]) -> usize {
    let mut best = 0;
    let mut run = 0;
    let mut prev = None;
    for &b in bits {
        run = if prev == Some(b) { run + 1 } else { 1 };
        best = best.max(run);
        prev = Some(b);
    }
    best
}

fn handle(setup: &mut AttackSetup, tenant: Tenant) -> CoreHandle<'_> {
    CoreHandle::new(&mut setup.machine, tenant.core, tenant.proc)
}

/// The conflict handshake of establishment: for each of `prober`'s
/// `candidates`, `reps` times over, the prober primes the candidate, the
/// `sweeper` sweeps `eviction_set` forward and backward (as for a `1`), and
/// the prober re-probes. Returns the first candidate that a majority of
/// re-probes see as a versions miss, i.e. that conflicts with the set;
/// propagates machine errors.
fn find_conflicting(
    setup: &mut AttackSetup,
    prober: Tenant,
    sweeper: Tenant,
    candidates: &[VirtAddr],
    eviction_set: &[VirtAddr],
    classifier: &LatencyClassifier,
    reps: usize,
) -> Result<Option<VirtAddr>, ModelError> {
    for &candidate in candidates {
        let mut votes = 0usize;
        for _ in 0..reps {
            setup.sync_clocks();
            {
                let mut cpu = handle(setup, prober);
                cpu.read_flush(candidate)?;
                cpu.mfence();
            }
            setup.sync_clocks();
            {
                let mut cpu = handle(setup, sweeper);
                let _ = cpu.sweep_read_flush(eviction_set)?;
                cpu.mfence();
                let _ = cpu.sweep_read_flush_rev(eviction_set)?;
                cpu.mfence();
            }
            // A miss on the re-probe means conflict.
            setup.sync_clocks();
            let lat = handle(setup, prober).read_flush(candidate)?;
            if classifier.is_versions_miss(lat) {
                votes += 1;
            }
        }
        if votes * 2 > reps {
            return Ok(Some(candidate));
        }
    }
    Ok(None)
}

impl Session {
    /// Establishes the channel (paper §5.3):
    ///
    /// 1. the trojan runs Algorithm 1 over its 4 KiB-stride candidates at
    ///    the agreed in-page offset, producing its eviction set;
    /// 2. the spy scans its own candidates at the same offset for the
    ///    *monitor address*: it primes a candidate, lets the trojan sweep
    ///    its eviction set, and re-probes — a versions miss means the
    ///    candidate conflicts with the trojan's set.
    ///
    /// # Errors
    ///
    /// * Propagates machine errors and Algorithm 1 failures.
    /// * Returns [`ModelError::InvalidConfig`] before any simulated op if
    ///   `trojan_candidates` or `spy_candidates` exceeds the pages its
    ///   tenant maps (one candidate per page).
    /// * Returns [`ModelError::InvalidConfig`] if no monitor address is
    ///   found (raise `spy_candidates`; each conflicts with probability
    ///   1/8).
    pub fn establish(setup: &mut AttackSetup, cfg: &ChannelConfig) -> Result<Self, ModelError> {
        let (sender, receiver) = (setup.trojan, setup.spy);
        Self::establish_directed(setup, sender, receiver, cfg)
    }

    /// Like [`Self::establish`] with explicit roles — the reverse direction
    /// (`spy` sending, `trojan` receiving) carries the ACKs of the reliable
    /// transport ([`reliable`](crate::channel::reliable)) and establishes
    /// the Prime+Probe baseline
    /// ([`PrimeProbeSession`](crate::channel::prime_probe::PrimeProbeSession)).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::establish`].
    pub fn establish_directed(
        setup: &mut AttackSetup,
        sender: Tenant,
        receiver: Tenant,
        cfg: &ChannelConfig,
    ) -> Result<Self, ModelError> {
        cfg.validate()?;
        for (field, count, tenant) in [
            ("trojan_candidates", cfg.trojan_candidates, sender),
            ("spy_candidates", cfg.spy_candidates, receiver),
        ] {
            if count > tenant.pages {
                return Err(ModelError::InvalidConfig {
                    reason: format!(
                        "{field} = {count} exceeds the {} pages the tenant maps \
                         (one candidate per page)",
                        tenant.pages
                    ),
                });
            }
        }
        // Host-time span over the whole establishment phase (Algorithm 1 +
        // monitor search) — wall-clock only, recorded at the end, so the
        // simulated transcript is untouched.
        let host_start = std::time::Instant::now();
        let classifier = LatencyClassifier::from_timing(&setup.machine.config().timing);
        let t0 = setup.machine.core_now(sender.core);
        setup
            .machine
            .trace_phase("establish_start", cfg.trojan_candidates as u64, t0);

        // 1. The sender builds its eviction set.
        let candidates = sender.candidates(cfg.trojan_candidates, cfg.agreed_offset);
        let eviction = {
            let mut cpu = handle(setup, sender);
            find_eviction_set(&mut cpu, &candidates, &classifier, cfg.setup_reps)?
        };
        let eviction_set = eviction.eviction_set;
        let t1 = setup.machine.core_now(sender.core);
        setup
            .machine
            .trace_phase("eviction_set_ready", eviction_set.len() as u64, t1);

        // 2. The receiver searches for its monitor address.
        let spy_candidates = receiver.candidates(cfg.spy_candidates, cfg.agreed_offset);
        let monitor = find_conflicting(
            setup,
            receiver,
            sender,
            &spy_candidates,
            &eviction_set,
            &classifier,
            cfg.setup_reps,
        )?
        .ok_or_else(|| ModelError::InvalidConfig {
            reason: format!(
                "no monitor address among {} spy candidates conflicts with the \
                 trojan's eviction set; increase spy_candidates",
                cfg.spy_candidates
            ),
        })?;
        let t2 = setup.machine.core_now(receiver.core);
        setup
            .machine
            .trace_phase("monitor_found", monitor.raw(), t2);
        setup
            .machine
            .obs_mut()
            .host
            .record("establish", host_start.elapsed());

        Ok(Session {
            eviction_set,
            monitor,
            config: cfg.clone(),
            sender,
            receiver,
            classifier,
        })
    }

    /// Transmits `bits` over the channel: the trojan and the spy run
    /// concurrently (different cores), one bit per timing window.
    ///
    /// # Errors
    ///
    /// Propagates machine errors; returns [`ModelError::InvalidConfig`] for
    /// a zero `config.window`.
    pub fn transmit(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
    ) -> Result<TransmitOutcome, ModelError> {
        self.transmit_hooked(setup, bits, &mut [], &mut NoopHook)
    }

    /// Like [`Self::transmit`] with `noise` actors running concurrently on
    /// other cores (Figure 8's environments) and a [`StepHook`] observing
    /// (and possibly perturbing) the machine before scheduler steps — the
    /// entry point the fault injector uses. The hook sees global time in
    /// scheduling order, so a seeded fault plan replays exactly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::transmit`], plus errors raised by the hook.
    pub fn transmit_hooked(
        &self,
        setup: &mut AttackSetup,
        bits: &[bool],
        noise: &mut [ActorRef<'_>],
        hook: &mut dyn StepHook,
    ) -> Result<TransmitOutcome, ModelError> {
        let schedule = Schedule::agree(
            &setup.machine,
            self.receiver.core,
            self.sender.core,
            self.config.window,
        )?;
        let sweep = EvictionSweep::new(
            self.eviction_set.clone(),
            bits.to_vec(),
            self.config.strategy,
            self.config.rotate_sweep,
        );
        let timer_classifier = LatencyClassifier {
            bias: setup.machine.config().timing.timer_read,
            ..self.classifier
        };
        let guard = Cycles::new((schedule.window.raw() / 10).clamp(400, 1_200));
        let probe = TimedProbe::new(vec![self.monitor], guard, timer_classifier);
        let (probe, sweep) = run_windows(
            &mut setup.machine,
            schedule,
            bits.len(),
            (self.receiver.core, self.receiver.proc, probe),
            (self.sender.core, self.sender.proc, sweep),
            noise,
            hook,
        )?;
        Ok(TransmitOutcome::new(
            &setup.machine,
            schedule,
            bits.len(),
            bits,
            probe.decoded_bits(),
            probe.probe_times(),
            sweep.one_costs(),
        ))
    }

    /// Extra all-zero tail windows appended to a robust frame so a late
    /// preamble can still be found within the probed region.
    pub const RESYNC_SEARCH: usize = 6;

    /// Self-healing transmission: frames `payload` behind the
    /// [`coding::PREAMBLE`] with Hamming(7,4) protection, then decodes the
    /// received windows defensively —
    ///
    /// 1. **adaptive thresholding**: probe latencies are classified by an
    ///    [`AdaptiveClassifier`] that re-centers the hit/miss threshold
    ///    online as faults move the clusters;
    /// 2. **desync detection**: the decoded preamble region is
    ///    sanity-checked (a run of ≥ 4 equal bits, impossible in the
    ///    `10101011` pattern even under a single flip, means window
    ///    alignment was lost);
    /// 3. **resync**: the receiver re-locks by scanning for the preamble
    ///    (one flip tolerated) within [`Self::RESYNC_SEARCH`] window
    ///    offsets, recovering transmissions whose start boundary slipped.
    ///
    /// The fault `hook` applies to the wire transmission, as in
    /// [`Self::transmit_hooked`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::transmit_hooked`].
    pub fn transmit_robust(
        &self,
        setup: &mut AttackSetup,
        payload: &[bool],
        hook: &mut dyn StepHook,
    ) -> Result<RobustOutcome, ModelError> {
        let mut wire = coding::frame(payload);
        wire.extend(std::iter::repeat_n(false, Self::RESYNC_SEARCH));
        let raw = self.transmit_hooked(setup, &wire, &mut [], hook)?;
        // Host-time span around the receiver-side decode below; wall-clock
        // only, recorded at the end — determinism is untouched.
        let decode_start = std::time::Instant::now();

        // Receiver-side decode over the de-biased probe samples (probe 0 is
        // the prime probe, not a bit), done twice: once with the setup-time
        // calibrated threshold and once with the online adaptive
        // classifier. The known preamble then acts as a pilot sequence —
        // the stream that reads it more cleanly wins, so a thrashing
        // adaptive threshold can never make the decode worse than the
        // calibrated one.
        let fixed_classifier = LatencyClassifier {
            threshold: self.classifier.threshold,
            bias: Cycles::ZERO,
        };
        let fixed: Vec<bool> = raw
            .probe_times
            .iter()
            .skip(1)
            .map(|&t| fixed_classifier.is_versions_miss(t))
            .collect();
        let mut adaptive = AdaptiveClassifier::new(fixed_classifier);
        let adapted: Vec<bool> = raw
            .probe_times
            .iter()
            .skip(1)
            .map(|&t| adaptive.observe(t))
            .collect();
        let decoded = if preamble_distance(&adapted, Self::RESYNC_SEARCH)
            < preamble_distance(&fixed, Self::RESYNC_SEARCH)
        {
            adapted
        } else {
            fixed
        };

        let preamble_len = coding::PREAMBLE.len();
        let head = &decoded[..preamble_len.min(decoded.len())];
        let head_distance = head
            .iter()
            .zip(coding::PREAMBLE.iter())
            .filter(|(a, b)| a != b)
            .count()
            + preamble_len.saturating_sub(head.len());
        let desynced = max_run(head) >= 4 || head_distance > 1;

        let lock = coding::locate_preamble(&decoded, Self::RESYNC_SEARCH, 1);
        let received = match lock {
            Some(k) => coding::hamming_decode(&decoded[k + preamble_len..], payload.len()),
            // Unrecoverable: best-effort decode at offset 0 so the caller
            // still gets payload-shaped bits (and a CRC above will reject
            // them).
            None => {
                coding::hamming_decode(&decoded[preamble_len.min(decoded.len())..], payload.len())
            }
        };
        let errors = BitErrors::compare(payload, &received);
        setup
            .machine
            .obs_mut()
            .host
            .record("robust_decode", decode_start.elapsed());
        Ok(RobustOutcome {
            received,
            errors,
            desynced,
            resync_offset: lock.filter(|&k| k > 0),
            locked: lock.is_some(),
            recalibrations: adaptive.recalibrations(),
            raw,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::message::{alternating_bits, random_bits};

    #[test]
    fn establish_finds_conflicting_monitor() {
        let mut setup = AttackSetup::quiet(71).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
        assert_eq!(session.eviction_set.len(), 8);

        // Ground truth: monitor's versions line shares the set with the
        // eviction set's versions lines.
        let geo = *setup.machine.mee().geometry();
        let sets = setup.machine.mee().cache().config().sets;
        let set_of = |proc, va: VirtAddr| {
            let pa = setup.machine.translate(proc, va).unwrap();
            geo.version_line(geo.walk_path(pa.line()).version)
                .set_index(sets)
        };
        let monitor_set = set_of(setup.spy.proc, session.monitor);
        for &a in &session.eviction_set {
            assert_eq!(set_of(setup.trojan.proc, a), monitor_set);
        }
    }

    #[test]
    fn quiet_channel_is_error_free() {
        let mut setup = AttackSetup::quiet(72).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let bits = alternating_bits(32);
        let out = session.transmit(&mut setup, &bits).unwrap();
        assert_eq!(
            out.received,
            bits,
            "noise-free transmission must be perfect: {} errors at {:?}",
            out.errors.count(),
            out.errors.positions
        );
    }

    #[test]
    fn probe_times_show_figure6b_separation() {
        let mut setup = AttackSetup::quiet(73).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let bits = alternating_bits(16);
        let out = session.transmit(&mut setup, &bits).unwrap();
        // '0' probes near 480, '1' probes near 750 (§5.4).
        for (i, &bit) in bits.iter().enumerate() {
            let t = out.probe_times[i + 1].raw();
            if bit {
                assert!((640..=1000).contains(&t), "bit {i} ('1') probe {t}");
            } else {
                assert!((380..=620).contains(&t), "bit {i} ('0') probe {t}");
            }
        }
    }

    #[test]
    fn noisy_channel_matches_headline_error_rate() {
        // Default (noisy) machine at the 15000-cycle window: §5.4 reports
        // 1.7% error. Allow a generous band.
        let mut setup = AttackSetup::new(74).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let bits = random_bits(512, 74);
        let out = session.transmit(&mut setup, &bits).unwrap();
        let rate = out.error_rate();
        assert!(rate < 0.08, "error rate {rate} too high");
        // And the bit rate is the paper's 35 KBps ballpark.
        assert!((30.0..=40.0).contains(&out.kbps), "kbps = {}", out.kbps);
    }

    #[test]
    fn robust_transmit_is_clean_on_a_quiet_machine() {
        let mut setup = AttackSetup::quiet(76).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let payload = random_bits(40, 76);
        let out = session
            .transmit_robust(&mut setup, &payload, &mut NoopHook)
            .unwrap();
        assert_eq!(out.received, payload);
        assert!(out.locked, "preamble must lock at offset 0");
        assert!(!out.desynced);
        assert_eq!(out.resync_offset, None);
        assert_eq!(out.error_rate(), 0.0);
    }

    #[test]
    fn robust_transmit_detects_a_jammed_preamble() {
        use mee_faults::{FaultInjector, FaultKind, FaultPlan};

        let mut setup = AttackSetup::quiet(77).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();

        // The MEE-cache set the channel modulates.
        let geo = *setup.machine.mee().geometry();
        let sets = setup.machine.mee().cache().config().sets;
        let pa = setup
            .machine
            .translate(session.receiver.proc, session.monitor)
            .unwrap();
        let set = geo
            .version_line(geo.walk_path(pa.line()).version)
            .set_index(sets);

        // Thrash that set once per window, after the trojan's sweep but
        // before the spy's probe, across the whole preamble region: every
        // probe deep-misses, the preamble decodes as a solid run of 1s,
        // and the run-length sanity check must trip.
        let schedule = Schedule::agree(
            &setup.machine,
            session.receiver.core,
            session.sender.core,
            session.config.window,
        )
        .unwrap();
        let mut plan = FaultPlan::none();
        for i in 0..10 {
            plan = plan.with_event(
                schedule.boundary(i) + Cycles::new(12_000),
                FaultKind::MeeSetThrash { set },
            );
        }
        let mut injector = FaultInjector::new(plan);
        let payload = vec![false; 8];
        let out = session
            .transmit_robust(&mut setup, &payload, &mut injector)
            .unwrap();
        assert!(
            !injector.applied().is_empty(),
            "the plan must actually fire"
        );
        assert!(out.desynced, "jammed preamble must trip the sanity check");
        assert!(
            !out.locked || out.resync_offset.is_some(),
            "a lock through a jammed preamble must be a re-lock"
        );
    }

    #[test]
    fn transmit_rejects_a_zero_window() {
        let mut setup = AttackSetup::quiet(78).unwrap();
        let session = Session {
            eviction_set: setup.trojan.candidates(8, 0),
            monitor: setup.spy.candidate(0, 0),
            config: ChannelConfig {
                window: Cycles::ZERO,
                ..ChannelConfig::default()
            },
            sender: setup.trojan,
            receiver: setup.spy,
            classifier: LatencyClassifier::from_timing(&setup.machine.config().timing),
        };
        assert!(matches!(
            session.transmit(&mut setup, &[true, false]),
            Err(ModelError::InvalidConfig { .. })
        ));
    }

    /// More candidates than the tenant maps pages is a typed config error,
    /// returned before any simulated op runs (no core clock moves).
    #[test]
    fn oversized_candidate_sets_are_typed_errors() {
        for cfg in [
            ChannelConfig {
                trojan_candidates: 193,
                ..ChannelConfig::default()
            },
            ChannelConfig {
                spy_candidates: 500,
                ..ChannelConfig::default()
            },
        ] {
            let mut setup = AttackSetup::quiet(79).unwrap();
            let clocks = (
                setup.machine.core_now(setup.spy.core),
                setup.machine.core_now(setup.trojan.core),
            );
            match Session::establish(&mut setup, &cfg) {
                Err(ModelError::InvalidConfig { reason }) => {
                    assert!(reason.contains("192 pages"), "{reason}");
                }
                other => panic!("expected InvalidConfig, got {other:?}"),
            }
            assert_eq!(
                (
                    setup.machine.core_now(setup.spy.core),
                    setup.machine.core_now(setup.trojan.core)
                ),
                clocks
            );
        }
    }

    #[test]
    fn sessions_are_reusable() {
        let mut setup = AttackSetup::quiet(75).unwrap();
        let session = Session::establish(&mut setup, &ChannelConfig::default()).unwrap();
        let first = session.transmit(&mut setup, &[true, false, true]).unwrap();
        let second = session.transmit(&mut setup, &[false, true, false]).unwrap();
        assert_eq!(first.received, vec![true, false, true]);
        assert_eq!(second.received, vec![false, true, false]);
    }
}
