//! The spy side of Algorithm 2.

use mee_machine::CoreHandle;
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::windowed::{Flow, Slot, WindowAction};
use crate::threshold::LatencyClassifier;

/// The receiving action: once per window it times a single access to each
/// of its *monitor addresses* (one per lane, 1 ..= 8) — bracketing the load
/// between two reads of the hyperthread timer mailbox, since `rdtsc` is
/// unavailable in the enclave (§3, Figure 2(c)) — flushes the line, and
/// decodes versions-hit → `0`, versions-miss → `1`. The probe itself
/// re-primes the MEE cache for the next bit ("the probe … effectively
/// primes the MEE cache", §5.3).
///
/// Phase: the probes for window `i` fire a *guard* interval before the
/// boundary `W(i+1)`, when the trojan's eviction for bit `i` has long
/// finished and the trojan is idle — so a probe never queues behind the
/// trojan's own walks in the shared MEE pipeline. (Algorithm 2 fixes only
/// the window length; the phase within the window is the implementer's
/// choice.) Window 0's probe is the initial prime; probe round `r + 1`
/// carries symbol `r`.
#[derive(Debug)]
pub struct TimedProbe {
    monitors: Vec<VirtAddr>,
    /// Cycles before each boundary at which the probes fire.
    guard: Cycles,
    classifier: LatencyClassifier,
    t1: Cycles,
    /// De-biased probe durations, `monitors.len()` per probe round.
    probe_times: Vec<Cycles>,
}

impl TimedProbe {
    /// Creates the spy's action.
    ///
    /// # Panics
    ///
    /// Panics if `monitors` is empty.
    pub fn new(monitors: Vec<VirtAddr>, guard: Cycles, classifier: LatencyClassifier) -> Self {
        assert!(!monitors.is_empty(), "at least one monitor required");
        TimedProbe {
            monitors,
            guard,
            classifier,
            t1: Cycles::ZERO,
            probe_times: Vec::new(),
        }
    }

    /// De-biased probe durations (the first round is the initial prime).
    pub fn probe_times(&self) -> &[Cycles] {
        &self.probe_times
    }

    /// Decoded flattened bits, lane-major within each symbol; the prime
    /// round is skipped.
    pub fn decoded_bits(&self) -> Vec<bool> {
        // probe_times are already de-biased.
        self.probe_times
            .iter()
            .skip(self.monitors.len())
            .map(|&t| t >= self.classifier.threshold)
            .collect()
    }
}

impl WindowAction for TimedProbe {
    const LEAD_IN: bool = false;

    fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError> {
        let k = at.k;
        if k == 0 {
            // Probe just before the boundary W(i): it observes symbol i-1
            // and re-primes the monitor lines for symbol i.
            cpu.busy_until(at.start.saturating_sub(self.guard));
            self.t1 = cpu.timer_read();
            return Ok(Flow::Continue);
        }
        // Step 2l+1 is lane l's timed access, 2l+2 closes its measurement.
        let lane = (k - 1) / 2;
        let monitor = self.monitors[lane];
        if k % 2 == 1 {
            // "measure time to access monitor address" — the access also
            // re-primes the versions line.
            cpu.read(monitor)?;
            return Ok(Flow::Continue);
        }
        let t2 = cpu.timer_read();
        cpu.clflush(monitor)?;
        self.probe_times
            .push(self.classifier.debias(t2.saturating_sub(self.t1)));
        if lane + 1 < self.monitors.len() {
            self.t1 = cpu.timer_read();
            Ok(Flow::Continue)
        } else {
            Ok(Flow::Next)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::windowed::{Schedule, WindowedActor};
    use crate::setup::AttackSetup;
    use mee_machine::{Actor, StepOutcome};
    use mee_types::TimingConfig;

    #[test]
    fn spy_alone_decodes_all_zeroes() {
        // With no trojan, every probe after the prime is a versions hit.
        let mut setup = AttackSetup::quiet(61).unwrap();
        let monitor = setup.spy.candidate(0, 0);
        let t = setup.machine.config().timing.clone();
        let schedule = Schedule {
            start: Cycles::new(2_000),
            window: Cycles::new(15_000),
        };
        let probe = TimedProbe::new(
            vec![monitor],
            Cycles::new(1_200),
            LatencyClassifier::for_timer_probes(&t),
        );
        let mut spy = WindowedActor::new(schedule, 9, probe);
        let mut cpu = setup.spy_handle();
        while spy.step(&mut cpu).unwrap() == StepOutcome::Running {}
        assert_eq!(spy.action().probe_times().len(), 9);
        assert_eq!(spy.action().decoded_bits(), vec![false; 8]);
        // Probe durations sit near the versions-hit anchor (~480 cycles),
        // within timer quantization.
        for &t in &spy.action().probe_times()[1..] {
            assert!(
                (380..=600).contains(&t.raw()),
                "probe time {t} far from the 480-cycle anchor"
            );
        }
    }

    #[test]
    fn spy_probes_land_on_window_boundaries() {
        let mut setup = AttackSetup::quiet(62).unwrap();
        let monitor = setup.spy.candidate(0, 0);
        let t: TimingConfig = setup.machine.config().timing.clone();
        let schedule = Schedule {
            start: Cycles::new(5_000),
            window: Cycles::new(10_000),
        };
        let probe = TimedProbe::new(
            vec![monitor],
            Cycles::new(1_000),
            LatencyClassifier::for_timer_probes(&t),
        );
        let mut spy = WindowedActor::new(schedule, 4, probe);
        let mut cpu = setup.spy_handle();
        // Step until the first probe completes; it fires in the guard slot
        // just before the boundary, so the clock lands near (and never far
        // past) the boundary itself.
        while spy.action().probe_times().is_empty() {
            spy.step(&mut cpu).unwrap();
        }
        let now = cpu.now().raw();
        assert!(
            (4_000..5_000 + 1_500).contains(&now),
            "first probe at {now}"
        );
    }
}
