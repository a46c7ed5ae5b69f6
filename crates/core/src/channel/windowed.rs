//! The windowed driver every channel actor runs on (see DESIGN.md,
//! "Windowed actors").
//!
//! [`WindowedActor`] owns the agreed [`Schedule`], the window counter, the
//! waits between windows and the finish; a [`WindowAction`] supplies what
//! one party does inside a window. The driver never splits or merges an
//! action's steps, and a fault hook runs between steps, so each action's
//! step layout is part of its behaviour.
//!
//! [`run_windows`] is the one transmission path: every channel hands it a
//! spy and a trojan action and builds its [`TransmitOutcome`] from what the
//! two actions recorded.

use mee_machine::{
    run_actor_refs_hooked, Actor, ActorRef, CoreHandle, CoreId, Machine, ProcId, StepHook,
    StepOutcome,
};
use mee_types::{Cycles, ModelError};

use crate::channel::message::BitErrors;

/// The agreed timing of one transmission: window `i` spans
/// `[start + i·window, start + (i+1)·window)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Schedule {
    /// The first window boundary.
    pub start: Cycles,
    /// The window length `T_sync`.
    pub window: Cycles,
}

impl Schedule {
    /// Agrees on a start boundary comfortably after both parties' clocks:
    /// the third window boundary after the later of cores `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for a zero window.
    pub fn agree(
        machine: &Machine,
        a: CoreId,
        b: CoreId,
        window: Cycles,
    ) -> Result<Self, ModelError> {
        if window == Cycles::ZERO {
            return Err(ModelError::InvalidConfig {
                reason: "window must be non-zero".into(),
            });
        }
        let now = machine.core_now(a).max(machine.core_now(b));
        Ok(Schedule {
            start: Cycles::new((now.raw() / window.raw() + 3) * window.raw()),
            window,
        })
    }

    /// The start of window `i`.
    pub fn boundary(&self, i: usize) -> Cycles {
        self.start + self.window * i as u64
    }

    /// A scheduler horizon for `windows` data windows: three spare windows
    /// plus `slack` cycles.
    pub fn horizon(&self, windows: usize, slack: Cycles) -> Cycles {
        self.start + self.window * (windows as u64 + 3) + slack
    }

    /// Simulated duration of `windows` data windows plus the prime window.
    pub fn elapsed(&self, windows: usize) -> Cycles {
        self.window * (windows as u64 + 1)
    }

    /// Rate in KBps of `bits` bits carried by `windows` windows at the
    /// machine's clock.
    pub fn kbps(&self, machine: &Machine, bits: usize, windows: usize) -> f64 {
        let clock_hz = machine.config().timing.clock_hz();
        (bits as f64 / 8.0) / self.elapsed(windows).to_seconds(clock_hz) / 1000.0
    }
}

/// Where [`WindowedActor`] goes after one step of a [`WindowAction`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The window needs another step: the next [`WindowAction::step`].
    Continue,
    /// Nothing to send this window: wait for the next boundary within
    /// this same step, then enter the next window.
    Idle,
    /// The window's work is done: the next step waits for the next
    /// boundary, the one after enters the next window.
    Wait,
    /// The window's work is done: the next step enters the next window.
    Next,
}

/// Where one step of a [`WindowAction`] falls: step `k` of window `i`,
/// which starts at `start` and lasts `len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// The window index.
    pub i: usize,
    /// The step within the window (`0` enters it).
    pub k: usize,
    /// The window's start boundary.
    pub start: Cycles,
    /// The window length.
    pub len: Cycles,
}

/// What one party does inside each window, driven by [`WindowedActor`].
pub trait WindowAction {
    /// Whether the actor spends its first step waiting for the start
    /// boundary (the trojans) rather than entering window 0 at once (the
    /// spies, whose probes fire at or before each boundary).
    const LEAD_IN: bool;

    /// Runs one step of a window.
    ///
    /// # Errors
    ///
    /// Propagates any [`ModelError`] raised by the instructions issued.
    fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError>;
}

/// A channel actor: runs its [`WindowAction`] once per window of a
/// [`Schedule`], for a fixed number of windows, then reports
/// [`StepOutcome::Done`].
#[derive(Debug)]
pub struct WindowedActor<A> {
    schedule: Schedule,
    windows: usize,
    state: State,
    action: A,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Waiting for boundary `i`; window `i` is entered next.
    Wait(usize),
    /// Step `k` of window `i` is next.
    Act(usize, usize),
}

impl<A: WindowAction> WindowedActor<A> {
    /// Creates an actor that runs `action` over `windows` windows of
    /// `schedule`.
    pub fn new(schedule: Schedule, windows: usize, action: A) -> Self {
        WindowedActor {
            schedule,
            windows,
            state: if A::LEAD_IN {
                State::Wait(0)
            } else {
                State::Act(0, 0)
            },
            action,
        }
    }

    /// The per-window action, with whatever it recorded.
    pub fn action(&self) -> &A {
        &self.action
    }
}

impl<A: WindowAction> Actor for WindowedActor<A> {
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
        let (i, k) = match self.state {
            State::Wait(i) => {
                cpu.busy_until(self.schedule.boundary(i));
                self.state = State::Act(i, 0);
                return Ok(StepOutcome::Running);
            }
            State::Act(i, 0) if i >= self.windows => return Ok(StepOutcome::Done),
            State::Act(i, k) => (i, k),
        };
        let (start, len) = (self.schedule.boundary(i), self.schedule.window);
        self.state = match self.action.step(Slot { i, k, start, len }, cpu)? {
            Flow::Continue => State::Act(i, k + 1),
            Flow::Idle => {
                cpu.busy_until(start + len);
                State::Act(i + 1, 0)
            }
            Flow::Wait => State::Wait(i + 1),
            Flow::Next => State::Act(i + 1, 0),
        };
        Ok(StepOutcome::Running)
    }
}

/// Runs one transmission of `windows` data windows on `schedule`. The spy
/// is bound first, so it wins clock ties, and runs `windows + 1` windows
/// (window 0 is its prime probe); the trojan runs `windows`. Each party is
/// `(core, process, action)`; `noise` actors run alongside on other cores,
/// and `hook` sees the machine before scheduler steps, as in
/// [`run_actor_refs_hooked`]. Emits the `transmit_start` and `transmit_end`
/// phase markers, records the `transmit` host span, and returns the spy's
/// and the trojan's actions with whatever they recorded.
///
/// # Errors
///
/// Propagates machine errors and errors raised by the hook.
pub(crate) fn run_windows<S, T>(
    machine: &mut Machine,
    schedule: Schedule,
    windows: usize,
    spy: (CoreId, ProcId, S),
    trojan: (CoreId, ProcId, T),
    noise: &mut [ActorRef<'_>],
    hook: &mut dyn StepHook,
) -> Result<(S, T), ModelError>
where
    S: WindowAction + 'static,
    T: WindowAction + 'static,
{
    // Host-time span over the run; wall-clock only and recorded at the
    // end, so the simulated transcript is untouched.
    let host_start = std::time::Instant::now();
    let mut spy_actor = WindowedActor::new(schedule, windows + 1, spy.2);
    let mut trojan_actor = WindowedActor::new(schedule, windows, trojan.2);
    machine.trace_phase("transmit_start", windows as u64, schedule.start);
    {
        let mut actors: Vec<ActorRef<'_>> = vec![
            (spy.0, spy.1, &mut spy_actor),
            (trojan.0, trojan.1, &mut trojan_actor),
        ];
        for (core, proc, actor) in noise.iter_mut() {
            actors.push((*core, *proc, &mut **actor));
        }
        let horizon = schedule.horizon(windows, Cycles::new(100_000));
        run_actor_refs_hooked(machine, &mut actors, horizon, hook)?;
    }
    let t_end = machine.core_now(spy.0);
    machine.trace_phase("transmit_end", windows as u64, t_end);
    machine
        .obs_mut()
        .host
        .record("transmit", host_start.elapsed());
    Ok((spy_actor.action, trojan_actor.action))
}

/// The result of one transmission, whichever channel carried it.
#[derive(Debug, Clone)]
#[must_use = "a transmission outcome carries the decoded bits and error statistics"]
pub struct TransmitOutcome {
    /// What the trojan sent.
    pub sent: Vec<bool>,
    /// What the spy decoded.
    pub received: Vec<bool>,
    /// The spy's probe durations, one per monitored address per window;
    /// the first window is the prime probe. For the paper's channel these
    /// are de-biased single-line probes (the y-axis of Figures 6(b) and
    /// 8), for the Prime+Probe baselines raw whole-set sweeps (Figure 6(a)).
    pub probe_times: Vec<Cycles>,
    /// Positional bit errors.
    pub errors: BitErrors,
    /// Wall-clock (simulated) duration of the transmission.
    pub elapsed: Cycles,
    /// Achieved rate in kilobytes per second at the machine's clock.
    pub kbps: f64,
    /// The trojan's per-`1` active sending cost (≈ 9000 cycles, §5.4);
    /// empty for the trojans that do not record it.
    pub one_costs: Vec<Cycles>,
}

impl TransmitOutcome {
    /// The outcome of sending `sent` over `windows` windows of `schedule`:
    /// the spy decoded `received` (cut to `sent`'s length) from
    /// `probe_times`, and the trojan recorded `one_costs`.
    pub(crate) fn new(
        machine: &Machine,
        schedule: Schedule,
        windows: usize,
        sent: &[bool],
        mut received: Vec<bool>,
        probe_times: &[Cycles],
        one_costs: &[Cycles],
    ) -> Self {
        received.truncate(sent.len());
        TransmitOutcome {
            sent: sent.to_vec(),
            errors: BitErrors::compare(sent, &received),
            received,
            probe_times: probe_times.to_vec(),
            elapsed: schedule.elapsed(windows),
            kbps: schedule.kbps(machine, sent.len(), windows),
            one_costs: one_costs.to_vec(),
        }
    }

    /// Bit error rate in `[0, 1]`.
    #[must_use]
    pub fn error_rate(&self) -> f64 {
        self.errors.rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::setup::AttackSetup;

    /// Records every step it is given; window `i` follows `flows[i]`
    /// after one `Continue`.
    struct Script {
        flows: Vec<Flow>,
        seen: Vec<(usize, usize, u64)>,
    }

    impl WindowAction for Script {
        const LEAD_IN: bool = true;

        fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError> {
            self.seen.push((at.i, at.k, cpu.now().raw()));
            Ok(if at.k == 0 {
                Flow::Continue
            } else {
                self.flows[at.i]
            })
        }
    }

    #[test]
    fn driver_steps_follow_the_flows() {
        let mut setup = AttackSetup::quiet(41).unwrap();
        let (spy, trojan) = (setup.spy.core, setup.trojan.core);
        let schedule = Schedule::agree(&setup.machine, spy, trojan, Cycles::new(1_000)).unwrap();
        let script = Script {
            flows: vec![Flow::Wait, Flow::Next, Flow::Idle],
            seen: Vec::new(),
        };
        let mut actor = WindowedActor::new(schedule, 3, script);
        let mut cpu = setup.trojan_handle();
        let mut steps = 0;
        while actor.step(&mut cpu).unwrap() == StepOutcome::Running {
            steps += 1;
        }
        // Lead-in wait, window 0 (2 steps + wait), window 1 (2 steps),
        // window 2 (2 steps, the idle wait folded into the second).
        assert_eq!(steps, 1 + 3 + 2 + 2);
        let seen: Vec<(usize, usize)> = actor.action().seen.iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(seen, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 0), (2, 1)]);
        // Window 0 starts at its boundary; Wait holds window 1 back to its
        // boundary; Idle leaves the clock at the end boundary.
        assert_eq!(actor.action().seen[0].2, schedule.boundary(0).raw());
        assert_eq!(actor.action().seen[2].2, schedule.boundary(1).raw());
        assert_eq!(cpu.now(), schedule.boundary(3));
        // A finished actor stays finished.
        assert_eq!(actor.step(&mut cpu).unwrap(), StepOutcome::Done);
    }

    #[test]
    fn agree_starts_on_the_third_boundary_after_both_clocks() {
        let mut setup = AttackSetup::quiet(42).unwrap();
        setup.trojan_handle().busy_until(Cycles::new(12_345));
        let (spy, trojan) = (setup.spy.core, setup.trojan.core);
        let s = Schedule::agree(&setup.machine, spy, trojan, Cycles::new(1_000)).unwrap();
        assert_eq!(s.start, Cycles::new(15_000));
        assert_eq!(s.boundary(2), Cycles::new(17_000));
        assert_eq!(s.horizon(4, Cycles::new(5)), Cycles::new(22_005));
        assert_eq!(s.elapsed(4), Cycles::new(5_000));
    }

    #[test]
    fn agree_rejects_a_zero_window() {
        let setup = AttackSetup::quiet(43).unwrap();
        let (spy, trojan) = (setup.spy.core, setup.trojan.core);
        assert!(matches!(
            Schedule::agree(&setup.machine, spy, trojan, Cycles::ZERO),
            Err(ModelError::InvalidConfig { .. })
        ));
    }
}
