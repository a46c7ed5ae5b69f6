//! Actors and the deterministic scheduler.
//!
//! The trojan, the spy, and the noise programs each run on their own core.
//! Concurrency is modeled as a discrete-event interleaving: at every turn,
//! the runnable actor whose core clock is furthest behind executes one step.
//! Because all shared state (LLC, MEE cache, DRAM banks) is touched in
//! global clock order, the interleaving is deterministic for a given seed —
//! every experiment in the paper can be replayed exactly.
//!
//! Actors should keep steps *small* (a handful of instructions): a step
//! executes atomically, so a step that issued thousands of instructions
//! could observe or mutate shared state out of clock order with respect to
//! other cores.

use mee_types::{Cycles, ModelError, VirtAddr};

use crate::machine::{CoreId, Machine, ProcId};

/// What an actor's step reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The actor has more work; schedule it again.
    Running,
    /// The actor finished; do not step it again.
    Done,
}

/// A program running on one core of the simulated machine.
pub trait Actor {
    /// Executes a small batch of instructions.
    ///
    /// # Errors
    ///
    /// Propagates any [`ModelError`] raised by the instructions issued.
    fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError>;
}

/// An actor's view of its core: every instruction primitive, bound to the
/// actor's core and process.
pub struct CoreHandle<'m> {
    machine: &'m mut Machine,
    core: CoreId,
    proc: ProcId,
}

impl<'m> CoreHandle<'m> {
    /// Creates a handle (normally done by the scheduler or
    /// [`Machine`]-driving test code).
    pub fn new(machine: &'m mut Machine, core: CoreId, proc: ProcId) -> Self {
        CoreHandle {
            machine,
            core,
            proc,
        }
    }

    /// The bound core.
    pub fn core(&self) -> CoreId {
        self.core
    }

    /// The bound process.
    pub fn proc(&self) -> ProcId {
        self.proc
    }

    /// The core's local clock (harness bookkeeping; in-character code should
    /// use [`Self::timer_read`] or [`Self::rdtsc`]).
    pub fn now(&self) -> Cycles {
        self.machine.core_now(self.core)
    }

    /// Read-only access to the whole machine (assertions in tests).
    pub fn machine(&self) -> &Machine {
        self.machine
    }

    /// Loads `va`; returns elapsed cycles. See [`Machine::read`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn read(&mut self, va: VirtAddr) -> Result<Cycles, ModelError> {
        self.machine.read(self.core, self.proc, va)
    }

    /// Stores to `va`. See [`Machine::write`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn write(&mut self, va: VirtAddr, digest: u64) -> Result<Cycles, ModelError> {
        self.machine.write(self.core, self.proc, va, digest)
    }

    /// Flushes `va` from the on-chip hierarchy. See [`Machine::clflush`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn clflush(&mut self, va: VirtAddr) -> Result<Cycles, ModelError> {
        self.machine.clflush(self.core, self.proc, va)
    }

    /// Loads `va`, then flushes its line; returns the load's elapsed
    /// cycles. See [`Machine::read_flush`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn read_flush(&mut self, va: VirtAddr) -> Result<Cycles, ModelError> {
        self.machine.read_flush(self.core, self.proc, va)
    }

    /// Read-then-flush sweep over `addrs`, in order — the establishment
    /// batch primitive. Bit-identical to the per-op loop; see
    /// [`Machine::sweep_read_flush`].
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn sweep_read_flush(&mut self, addrs: &[VirtAddr]) -> Result<Cycles, ModelError> {
        self.machine
            .sweep_read_flush(self.core, self.proc, addrs, false)
    }

    /// [`Self::sweep_read_flush`] in reverse address order (the backward
    /// pass of the paper's §5.3 two-phase sweep).
    ///
    /// # Errors
    ///
    /// Propagates machine errors.
    pub fn sweep_read_flush_rev(&mut self, addrs: &[VirtAddr]) -> Result<Cycles, ModelError> {
        self.machine
            .sweep_read_flush(self.core, self.proc, addrs, true)
    }

    /// Serializing fence.
    pub fn mfence(&mut self) -> Cycles {
        self.machine.mfence(self.core)
    }

    /// `rdtsc` — faults in enclave mode.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::IllegalInEnclave`] from enclave processes.
    pub fn rdtsc(&mut self) -> Result<Cycles, ModelError> {
        self.machine.rdtsc(self.core, self.proc)
    }

    /// Reads the hyperthread timer mailbox (legal everywhere, ~50 cycles,
    /// quantized).
    pub fn timer_read(&mut self) -> Cycles {
        self.machine.timer_read(self.core)
    }

    /// Timestamp via OCALL (8000–15000 cycles).
    pub fn ocall_rdtsc(&mut self) -> Cycles {
        self.machine.ocall_rdtsc(self.core)
    }

    /// Spins until the local clock reaches `deadline`.
    pub fn busy_until(&mut self, deadline: Cycles) {
        self.machine.busy_until(self.core, deadline);
    }

    /// Burns `cycles` of computation.
    pub fn advance(&mut self, cycles: Cycles) -> Cycles {
        self.machine.advance(self.core, cycles)
    }
}

/// A borrowed actor with its core/process binding, as consumed by
/// [`run_actor_refs_hooked`].
pub type ActorRef<'a> = (CoreId, ProcId, &'a mut (dyn Actor + 'static));

/// A scheduler hook invoked before actor steps, with the global simulation
/// time (the clock of the actor about to run). The fault injector lives
/// behind this trait: it applies every scheduled fault whose time has
/// passed, from *outside* any core's instruction stream, while the
/// scheduler's global clock order keeps the result deterministic.
pub trait StepHook {
    /// Called with the machine and the current global time before a step
    /// its [`Self::schedule`] asks for. May mutate the machine (clocks,
    /// caches); the scheduler re-selects the next actor afterwards.
    ///
    /// # Errors
    ///
    /// An error aborts the run and propagates to the caller.
    fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError>;

    /// When the hook next needs to observe the machine. The scheduler
    /// skips the `before_step` calls the schedule rules out.
    ///
    /// The default, [`HookSchedule::EveryStep`], is always safe. A hook
    /// may only narrow it if `before_step` is a pure no-op outside the
    /// declared times — i.e. before `At(t)` is reached, or always for
    /// `Idle` — otherwise narrowing changes the run. The scheduler
    /// re-queries after every `before_step` call, so `At` hooks advance
    /// their own horizon as they fire.
    fn schedule(&self) -> HookSchedule {
        HookSchedule::EveryStep
    }
}

/// When a [`StepHook`] next needs `before_step` called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HookSchedule {
    /// Call before every actor step.
    EveryStep,
    /// No effect until global time reaches this cycle: call before the
    /// first step at or after it.
    At(Cycles),
    /// Never needs calling again (drained fault plan, no-op hook).
    Idle,
}

/// The do-nothing hook: pass it to [`run_actor_refs_hooked`] to run
/// actors without fault injection.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopHook;

impl StepHook for NoopHook {
    fn before_step(&mut self, _machine: &mut Machine, _now: Cycles) -> Result<(), ModelError> {
        Ok(())
    }

    fn schedule(&self) -> HookSchedule {
        HookSchedule::Idle
    }
}

/// An actor that stops advancing its clock for this many consecutive steps
/// is declared deadlocked.
const STUCK_LIMIT: u32 = 100_000;

/// Runs `actors` concurrently until every actor is done or every runnable
/// actor's core clock has reached `horizon`, consulting `hook` before
/// steps — the machine's one scheduler, and the entry point for
/// deterministic fault injection ([`NoopHook`] runs without one). The
/// actors are borrowed, so callers keep their concrete types and can
/// inspect results after the run.
///
/// Each step runs the runnable actor with the smallest core clock below
/// `horizon`; the first binding slot wins ties. The hook is called first
/// whenever its [`HookSchedule`] is due at that clock, and the actor is
/// re-selected afterwards, since the hook may have moved clocks. See
/// `DESIGN.md`, "Scheduler".
///
/// The loop does not rescan the actors before every step. An actor's step
/// moves only its own core's clock (every [`CoreHandle`] primitive is
/// bound to the handle's core; only hooks move other clocks), so after a
/// pick the scan's answer stays the same while the picked actor's clock
/// stays below the other runnable clocks (equal to a higher slot's is
/// fine) and the horizon, and the hook is not due. The loop keeps stepping
/// that actor while all of that holds: the steps, the hook calls and the
/// deadlock guard are those of one scan per step.
///
/// # Errors
///
/// * Propagates the first [`ModelError`] raised by any actor or by the
///   hook.
/// * Returns [`ModelError::NoSuchCore`] / [`ModelError::InvalidConfig`] for
///   invalid bindings (out-of-range core, two actors on one core) or for an
///   actor that stops advancing its clock (deadlock guard).
pub fn run_actor_refs_hooked(
    machine: &mut Machine,
    actors: &mut [ActorRef<'_>],
    horizon: Cycles,
    hook: &mut dyn StepHook,
) -> Result<(), ModelError> {
    // Validate bindings.
    let mut seen = vec![false; machine.core_count()];
    for (core, _, _) in actors.iter() {
        let idx = core.index();
        if idx >= machine.core_count() {
            return Err(ModelError::NoSuchCore { core: idx });
        }
        if seen[idx] {
            return Err(ModelError::InvalidConfig {
                reason: format!("two actors bound to {core}"),
            });
        }
        seen[idx] = true;
    }

    let mut done = vec![false; actors.len()];
    let mut stuck_count = vec![0u32; actors.len()];
    // Host-time profiling of the step loop: wall-clock only, recorded on
    // exit — it cannot influence the simulated interleaving.
    let loop_start = std::time::Instant::now();
    let mut steps: u64 = 0;

    while let Some((mut slot, now)) = next_actor(machine, actors, &done, horizon) {
        if hook_due(hook, now) {
            hook.before_step(machine, now)?;
            match next_actor(machine, actors, &done, horizon) {
                Some((after_hook, _)) => slot = after_hook,
                None => break,
            }
        }

        // Run ahead: step `slot` for as long as the scan would pick it
        // again. A step moves only its own core's clock, so `limit` holds
        // until the hook next runs.
        let limit = run_ahead_limit(machine, actors, &done, horizon, slot);
        let (core, proc, actor) = &mut actors[slot];
        loop {
            let before = machine.core_now(*core);
            let outcome = actor.step(&mut CoreHandle::new(machine, *core, *proc))?;
            steps += 1;
            if outcome == StepOutcome::Done {
                done[slot] = true;
                break;
            }
            let after = machine.core_now(*core);
            if after == before {
                stuck_count[slot] += 1;
                if stuck_count[slot] > STUCK_LIMIT {
                    return Err(ModelError::InvalidConfig {
                        reason: format!(
                            "actor on {core} made {STUCK_LIMIT} steps without advancing its clock"
                        ),
                    });
                }
            } else {
                stuck_count[slot] = 0;
            }
            if after >= limit || hook_due(hook, after) {
                break;
            }
        }
    }

    machine
        .obs_mut()
        .host
        .record_n("actor_step_loop", steps, loop_start.elapsed());
    Ok(())
}

/// Whether `hook`'s schedule asks for a `before_step` call at `now`.
fn hook_due(hook: &dyn StepHook, now: Cycles) -> bool {
    match hook.schedule() {
        HookSchedule::EveryStep => true,
        HookSchedule::At(at) => now >= at,
        HookSchedule::Idle => false,
    }
}

/// The clock below which [`next_actor`] keeps picking `slot`, as long as
/// no other core's clock moves: `horizon`, every other runnable actor's
/// clock in a lower slot (which wins a tie), and one past every other
/// runnable actor's clock in a higher slot (which loses one).
fn run_ahead_limit(
    machine: &Machine,
    actors: &[ActorRef<'_>],
    done: &[bool],
    horizon: Cycles,
    slot: usize,
) -> Cycles {
    actors
        .iter()
        .enumerate()
        .filter(|&(other, _)| other != slot && !done[other])
        .map(|(other, (core, _, _))| {
            let clock = machine.core_now(*core);
            if other < slot {
                clock
            } else {
                Cycles::new(clock.raw().saturating_add(1))
            }
        })
        .fold(horizon, Cycles::min)
}

/// The runnable actor with the smallest core clock below `horizon`, and
/// that clock. `min_by_key` keeps the first minimum, so ties go to the
/// lowest binding slot.
fn next_actor(
    machine: &Machine,
    actors: &[ActorRef<'_>],
    done: &[bool],
    horizon: Cycles,
) -> Option<(usize, Cycles)> {
    actors
        .iter()
        .enumerate()
        .map(|(slot, (core, _, _))| (slot, machine.core_now(*core)))
        .filter(|&(slot, now)| !done[slot] && now < horizon)
        .min_by_key(|&(_, now)| now)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;
    use mee_mem::AddressSpaceKind;
    use mee_types::PAGE_SIZE;

    /// Reads a fixed page `n` times, recording latencies.
    struct Reader {
        base: VirtAddr,
        remaining: usize,
        latencies: Vec<Cycles>,
    }

    impl Actor for Reader {
        fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            if self.remaining == 0 {
                return Ok(StepOutcome::Done);
            }
            self.remaining -= 1;
            let lat = cpu.read(self.base)?;
            self.latencies.push(lat);
            Ok(StepOutcome::Running)
        }
    }

    /// Burns time forever (horizon-bounded).
    struct Spinner;

    impl Actor for Spinner {
        fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            cpu.advance(Cycles::new(100));
            Ok(StepOutcome::Running)
        }
    }

    /// Never advances the clock: must trip the deadlock guard.
    struct Stuck;

    impl Actor for Stuck {
        fn step(&mut self, _cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            Ok(StepOutcome::Running)
        }
    }

    fn setup() -> (Machine, ProcId, VirtAddr) {
        let mut m = Machine::new(MachineConfig::small()).unwrap();
        let p = m.create_process(AddressSpaceKind::Enclave);
        let base = VirtAddr::new(0x40_0000);
        m.map_pages(p, base, 2).unwrap();
        (m, p, base)
    }

    #[test]
    fn single_actor_runs_to_completion() {
        let (mut m, p, base) = setup();
        let mut reader = Reader {
            base,
            remaining: 5,
            latencies: Vec::new(),
        };
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut reader)];
        run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1_000_000), &mut NoopHook).unwrap();
        assert!(m.core_now(CoreId::new(0)) > Cycles::ZERO);
        assert_eq!(reader.latencies.len(), 5);
    }

    #[test]
    fn horizon_stops_infinite_actors() {
        let (mut m, p, _) = setup();
        let mut spinner = Spinner;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut spinner)];
        run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(10_000), &mut NoopHook).unwrap();
        let now = m.core_now(CoreId::new(0));
        assert!(now >= Cycles::new(10_000));
        assert!(now < Cycles::new(10_200));
    }

    #[test]
    fn actors_interleave_in_clock_order() {
        let (mut m, p, base) = setup();
        // Two readers on different cores sharing a page: the second one to
        // reach DRAM must hit the LLC instead, whichever interleaving — but
        // both clocks must end near each other (fair interleaving).
        let reader = |base| Reader {
            base,
            remaining: 50,
            latencies: Vec::new(),
        };
        let (mut first, mut second) = (reader(base), reader(base + PAGE_SIZE as u64));
        let mut actors: Vec<ActorRef<'_>> = vec![
            (CoreId::new(0), p, &mut first),
            (CoreId::new(1), p, &mut second),
        ];
        run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(10_000_000), &mut NoopHook).unwrap();
        let a = m.core_now(CoreId::new(0)).raw() as i64;
        let b = m.core_now(CoreId::new(1)).raw() as i64;
        assert!((a - b).abs() < 2_000, "clocks diverged: {a} vs {b}");
    }

    #[test]
    fn two_actors_one_core_rejected() {
        let (mut m, p, _) = setup();
        let (mut a, mut b) = (Spinner, Spinner);
        let mut actors: Vec<ActorRef<'_>> =
            vec![(CoreId::new(0), p, &mut a), (CoreId::new(0), p, &mut b)];
        assert!(
            run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1000), &mut NoopHook).is_err()
        );
    }

    #[test]
    fn out_of_range_core_rejected() {
        let (mut m, p, _) = setup();
        let mut spinner = Spinner;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(99), p, &mut spinner)];
        assert!(matches!(
            run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1000), &mut NoopHook),
            Err(ModelError::NoSuchCore { core: 99 })
        ));
    }

    #[test]
    fn stuck_actor_detected() {
        let (mut m, p, _) = setup();
        let mut stuck = Stuck;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut stuck)];
        assert!(
            run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1000), &mut NoopHook).is_err()
        );
    }

    #[test]
    fn hook_runs_at_global_time_and_may_move_clocks() {
        /// Preempts core 0 for 15_000 cycles the first time global time
        /// passes 2_000, and records every `now` it saw.
        struct PreemptOnce {
            fired: bool,
            times: Vec<u64>,
        }
        impl StepHook for PreemptOnce {
            fn before_step(
                &mut self,
                machine: &mut Machine,
                now: Cycles,
            ) -> Result<(), ModelError> {
                self.times.push(now.raw());
                if !self.fired && now >= Cycles::new(2_000) {
                    self.fired = true;
                    machine.preempt_until(CoreId::new(0), now + Cycles::new(15_000));
                }
                Ok(())
            }
        }
        let (mut m, p, _) = setup();
        let mut hook = PreemptOnce {
            fired: false,
            times: Vec::new(),
        };
        let mut spinner = Spinner;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut spinner)];
        run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(10_000), &mut hook).unwrap();
        assert!(hook.fired);
        // Global times are monotone (the hook never observes time going
        // backwards), and the preemption pushed the final clock past the
        // horizon plus the burst.
        assert!(hook.times.windows(2).all(|w| w[0] <= w[1]));
        assert!(m.core_now(CoreId::new(0)) >= Cycles::new(10_000));
    }

    /// The shared step log: `(actor id, core clock before the step)`.
    type StepLog = std::rc::Rc<std::cell::RefCell<Vec<(usize, u64)>>>;

    /// Advances 100 cycles per step, logging each step.
    struct Logger {
        id: usize,
        steps: usize,
        log: StepLog,
    }

    impl Actor for Logger {
        fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            if self.steps == 0 {
                return Ok(StepOutcome::Done);
            }
            self.steps -= 1;
            self.log.borrow_mut().push((self.id, cpu.now().raw()));
            cpu.advance(Cycles::new(100));
            Ok(StepOutcome::Running)
        }
    }

    /// Runs two loggers of `steps` steps, logger 0 in binding slot 0 on
    /// `cores[0]` and logger 1 in slot 1 on `cores[1]`; returns the step
    /// log and both final clocks.
    fn run_loggers(
        cores: [usize; 2],
        steps: usize,
        hook: &mut dyn StepHook,
    ) -> (Vec<(usize, u64)>, Cycles, Cycles) {
        let (mut m, p, _) = setup();
        let log = StepLog::default();
        let logger = |id| Logger {
            id,
            steps,
            log: log.clone(),
        };
        let (mut first, mut second) = (logger(0), logger(1));
        let (a, b) = (CoreId::new(cores[0]), CoreId::new(cores[1]));
        let mut actors: Vec<ActorRef<'_>> = vec![(a, p, &mut first), (b, p, &mut second)];
        run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1_000_000), hook).unwrap();
        (log.take(), m.core_now(a), m.core_now(b))
    }

    /// Equal clocks go to the lower binding slot, not the lower core: the
    /// logger in slot 0 (bound to core 1) steps first at every tie.
    #[test]
    fn ties_go_to_the_first_binding_slot() {
        let (log, _, _) = run_loggers([1, 0], 3, &mut NoopHook);
        assert_eq!(
            log,
            [(0, 0), (1, 0), (0, 100), (1, 100), (0, 200), (1, 200)]
        );
    }

    /// Preempts core 1 until 15_000 cycles after `at`, keyed off `at` like
    /// the fault injector, then goes idle — or, with `every_step`, asks to
    /// be called before every step and ignores the calls before `at` and
    /// after it fired.
    struct PreemptAt {
        at: Cycles,
        every_step: bool,
        fired: bool,
        calls: usize,
    }

    impl StepHook for PreemptAt {
        fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError> {
            self.calls += 1;
            if !self.fired && now >= self.at {
                self.fired = true;
                machine.preempt_until(CoreId::new(1), self.at + Cycles::new(15_000));
            }
            Ok(())
        }

        fn schedule(&self) -> HookSchedule {
            match (self.every_step, self.fired) {
                (true, _) => HookSchedule::EveryStep,
                (false, false) => HookSchedule::At(self.at),
                (false, true) => HookSchedule::Idle,
            }
        }
    }

    /// A hook's narrowed `At(t)`-then-`Idle` schedule skips only no-op
    /// calls: the run matches the same hook called before every step.
    #[test]
    fn hook_schedule_skips_only_no_op_calls() {
        let run = |every_step: bool| {
            let mut hook = PreemptAt {
                at: Cycles::new(2_050),
                every_step,
                fired: false,
                calls: 0,
            };
            let observed = run_loggers([0, 1], 100, &mut hook);
            assert!(hook.fired);
            (observed, hook.calls)
        };
        let (narrowed, narrowed_calls) = run(false);
        let (every, every_calls) = run(true);
        assert_eq!(narrowed, every);
        // Core 1 stepped at 2_000 (before `at`), then not until 17_050.
        let core1: Vec<u64> = narrowed
            .0
            .iter()
            .filter(|s| s.0 == 1)
            .map(|s| s.1)
            .collect();
        assert_eq!(core1[20..22], [2_000, 17_050]);
        assert_eq!(narrowed_calls, 1, "the At hook is called once, when due");
        assert!(every_calls > narrowed_calls);
    }

    /// One step of a [`ScriptedActor`].
    #[derive(Debug, Clone, Copy)]
    enum Scripted {
        /// Burn this many cycles (0 is a step that leaves the clock alone).
        Advance(u64),
        /// Report [`StepOutcome::Done`].
        Finish,
    }

    /// Plays its script one entry per step, logging `(slot, clock before
    /// the step)`, and finishes when the script runs out.
    struct ScriptedActor {
        slot: usize,
        script: Vec<Scripted>,
        next: usize,
        log: StepLog,
    }

    impl Actor for ScriptedActor {
        fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
            self.log.borrow_mut().push((self.slot, cpu.now().raw()));
            let entry = self.script.get(self.next).copied();
            self.next += 1;
            match entry {
                Some(Scripted::Advance(cycles)) => {
                    cpu.advance(Cycles::new(cycles));
                    Ok(StepOutcome::Running)
                }
                Some(Scripted::Finish) | None => Ok(StepOutcome::Done),
            }
        }
    }

    /// Replays `(at, core, preempt, cycles)` events the way the fault
    /// injector does — each once, at the first call at or after `at`,
    /// preempting the core until `at + cycles` or skewing its clock by
    /// `cycles` — and logs the `now` of every call. Its schedule is
    /// `EveryStep`, or `At` the next event and then `Idle`.
    struct ScriptedHook {
        events: Vec<(u64, usize, bool, u64)>,
        cursor: usize,
        every_step: bool,
        calls: Vec<u64>,
    }

    impl StepHook for ScriptedHook {
        fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError> {
            self.calls.push(now.raw());
            while let Some(&(at, core, preempt, cycles)) = self.events.get(self.cursor) {
                if at > now.raw() {
                    break;
                }
                self.cursor += 1;
                if preempt {
                    machine.preempt_until(CoreId::new(core), Cycles::new(at + cycles));
                } else {
                    machine.skew_clock(CoreId::new(core), Cycles::new(cycles));
                }
            }
            Ok(())
        }

        fn schedule(&self) -> HookSchedule {
            match (self.every_step, self.events.get(self.cursor)) {
                (true, _) => HookSchedule::EveryStep,
                (false, Some(&(at, ..))) => HookSchedule::At(Cycles::new(at)),
                (false, None) => HookSchedule::Idle,
            }
        }
    }

    /// The scheduler loop with one scan per step: the reference that
    /// [`run_actor_refs_hooked`]'s run-ahead must match.
    fn run_one_scan_per_step(
        machine: &mut Machine,
        actors: &mut [ActorRef<'_>],
        horizon: Cycles,
        hook: &mut dyn StepHook,
    ) -> Result<(), ModelError> {
        let mut done = vec![false; actors.len()];
        let mut stuck_count = vec![0u32; actors.len()];
        while let Some((mut slot, now)) = next_actor(machine, actors, &done, horizon) {
            if hook_due(hook, now) {
                hook.before_step(machine, now)?;
                match next_actor(machine, actors, &done, horizon) {
                    Some((after_hook, _)) => slot = after_hook,
                    None => break,
                }
            }
            let (core, proc, actor) = &mut actors[slot];
            let before = machine.core_now(*core);
            if actor.step(&mut CoreHandle::new(machine, *core, *proc))? == StepOutcome::Done {
                done[slot] = true;
            } else if machine.core_now(*core) == before {
                stuck_count[slot] += 1;
                if stuck_count[slot] > STUCK_LIMIT {
                    return Err(ModelError::InvalidConfig {
                        reason: "stuck".into(),
                    });
                }
            } else {
                stuck_count[slot] = 0;
            }
        }
        Ok(())
    }

    /// The run-ahead scheduler takes exactly the steps, in exactly the
    /// order and at exactly the clocks, and makes exactly the hook calls,
    /// of one scan per step — over scripted actors with clock ties,
    /// zero-advance steps and early `Done`s, with no hook, a hook called
    /// before every step, and an `At`-then-`Idle` hook that preempts and
    /// skews clocks.
    #[test]
    fn run_ahead_matches_one_scan_per_step() {
        use mee_rng::prop::{check, pick, vec_of, PropConfig};
        check(
            "run_ahead_matches_one_scan_per_step",
            &PropConfig::from_env(48),
            |rng| {
                let n = rng.random_range(2..4usize);
                let scripts: Vec<Vec<Scripted>> = (0..n)
                    .map(|_| {
                        vec_of(rng, 0..80, |r| match r.random_range(0..40u32) {
                            0 => Scripted::Finish,
                            1..=8 => Scripted::Advance(0),
                            _ => Scripted::Advance(pick(r, &[50, 100, 150, 400])),
                        })
                    })
                    .collect();
                let mut cores: Vec<usize> = (0..4).collect();
                rng.shuffle(&mut cores);
                let horizon = Cycles::new(rng.random_range(500..6_000u64));
                let mut events = vec_of(rng, 0..6, |r| {
                    let at = r.random_range(0..5_000u64);
                    (
                        at,
                        cores[r.random_range(0..n)],
                        r.random(),
                        pick(r, &[0, 50, 100, 700]),
                    )
                });
                events.sort_by_key(|e| e.0);

                // `None`: no hook; `Some(every_step)`: the scripted hook.
                for mode in [None, Some(true), Some(false)] {
                    let run = |run_ahead: bool| {
                        let (mut m, p, _) = setup();
                        let log = StepLog::default();
                        let mut actors: Vec<ScriptedActor> = scripts
                            .iter()
                            .enumerate()
                            .map(|(slot, script)| ScriptedActor {
                                slot,
                                script: script.clone(),
                                next: 0,
                                log: log.clone(),
                            })
                            .collect();
                        let mut refs: Vec<ActorRef<'_>> = actors
                            .iter_mut()
                            .zip(&cores)
                            .map(|(a, &c)| (CoreId::new(c), p, a as &mut dyn Actor))
                            .collect();
                        let mut scripted = ScriptedHook {
                            events: events.clone(),
                            cursor: 0,
                            every_step: mode == Some(true),
                            calls: Vec::new(),
                        };
                        let hook: &mut dyn StepHook = match mode {
                            None => &mut NoopHook,
                            Some(_) => &mut scripted,
                        };
                        let result = if run_ahead {
                            run_actor_refs_hooked(&mut m, &mut refs, horizon, hook)
                        } else {
                            run_one_scan_per_step(&mut m, &mut refs, horizon, hook)
                        };
                        let clocks: Vec<Cycles> =
                            cores.iter().map(|&c| m.core_now(CoreId::new(c))).collect();
                        (result.is_ok(), log.take(), scripted.calls, clocks)
                    };
                    assert_eq!(run(true), run(false), "hook mode {mode:?}");
                }
            },
        );
    }

    #[test]
    fn hook_errors_abort_the_run() {
        struct Abort;
        impl StepHook for Abort {
            fn before_step(
                &mut self,
                _machine: &mut Machine,
                _now: Cycles,
            ) -> Result<(), ModelError> {
                Err(ModelError::InvalidConfig {
                    reason: "hook abort".into(),
                })
            }
        }
        let (mut m, p, _) = setup();
        let mut spinner = Spinner;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut spinner)];
        assert!(matches!(
            run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1_000), &mut Abort),
            Err(ModelError::InvalidConfig { .. })
        ));
    }

    #[test]
    fn actor_errors_propagate() {
        struct Faulter;
        impl Actor for Faulter {
            fn step(&mut self, cpu: &mut CoreHandle<'_>) -> Result<StepOutcome, ModelError> {
                cpu.read(VirtAddr::new(0xdead_0000))?;
                Ok(StepOutcome::Running)
            }
        }
        let (mut m, p, _) = setup();
        let mut faulter = Faulter;
        let mut actors: Vec<ActorRef<'_>> = vec![(CoreId::new(0), p, &mut faulter)];
        assert!(matches!(
            run_actor_refs_hooked(&mut m, &mut actors, Cycles::new(1000), &mut NoopHook),
            Err(ModelError::PageFault { .. })
        ));
    }
}
