//! The hook that replays a [`FaultPlan`] against the machine.

use mee_machine::{HookSchedule, Machine, StepHook};
use mee_types::{Cycles, ModelError};

use crate::plan::{FaultEvent, FaultKind, FaultPlan};

/// A [`StepHook`] that applies a [`FaultPlan`] to the machine as global
/// time passes.
///
/// The deterministic scheduler calls [`StepHook::before_step`] with the
/// global clock (the chosen actor's core time) before every step; the
/// injector fires every event whose time has been reached, in plan order,
/// and records what it applied. Events are applied exactly once, so the
/// injector is single-use — build a fresh one (the plan is `Clone`) to
/// replay.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    cursor: usize,
    applied: Vec<FaultEvent>,
}

impl FaultInjector {
    /// An injector that will replay `plan` from the beginning.
    #[must_use]
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            cursor: 0,
            applied: Vec::new(),
        }
    }

    /// Events applied so far, in firing order.
    #[must_use]
    pub fn applied(&self) -> &[FaultEvent] {
        &self.applied
    }

    /// Events still waiting for their firing time.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.plan.len() - self.cursor
    }

    /// The plan this injector replays.
    #[must_use]
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn apply(machine: &mut Machine, event: FaultEvent) -> Result<(), ModelError> {
        match event.kind {
            FaultKind::Preempt { core, duration } => {
                machine.preempt_until(core, event.at + duration);
            }
            FaultKind::Migrate { core, downtime } => {
                machine.flush_private_caches(core);
                machine.preempt_until(core, event.at + downtime);
            }
            FaultKind::EpcEvict { proc, page } => {
                machine.epc_evict_page(proc, page)?;
            }
            FaultKind::ClockDrift { core, skew } => {
                machine.skew_clock(core, skew);
            }
            FaultKind::MeeSetThrash { set } => {
                machine.thrash_mee_set(set);
            }
            FaultKind::MeeFlush => machine.flush_mee_cache(),
        }
        machine.trace_fault(event.kind.label(), event.kind.trace_arg(), event.at);
        Ok(())
    }
}

impl StepHook for FaultInjector {
    fn before_step(&mut self, machine: &mut Machine, now: Cycles) -> Result<(), ModelError> {
        while let Some(&event) = self.plan.events().get(self.cursor) {
            if event.at > now {
                break;
            }
            self.cursor += 1;
            Self::apply(machine, event)?;
            self.applied.push(event);
        }
        Ok(())
    }

    /// The injector is a pure no-op until its next pending event's time,
    /// and idle once the plan drains — every effect it applies is keyed
    /// off `event.at`, not the observed `now`, so the scheduler may skip
    /// the silent calls without changing the replay.
    fn schedule(&self) -> HookSchedule {
        match self.plan.events().get(self.cursor) {
            Some(event) => HookSchedule::At(event.at),
            None => HookSchedule::Idle,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_machine::{CoreId, MachineConfig};
    use mee_mem::AddressSpaceKind;
    use mee_types::VirtAddr;

    fn machine() -> Machine {
        Machine::new(MachineConfig::small()).unwrap()
    }

    #[test]
    fn fires_due_events_once_and_in_order() {
        let c0 = CoreId::new(0);
        let plan = FaultPlan::none()
            .with_event(
                Cycles::new(1_000),
                FaultKind::Preempt {
                    core: c0,
                    duration: Cycles::new(5_000),
                },
            )
            .with_event(
                Cycles::new(2_000),
                FaultKind::ClockDrift {
                    core: c0,
                    skew: Cycles::new(300),
                },
            )
            .with_event(Cycles::new(90_000), FaultKind::MeeFlush);
        let mut m = machine();
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.pending(), 3);

        // Nothing due yet.
        inj.before_step(&mut m, Cycles::new(500)).unwrap();
        assert!(inj.applied().is_empty());

        // Both early events fire in one call, in order; the preemption
        // parks the core at event time + duration, then the drift adds on.
        inj.before_step(&mut m, Cycles::new(2_500)).unwrap();
        assert_eq!(inj.applied().len(), 2);
        assert_eq!(inj.applied()[0].at, Cycles::new(1_000));
        assert_eq!(m.core_now(c0), Cycles::new(6_300));
        assert_eq!(inj.pending(), 1);

        // Re-observing the same time does not re-fire anything.
        inj.before_step(&mut m, Cycles::new(2_500)).unwrap();
        assert_eq!(inj.applied().len(), 2);
    }

    #[test]
    fn migrate_flushes_private_caches_and_parks_the_core() {
        let c0 = CoreId::new(0);
        let mut m = machine();
        let p = m.create_process(AddressSpaceKind::Enclave);
        let base = VirtAddr::new(0x40000);
        m.map_pages(p, base, 1).unwrap();
        m.read(c0, p, base).unwrap();
        let line = m.translate(p, base).unwrap().line();
        assert!(m.core_caches_line(c0, line));

        let plan = FaultPlan::none().with_event(
            Cycles::new(100),
            FaultKind::Migrate {
                core: c0,
                downtime: Cycles::new(9_000),
            },
        );
        let mut inj = FaultInjector::new(plan);
        inj.before_step(&mut m, Cycles::new(150)).unwrap();
        assert!(!m.core_caches_line(c0, line), "private copies dropped");
        assert!(m.core_now(c0) >= Cycles::new(9_100), "downtime charged");
    }

    #[test]
    fn schedule_tracks_the_next_pending_event() {
        let plan = FaultPlan::none()
            .with_event(Cycles::new(1_000), FaultKind::MeeFlush)
            .with_event(Cycles::new(5_000), FaultKind::MeeFlush);
        let mut inj = FaultInjector::new(plan);
        assert_eq!(inj.schedule(), HookSchedule::At(Cycles::new(1_000)));

        let mut m = machine();
        inj.before_step(&mut m, Cycles::new(1_500)).unwrap();
        assert_eq!(inj.schedule(), HookSchedule::At(Cycles::new(5_000)));
        inj.before_step(&mut m, Cycles::new(9_000)).unwrap();
        assert_eq!(inj.schedule(), HookSchedule::Idle);
    }

    #[test]
    fn epc_evict_errors_propagate_from_the_hook() {
        let mut m = machine();
        let p = m.create_process(AddressSpaceKind::Enclave);
        let plan = FaultPlan::none().with_event(
            Cycles::new(10),
            FaultKind::EpcEvict {
                proc: p,
                page: VirtAddr::new(0x7000_0000), // never mapped
            },
        );
        let mut inj = FaultInjector::new(plan);
        let err = inj.before_step(&mut m, Cycles::new(20));
        assert!(matches!(err, Err(ModelError::PageFault { .. })));
    }
}
