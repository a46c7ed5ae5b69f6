//! The trojan side of Algorithm 2.

use mee_machine::CoreHandle;
use mee_types::{Cycles, ModelError, VirtAddr};

use crate::channel::config::EvictionStrategy;
use crate::channel::windowed::{Flow, Slot, WindowAction};

/// The sending action: for every `1` bit it sweeps its eviction set through
/// the MEE cache (access + `clflush` per address, forward then — under
/// [`EvictionStrategy::TwoPhase`] — backward, as in Algorithm 2), evicting
/// the spy's versions line; for every `0` it stays idle for the window.
///
/// One refinement over the paper's pseudocode: the sweep's starting element
/// rotates from one `1` to the next (the order stays cyclic-forward then
/// cyclic-backward). Under a deterministic tree-PLRU model, a fixed sweep
/// order can fall into an *absorbing replacement-state cycle* in which the
/// monitor line survives every sweep and the channel silently dies; on real
/// hardware, ambient MEE traffic perturbs the replacement state and prevents
/// the lock-in. Rotating the start point restores that behaviour without
/// extra accesses.
///
/// Steps of a `1` window: one to note the start, one per forward access,
/// one `mfence`, one per backward access, then the driver's wait for the
/// next boundary.
#[derive(Debug)]
pub struct EvictionSweep {
    eviction_set: Vec<VirtAddr>,
    bits: Vec<bool>,
    strategy: EvictionStrategy,
    /// Sweep-start rotation, advanced per transmitted `1`.
    rotation: usize,
    /// Whether rotation is enabled (the ablation bench disables it to
    /// study the naive fixed order).
    rotate: bool,
    /// Cycles spent actively sending each `1` bit (diagnostics for the
    /// Figure-7 discussion: one `1` costs ≈ 9000 cycles).
    one_costs: Vec<Cycles>,
    one_started: Cycles,
}

impl EvictionSweep {
    /// Creates the trojan's action, sending `bits` one per window.
    ///
    /// # Panics
    ///
    /// Panics if the eviction set is empty.
    pub fn new(
        eviction_set: Vec<VirtAddr>,
        bits: Vec<bool>,
        strategy: EvictionStrategy,
        rotate: bool,
    ) -> Self {
        assert!(!eviction_set.is_empty(), "eviction set must be non-empty");
        EvictionSweep {
            eviction_set,
            bits,
            strategy,
            rotation: 0,
            rotate,
            one_costs: Vec::new(),
            one_started: Cycles::ZERO,
        }
    }

    /// The `j`-th element of the current cyclic sweep order. Both
    /// `rotation` and `j` are below `n`, so one subtraction wraps.
    fn sweep_addr(&self, j: usize) -> VirtAddr {
        let (n, i) = (self.eviction_set.len(), self.rotation + j);
        self.eviction_set[if i < n { i } else { i - n }]
    }

    /// Closes a `1`: records its cost, rotates the sweep start, and
    /// waits out the window ("busy loop for remaining time of T_sync").
    fn finish_one(&mut self, cpu: &CoreHandle<'_>) -> Flow {
        self.one_costs.push(cpu.now() - self.one_started);
        if self.rotate {
            self.rotation = (self.rotation + 1) % self.eviction_set.len();
        }
        Flow::Wait
    }

    /// Per-`1` active sending costs observed so far.
    pub fn one_costs(&self) -> &[Cycles] {
        &self.one_costs
    }
}

impl WindowAction for EvictionSweep {
    const LEAD_IN: bool = true;

    fn step(&mut self, at: Slot, cpu: &mut CoreHandle<'_>) -> Result<Flow, ModelError> {
        let (n, k) = (self.eviction_set.len(), at.k);
        if k == 0 {
            if !self.bits[at.i] {
                // Algorithm 2: "busy loop for time T_sync".
                return Ok(Flow::Idle);
            }
            self.one_started = cpu.now();
            return Ok(Flow::Continue);
        }
        // Steps 1..=n sweep forward, n+1 fences, n+2..=2n+1 sweep backward.
        if k == n + 1 {
            cpu.mfence();
            return Ok(match self.strategy {
                EvictionStrategy::TwoPhase => Flow::Continue,
                EvictionStrategy::ForwardOnly => self.finish_one(cpu),
            });
        }
        let addr = self.sweep_addr(if k <= n { k - 1 } else { 2 * n + 1 - k });
        // One read + `clflush` pair, translated once.
        cpu.sweep_read_flush(std::slice::from_ref(&addr))?;
        Ok(if k == 2 * n + 1 {
            self.finish_one(cpu)
        } else {
            Flow::Continue
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::windowed::{Schedule, WindowedActor};
    use crate::setup::AttackSetup;
    use mee_machine::{run_actor_refs_hooked, Actor, ActorRef, NoopHook, StepOutcome};

    fn schedule(start: u64, window: u64) -> Schedule {
        Schedule {
            start: Cycles::new(start),
            window: Cycles::new(window),
        }
    }

    #[test]
    fn zero_bits_cost_nothing_but_time() {
        let mut setup = AttackSetup::quiet(51).unwrap();
        let addrs = setup.trojan.candidates(8, 0);
        let mut trojan = WindowedActor::new(
            schedule(1_000, 15_000),
            3,
            EvictionSweep::new(addrs, vec![false; 3], EvictionStrategy::TwoPhase, true),
        );
        let reads_before = setup.machine.mee().stats().reads;
        let mut actors: Vec<ActorRef<'_>> =
            vec![(setup.trojan.core, setup.trojan.proc, &mut trojan)];
        run_actor_refs_hooked(
            &mut setup.machine,
            &mut actors,
            Cycles::new(1_000_000),
            &mut NoopHook,
        )
        .unwrap();
        assert_eq!(setup.machine.mee().stats().reads, reads_before);
        assert!(setup.machine.core_now(setup.trojan.core) >= Cycles::new(1_000 + 45_000));
    }

    #[test]
    fn one_bit_costs_about_9000_cycles() {
        let mut setup = AttackSetup::quiet(52).unwrap();
        let addrs = setup.trojan.candidates(8, 0);
        // Warm the eviction set once so the measurement reflects steady
        // state (mostly versions hits), as during a real transmission.
        {
            let mut cpu = setup.trojan_handle();
            for &a in &addrs {
                cpu.read(a).unwrap();
                cpu.clflush(a).unwrap();
            }
        }
        let start = setup.machine.core_now(setup.trojan.core) + Cycles::new(1_000);
        let mut trojan = WindowedActor::new(
            schedule(start.raw(), 15_000),
            4,
            EvictionSweep::new(addrs, vec![true; 4], EvictionStrategy::TwoPhase, true),
        );
        // Single actor: drive it directly, no scheduler needed.
        let mut cpu = setup.trojan_handle();
        while trojan.step(&mut cpu).unwrap() == StepOutcome::Running {}
        let costs = trojan.action().one_costs();
        assert_eq!(costs.len(), 4);
        for &c in costs {
            assert!(
                (7_000..=12_000).contains(&c.raw()),
                "one-bit cost {c} outside the §5.4 ballpark"
            );
        }
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_eviction_set_rejected() {
        let _ = EvictionSweep::new(Vec::new(), vec![true], EvictionStrategy::TwoPhase, true);
    }
}
