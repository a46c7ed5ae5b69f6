//! Replayable fault plans: what goes wrong, and when.

use mee_machine::{CoreId, ProcId};
use mee_rng::{stream_seed, Rng};
use mee_types::{Cycles, VirtAddr};

/// One kind of structured adversity the injector can apply to the machine.
///
/// Every variant is something the OS, the scheduler, or a co-runner does
/// *to* the attack without its cooperation; none of them require the spy or
/// the trojan to misbehave.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// An OS preemption burst (interrupt storm, scheduler tick): `core`
    /// executes nothing for `duration` cycles starting at the event time.
    /// A core that was sleeping past the burst absorbs it for free.
    Preempt {
        /// The victim core.
        core: CoreId,
        /// How long the core is descheduled.
        duration: Cycles,
    },
    /// The scheduler migrates the thread on `core` off and back: its
    /// private L1/L2 contents are lost and the thread is off-core for
    /// `downtime` cycles. The channel's shared state in the LLC and the
    /// MEE cache survives, which is why the attack tolerates migrations.
    Migrate {
        /// The core whose thread bounces.
        core: CoreId,
        /// Round-trip scheduling delay.
        downtime: Cycles,
    },
    /// The SGX driver evicts the enclave page at `page` from the EPC and
    /// immediately re-loads it (`EWB` + `ELDU`): every line of the page
    /// leaves the whole cache hierarchy and the page's version/PD_Tag
    /// lines leave the MEE cache, so the next access pays a deep
    /// integrity-tree walk.
    EpcEvict {
        /// The enclave that owns the page.
        proc: ProcId,
        /// Page-aligned virtual address of the evicted page.
        page: VirtAddr,
    },
    /// Transient inter-core timer drift: `core`'s clock is skewed forward
    /// by `skew` cycles, displacing whatever it does next — even a window
    /// sleep. Models the hyperthread timer mailbox lagging.
    ClockDrift {
        /// The core whose timeline slips.
        core: CoreId,
        /// Size of the slip.
        skew: Cycles,
    },
    /// A co-runner's eviction set lands in MEE-cache set `set`, knocking
    /// out every resident line of that set (including the channel's
    /// version line, if that is the set being modulated).
    MeeSetThrash {
        /// The MEE-cache set index being thrashed.
        set: usize,
    },
    /// Whole-MEE-cache flush: heavy enclave paging or an integrity-tree
    /// sweep drops every cached tree line at once.
    MeeFlush,
}

impl FaultKind {
    /// Short stable label for logs and summary tables.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::Preempt { .. } => "preempt",
            FaultKind::Migrate { .. } => "migrate",
            FaultKind::EpcEvict { .. } => "epc-evict",
            FaultKind::ClockDrift { .. } => "drift",
            FaultKind::MeeSetThrash { .. } => "set-thrash",
            FaultKind::MeeFlush => "mee-flush",
        }
    }

    /// The kind-specific argument carried into the event trace alongside
    /// [`Self::label`]: the victim core, the thrashed MEE set, the evicted
    /// page's raw virtual address, or `0` for [`FaultKind::MeeFlush`].
    #[must_use]
    pub fn trace_arg(&self) -> u64 {
        match self {
            FaultKind::Preempt { core, .. }
            | FaultKind::Migrate { core, .. }
            | FaultKind::ClockDrift { core, .. } => core.index() as u64,
            FaultKind::EpcEvict { page, .. } => page.raw(),
            FaultKind::MeeSetThrash { set } => *set as u64,
            FaultKind::MeeFlush => 0,
        }
    }
}

/// A [`FaultKind`] scheduled at a global cycle count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Global time at which the fault fires. The injector applies it just
    /// before the first scheduler step whose global clock reaches `at`.
    pub at: Cycles,
    /// What happens.
    pub kind: FaultKind,
}

/// How much adversity a generated plan contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum FaultIntensity {
    /// No faults at all — the baseline.
    Off,
    /// Occasional short preemptions, mild drift, a rare MEE flush. The
    /// channel should shrug this off with at most a few retransmissions.
    Light,
    /// Frequent long preemption bursts, a migration, sustained drift,
    /// co-runner set thrashing, EPC evictions, and repeated MEE flushes.
    /// Raw (non-recovering) BER degrades several-fold; the recovering
    /// stack must fall back to wider windows to converge.
    Heavy,
}

impl FaultIntensity {
    /// All intensities, in sweep order.
    pub const ALL: [FaultIntensity; 3] = [
        FaultIntensity::Off,
        FaultIntensity::Light,
        FaultIntensity::Heavy,
    ];

    /// Stable label for tables and JSON.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            FaultIntensity::Off => "off",
            FaultIntensity::Light => "light",
            FaultIntensity::Heavy => "heavy",
        }
    }
}

/// What a generated plan aims at: the attack cores plus (optionally) the
/// enclave page and MEE-cache set the channel depends on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultTargets {
    /// Core running the spy (receiver) — preferred preemption victim,
    /// since a late probe is what actually corrupts bits.
    pub spy_core: CoreId,
    /// Core running the trojan (sender).
    pub trojan_core: CoreId,
    /// Enclave and page hosting the monitored address, for EPC evictions.
    /// `None` disables [`FaultKind::EpcEvict`] in generated plans.
    pub victim_page: Option<(ProcId, VirtAddr)>,
    /// MEE-cache set index the channel modulates, for targeted thrashing.
    /// `None` disables [`FaultKind::MeeSetThrash`] in generated plans.
    pub mee_set: Option<usize>,
}

impl FaultTargets {
    /// Targets with only the two attack cores known (no EPC eviction or
    /// set thrashing in generated plans).
    #[must_use]
    pub fn cores(spy_core: CoreId, trojan_core: CoreId) -> Self {
        FaultTargets {
            spy_core,
            trojan_core,
            victim_page: None,
            mee_set: None,
        }
    }

    /// Adds the enclave page hosting the monitored address.
    #[must_use]
    pub fn with_victim_page(mut self, proc: ProcId, page: VirtAddr) -> Self {
        self.victim_page = Some((proc, page));
        self
    }

    /// Adds the MEE-cache set the channel modulates.
    #[must_use]
    pub fn with_mee_set(mut self, set: usize) -> Self {
        self.mee_set = Some(set);
        self
    }
}

/// A replayable script of fault events, kept sorted by firing time.
///
/// Plans are plain data: build one by hand for a surgical test, or let
/// [`FaultPlan::generate`] draw a structured random plan from a seed.
/// Events at equal times keep their insertion order, so construction is
/// deterministic end to end.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan — a no-op injector.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan { events: Vec::new() }
    }

    /// A plan from explicit events; sorts them by firing time (stable, so
    /// same-cycle events keep the given order).
    #[must_use]
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at.raw());
        FaultPlan { events }
    }

    /// Returns the plan with one more event, re-sorted.
    #[must_use]
    pub fn with_event(mut self, at: Cycles, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self.events.sort_by_key(|e| e.at.raw());
        self
    }

    /// Returns the plan with every firing time moved `offset` cycles later
    /// — for re-aiming a plan generated before the session start time was
    /// known.
    #[must_use]
    pub fn shifted(mut self, offset: Cycles) -> Self {
        for e in &mut self.events {
            e.at += offset;
        }
        self
    }

    /// The scheduled events, sorted by firing time.
    #[must_use]
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Draws a structured random plan over `[start, start + span)` from
    /// `seed`.
    ///
    /// Event *mix* is fixed by `intensity` (see [`FaultIntensity`]); event
    /// *times and magnitudes* are drawn uniformly from the seeded stream.
    /// Event counts scale with `span`, so longer transmissions face
    /// proportionally more adversity. Preemption bursts favor the spy core
    /// — a late probe, not a late sweep, is what corrupts a bit.
    #[must_use]
    pub fn generate(
        intensity: FaultIntensity,
        targets: &FaultTargets,
        start: Cycles,
        span: Cycles,
        seed: u64,
    ) -> FaultPlan {
        let mut rng = Rng::seed_from_u64(seed);
        let window = span.raw().max(1);
        let count = |per: u64, min: u64| (window / per).max(min);
        let mut events = Vec::new();
        let push = |rng: &mut Rng, events: &mut Vec<FaultEvent>, kind: FaultKind| {
            let at = Cycles::new(start.raw() + rng.random_range(0..window));
            events.push(FaultEvent { at, kind });
        };
        match intensity {
            FaultIntensity::Off => {}
            FaultIntensity::Light => {
                for _ in 0..count(1_200_000, 1) {
                    let kind = FaultKind::Preempt {
                        core: targets.spy_core,
                        duration: Cycles::new(rng.random_range(2_000..=8_000u64)),
                    };
                    push(&mut rng, &mut events, kind);
                }
                for _ in 0..count(800_000, 1) {
                    let kind = FaultKind::ClockDrift {
                        core: targets.trojan_core,
                        skew: Cycles::new(rng.random_range(200..=600u64)),
                    };
                    push(&mut rng, &mut events, kind);
                }
                for _ in 0..count(5_000_000, 1) {
                    push(&mut rng, &mut events, FaultKind::MeeFlush);
                }
            }
            // The heavy mix is a dense but *finite* storm: short
            // preemption bursts and clock skews land inside the spy's
            // timed bracket and inflate the measured latency, while MEE
            // set thrashes evict the monitored versions line mid-window
            // (a `0` bit is fragile to that for its whole window). No
            // single window width out-runs a process this dense — which
            // is the point: a non-recovering transmission is shredded,
            // and the recovering stack survives by backing off, widening
            // its windows, and retransmitting until the storm passes.
            FaultIntensity::Heavy => {
                for _ in 0..count(150_000, 3) {
                    let kind = FaultKind::Preempt {
                        core: targets.spy_core,
                        duration: Cycles::new(rng.random_range(2_000..=8_000u64)),
                    };
                    push(&mut rng, &mut events, kind);
                }
                for _ in 0..count(1_200_000, 1) {
                    let kind = FaultKind::Preempt {
                        core: targets.trojan_core,
                        duration: Cycles::new(rng.random_range(2_000..=8_000u64)),
                    };
                    push(&mut rng, &mut events, kind);
                }
                let kind = FaultKind::Migrate {
                    core: targets.spy_core,
                    downtime: Cycles::new(rng.random_range(12_000..=25_000u64)),
                };
                push(&mut rng, &mut events, kind);
                for i in 0..count(60_000, 2) {
                    let core = if i % 2 == 0 {
                        targets.spy_core
                    } else {
                        targets.trojan_core
                    };
                    let kind = FaultKind::ClockDrift {
                        core,
                        skew: Cycles::new(rng.random_range(400..=1_200u64)),
                    };
                    push(&mut rng, &mut events, kind);
                }
                for _ in 0..count(2_000_000, 1) {
                    push(&mut rng, &mut events, FaultKind::MeeFlush);
                }
                if let Some(set) = targets.mee_set {
                    for _ in 0..count(300_000, 2) {
                        push(&mut rng, &mut events, FaultKind::MeeSetThrash { set });
                    }
                }
                if let Some((proc, page)) = targets.victim_page {
                    for _ in 0..2 {
                        push(&mut rng, &mut events, FaultKind::EpcEvict { proc, page });
                    }
                }
            }
        }
        FaultPlan::new(events)
    }

    /// Per-session plan: like [`FaultPlan::generate`] but seeded with
    /// [`stream_seed`]`(root_seed, session)`, so a sweep gives every
    /// session an independent yet replayable fault stream — the same
    /// splitting discipline the sweep runner uses for session seeds.
    #[must_use]
    pub fn for_session(
        intensity: FaultIntensity,
        targets: &FaultTargets,
        start: Cycles,
        span: Cycles,
        root_seed: u64,
        session: u64,
    ) -> FaultPlan {
        FaultPlan::generate(
            intensity,
            targets,
            start,
            span,
            stream_seed(root_seed, session),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn targets() -> FaultTargets {
        FaultTargets::cores(CoreId::new(0), CoreId::new(1)).with_mee_set(3)
    }

    #[test]
    fn new_sorts_and_with_event_keeps_sorted() {
        let drift = FaultKind::ClockDrift {
            core: CoreId::new(0),
            skew: Cycles::new(100),
        };
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: Cycles::new(500),
                kind: FaultKind::MeeFlush,
            },
            FaultEvent {
                at: Cycles::new(100),
                kind: drift,
            },
        ])
        .with_event(Cycles::new(300), FaultKind::MeeSetThrash { set: 1 });
        let times: Vec<u64> = plan.events().iter().map(|e| e.at.raw()).collect();
        assert_eq!(times, vec![100, 300, 500]);
    }

    #[test]
    fn generate_is_deterministic_and_bounded() {
        let t = targets();
        let a = FaultPlan::generate(
            FaultIntensity::Heavy,
            &t,
            Cycles::new(50_000),
            Cycles::new(3_000_000),
            2019,
        );
        let b = FaultPlan::generate(
            FaultIntensity::Heavy,
            &t,
            Cycles::new(50_000),
            Cycles::new(3_000_000),
            2019,
        );
        assert_eq!(a, b, "same seed, same plan");
        assert!(!a.is_empty());
        assert!(a
            .events()
            .iter()
            .all(|e| e.at >= Cycles::new(50_000) && e.at < Cycles::new(3_050_000)));
        assert!(
            a.events().windows(2).all(|w| w[0].at <= w[1].at),
            "events sorted"
        );
    }

    #[test]
    fn off_is_empty_and_intensities_scale() {
        let t = targets();
        let span = Cycles::new(4_000_000);
        let off = FaultPlan::generate(FaultIntensity::Off, &t, Cycles::ZERO, span, 7);
        let light = FaultPlan::generate(FaultIntensity::Light, &t, Cycles::ZERO, span, 7);
        let heavy = FaultPlan::generate(FaultIntensity::Heavy, &t, Cycles::ZERO, span, 7);
        assert!(off.is_empty());
        assert!(!light.is_empty());
        assert!(
            heavy.len() > light.len(),
            "heavy ({}) should out-schedule light ({})",
            heavy.len(),
            light.len()
        );
    }

    #[test]
    fn session_streams_are_independent() {
        let t = targets();
        let span = Cycles::new(2_000_000);
        let s0 = FaultPlan::for_session(FaultIntensity::Heavy, &t, Cycles::ZERO, span, 2019, 0);
        let s1 = FaultPlan::for_session(FaultIntensity::Heavy, &t, Cycles::ZERO, span, 2019, 1);
        assert_ne!(s0, s1, "sessions draw from split streams");
        let again = FaultPlan::for_session(FaultIntensity::Heavy, &t, Cycles::ZERO, span, 2019, 0);
        assert_eq!(s0, again);
    }

    #[test]
    fn optional_targets_gate_their_fault_kinds() {
        let bare = FaultTargets::cores(CoreId::new(0), CoreId::new(1));
        let plan = FaultPlan::generate(
            FaultIntensity::Heavy,
            &bare,
            Cycles::ZERO,
            Cycles::new(3_000_000),
            11,
        );
        assert!(plan.events().iter().all(|e| !matches!(
            e.kind,
            FaultKind::EpcEvict { .. } | FaultKind::MeeSetThrash { .. }
        )));
    }

    #[test]
    fn shifted_moves_every_event() {
        let plan = FaultPlan::none().with_event(Cycles::new(10), FaultKind::MeeFlush);
        let moved = plan.shifted(Cycles::new(990));
        assert_eq!(moved.events()[0].at, Cycles::new(1_000));
    }
}
