//! The typed event taxonomy of the trace layer.
//!
//! Every event is stamped with **simulated** time (the issuing core's clock
//! in cycles) and falls into one of four categories, which become the
//! Chrome-trace `cat` field:
//!
//! | category | events |
//! |---|---|
//! | `memory` | memory-op completions ([`EventKind::MemOp`]), LLC evictions |
//! | `tree` | integrity-tree walk steps, MEE-cache evictions |
//! | `fault` | fault-plan firings ([`EventKind::Fault`]) |
//! | `channel` | channel phase transitions ([`EventKind::Phase`]) |
//!
//! Events carry raw line numbers and ladder indices instead of the richer
//! workspace types so this crate sits *below* every simulator layer and can
//! be consumed by all of them.

use mee_types::Cycles;

/// Which instruction a [`EventKind::MemOp`] event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemOpKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// A `clflush` (evicts on-chip copies, spares the MEE cache).
    Clflush,
}

impl MemOpKind {
    /// Short lowercase label, stable across releases (trace schema).
    pub fn label(self) -> &'static str {
        match self {
            MemOpKind::Read => "read",
            MemOpKind::Write => "write",
            MemOpKind::Clflush => "clflush",
        }
    }
}

/// Where in the on-chip hierarchy a memory op was served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedAt {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared LLC hit.
    Llc,
    /// Missed on-chip; served from DRAM (plus the MEE for protected data).
    Dram,
}

impl ServedAt {
    /// Short lowercase label, stable across releases (trace schema).
    pub fn label(self) -> &'static str {
        match self {
            ServedAt::L1 => "l1",
            ServedAt::L2 => "l2",
            ServedAt::Llc => "llc",
            ServedAt::Dram => "dram",
        }
    }
}

/// One consulted level of an integrity-tree walk, in walk order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WalkLevel {
    /// The PD_Tag metadata line (always consulted, latency overlapped).
    PdTag,
    /// The versions level — the level the covert channel modulates.
    Versions,
    /// Tree level 0.
    L0,
    /// Tree level 1.
    L1,
    /// Tree level 2.
    L2,
    /// The on-die root (never misses).
    Root,
}

impl WalkLevel {
    /// Short lowercase label, stable across releases (trace schema).
    pub fn label(self) -> &'static str {
        match self {
            WalkLevel::PdTag => "pd_tag",
            WalkLevel::Versions => "versions",
            WalkLevel::L0 => "l0",
            WalkLevel::L1 => "l1",
            WalkLevel::L2 => "l2",
            WalkLevel::Root => "root",
        }
    }

    /// Maps the engine's hit-level ladder index (0 = versions hit … 4 =
    /// root) onto the walk level the walk stopped at.
    ///
    /// # Panics
    ///
    /// Panics on an index outside the 5-step ladder.
    pub fn from_ladder_index(index: usize) -> Self {
        match index {
            0 => WalkLevel::Versions,
            1 => WalkLevel::L0,
            2 => WalkLevel::L1,
            3 => WalkLevel::L2,
            4 => WalkLevel::Root,
            _ => panic!("hit-level ladder has 5 steps, got index {index}"),
        }
    }
}

/// The payload of one trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A completed memory instruction, with where it was served, whether
    /// the MEE walk ran (and where it stopped), and its total latency
    /// including background stalls.
    MemOp {
        /// Issuing core index.
        core: u32,
        /// Issuing process index.
        proc: u32,
        /// Which instruction.
        op: MemOpKind,
        /// The physical line touched.
        line: u64,
        /// Where the hierarchy served it (`None` for `clflush`, which
        /// removes rather than fetches).
        served: Option<ServedAt>,
        /// Where the MEE walk stopped, when the op reached the MEE.
        mee_level: Option<WalkLevel>,
        /// Total elapsed cycles charged to the issuing core.
        latency: u64,
    },
    /// One consulted level of an MEE integrity-tree walk.
    WalkStep {
        /// The level consulted.
        level: WalkLevel,
        /// The tree line looked up in the MEE cache.
        line: u64,
        /// Whether the MEE cache held it.
        hit: bool,
    },
    /// A tree line evicted from the MEE cache by a walk fill.
    MeeEvict {
        /// The evicted tree line.
        line: u64,
    },
    /// A line evicted from the shared LLC (triggering inclusive
    /// back-invalidation of the private caches).
    LlcEvict {
        /// The evicted line.
        line: u64,
    },
    /// A fault-plan event fired against the machine.
    Fault {
        /// The fault kind label (e.g. `"preempt"`, `"mee_set_thrash"`).
        kind: &'static str,
        /// Kind-specific argument: victim core, MEE set, page number, …
        arg: u64,
    },
    /// A channel phase transition (establishment and transmission
    /// milestones emitted by the attack layer).
    Phase {
        /// The phase name (e.g. `"transmit_start"`).
        name: &'static str,
        /// Phase-specific argument: bit count, eviction-set size, …
        arg: u64,
    },
}

impl EventKind {
    /// The event's trace category: `memory`, `tree`, `fault`, or
    /// `channel`.
    pub fn category(&self) -> &'static str {
        match self {
            EventKind::MemOp { .. } | EventKind::LlcEvict { .. } => "memory",
            EventKind::WalkStep { .. } | EventKind::MeeEvict { .. } => "tree",
            EventKind::Fault { .. } => "fault",
            EventKind::Phase { .. } => "channel",
        }
    }
}

/// One trace event: a simulated-time stamp plus the typed payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated time of the event, in cycles. For [`EventKind::MemOp`]
    /// this is the *issue* time (the event's duration is `latency`).
    pub at: Cycles,
    /// The typed payload.
    pub kind: EventKind,
}

impl Event {
    /// The event's trace category.
    pub fn category(&self) -> &'static str {
        self.kind.category()
    }

    /// The event as one deterministic JSON line (fixed key order, no
    /// whitespace) — the byte-identical-per-seed export format.
    pub fn json_line(&self) -> String {
        let at = self.at.raw();
        match self.kind {
            EventKind::MemOp {
                core,
                proc,
                op,
                line,
                served,
                mee_level,
                latency,
            } => {
                let served = match served {
                    Some(s) => format!("\"{}\"", s.label()),
                    None => "null".into(),
                };
                let mee = match mee_level {
                    Some(l) => format!("\"{}\"", l.label()),
                    None => "null".into(),
                };
                format!(
                    "{{\"at\":{at},\"cat\":\"memory\",\"ev\":\"mem\",\"core\":{core},\
                     \"proc\":{proc},\"op\":\"{}\",\"line\":{line},\"served\":{served},\
                     \"mee\":{mee},\"lat\":{latency}}}",
                    op.label()
                )
            }
            EventKind::WalkStep { level, line, hit } => format!(
                "{{\"at\":{at},\"cat\":\"tree\",\"ev\":\"walk\",\"level\":\"{}\",\
                 \"line\":{line},\"hit\":{hit}}}",
                level.label()
            ),
            EventKind::MeeEvict { line } => {
                format!("{{\"at\":{at},\"cat\":\"tree\",\"ev\":\"mee_evict\",\"line\":{line}}}")
            }
            EventKind::LlcEvict { line } => {
                format!("{{\"at\":{at},\"cat\":\"memory\",\"ev\":\"llc_evict\",\"line\":{line}}}")
            }
            EventKind::Fault { kind, arg } => format!(
                "{{\"at\":{at},\"cat\":\"fault\",\"ev\":\"fault\",\"kind\":\"{kind}\",\
                 \"arg\":{arg}}}"
            ),
            EventKind::Phase { name, arg } => format!(
                "{{\"at\":{at},\"cat\":\"channel\",\"ev\":\"phase\",\"name\":\"{name}\",\
                 \"arg\":{arg}}}"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn categories_cover_the_taxonomy() {
        let mem = EventKind::MemOp {
            core: 0,
            proc: 0,
            op: MemOpKind::Read,
            line: 1,
            served: Some(ServedAt::L1),
            mee_level: None,
            latency: 4,
        };
        assert_eq!(mem.category(), "memory");
        assert_eq!(
            EventKind::WalkStep {
                level: WalkLevel::Versions,
                line: 2,
                hit: true
            }
            .category(),
            "tree"
        );
        assert_eq!(EventKind::MeeEvict { line: 3 }.category(), "tree");
        assert_eq!(EventKind::LlcEvict { line: 4 }.category(), "memory");
        assert_eq!(
            EventKind::Fault {
                kind: "preempt",
                arg: 0
            }
            .category(),
            "fault"
        );
        assert_eq!(
            EventKind::Phase {
                name: "transmit_start",
                arg: 64
            }
            .category(),
            "channel"
        );
    }

    #[test]
    fn json_lines_are_stable() {
        let e = Event {
            at: Cycles::new(123),
            kind: EventKind::MemOp {
                core: 1,
                proc: 2,
                op: MemOpKind::Read,
                line: 99,
                served: Some(ServedAt::Dram),
                mee_level: Some(WalkLevel::Versions),
                latency: 480,
            },
        };
        assert_eq!(
            e.json_line(),
            "{\"at\":123,\"cat\":\"memory\",\"ev\":\"mem\",\"core\":1,\"proc\":2,\
             \"op\":\"read\",\"line\":99,\"served\":\"dram\",\"mee\":\"versions\",\"lat\":480}"
        );
        let f = Event {
            at: Cycles::new(7),
            kind: EventKind::Fault {
                kind: "mee_flush",
                arg: 0,
            },
        };
        assert_eq!(
            f.json_line(),
            "{\"at\":7,\"cat\":\"fault\",\"ev\":\"fault\",\"kind\":\"mee_flush\",\"arg\":0}"
        );
    }

    #[test]
    fn ladder_index_maps_onto_walk_levels() {
        assert_eq!(WalkLevel::from_ladder_index(0), WalkLevel::Versions);
        assert_eq!(WalkLevel::from_ladder_index(4), WalkLevel::Root);
    }

    #[test]
    #[should_panic(expected = "5 steps")]
    fn ladder_index_out_of_range_panics() {
        let _ = WalkLevel::from_ladder_index(5);
    }
}
