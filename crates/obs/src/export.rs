//! Trace exporters: deterministic JSON-lines and Chrome `trace_event`.
//!
//! The JSON-lines form ([`event_jsonl`]) is the byte-identical-per-seed
//! format used by the determinism tests and golden snapshots. The Chrome
//! form ([`chrome_trace`]) renders the same events for
//! `chrome://tracing` / Perfetto: one simulated **cycle** is rendered as
//! one trace **microsecond** (the format has no cycle unit), memory ops
//! become complete (`"X"`) slices on their issuing core's lane, and
//! tree / fault / channel events become instants on dedicated lanes.

use crate::event::{Event, EventKind};
use crate::metrics::MetricsRegistry;
use crate::profile::HostProfile;

/// Synthetic lane (tid) for shared-LLC eviction instants.
pub const LLC_TID: u32 = 99;
/// Synthetic lane (tid) for integrity-tree events.
pub const TREE_TID: u32 = 100;
/// Synthetic lane (tid) for fault firings.
pub const FAULT_TID: u32 = 101;
/// Synthetic lane (tid) for channel phase transitions.
pub const CHANNEL_TID: u32 = 102;

/// Everything the Chrome exporter embeds besides the events themselves.
#[derive(Debug, Clone, Copy, Default)]
pub struct ChromeTraceOptions<'a> {
    /// The session seed, recorded in the trace metadata.
    pub seed: u64,
    /// Core count, for per-core lane naming.
    pub cores: usize,
    /// Events overwritten by the bounded ring before export.
    pub dropped: u64,
    /// Metrics snapshot to embed under `"meeMetrics"`.
    pub metrics: Option<&'a MetricsRegistry>,
    /// Host-time profile to embed under `"hostProfile"` (host ns — never
    /// golden-compared).
    pub host: Option<&'a HostProfile>,
}

/// The events as deterministic JSON lines (one event per line, trailing
/// newline when non-empty).
pub fn event_jsonl(events: &[Event]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.json_line());
        out.push('\n');
    }
    out
}

fn chrome_event(event: &Event) -> String {
    let ts = event.at.raw();
    let cat = event.category();
    match event.kind {
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
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{ts},\
                 \"dur\":{latency},\"pid\":0,\"tid\":{core},\"args\":{{\"proc\":{proc},\
                 \"line\":{line},\"served\":{served},\"mee\":{mee}}}}}",
                op.label()
            )
        }
        EventKind::WalkStep { level, line, hit } => format!(
            "{{\"name\":\"walk:{}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":0,\"tid\":{TREE_TID},\"s\":\"t\",\"args\":{{\"line\":{line},\
             \"hit\":{hit}}}}}",
            level.label()
        ),
        EventKind::MeeEvict { line } => format!(
            "{{\"name\":\"mee_evict\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":0,\"tid\":{TREE_TID},\"s\":\"t\",\"args\":{{\"line\":{line}}}}}"
        ),
        EventKind::LlcEvict { line } => format!(
            "{{\"name\":\"llc_evict\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":0,\"tid\":{LLC_TID},\"s\":\"t\",\"args\":{{\"line\":{line}}}}}"
        ),
        EventKind::Fault { kind, arg } => format!(
            "{{\"name\":\"{kind}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":0,\"tid\":{FAULT_TID},\"s\":\"t\",\"args\":{{\"arg\":{arg}}}}}"
        ),
        EventKind::Phase { name, arg } => format!(
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"ts\":{ts},\
             \"pid\":0,\"tid\":{CHANNEL_TID},\"s\":\"t\",\"args\":{{\"arg\":{arg}}}}}"
        ),
    }
}

fn thread_name(tid: u32, name: &str) -> String {
    format!(
        "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
         \"args\":{{\"name\":\"{name}\"}}}}"
    )
}

/// The events (plus embedded metrics and host profile) as one Chrome
/// `trace_event` JSON document, loadable in `chrome://tracing` or
/// Perfetto.
pub fn chrome_trace(events: &[Event], opts: &ChromeTraceOptions<'_>) -> String {
    let mut trace_events = Vec::with_capacity(events.len() + opts.cores + 6);
    trace_events.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\
         \"args\":{\"name\":\"mee-sim\"}}"
            .to_string(),
    );
    for core in 0..opts.cores {
        trace_events.push(thread_name(core as u32, &format!("core {core}")));
    }
    trace_events.push(thread_name(LLC_TID, "llc"));
    trace_events.push(thread_name(TREE_TID, "integrity tree"));
    trace_events.push(thread_name(FAULT_TID, "faults"));
    trace_events.push(thread_name(CHANNEL_TID, "channel"));
    trace_events.extend(events.iter().map(chrome_event));

    let metrics = match opts.metrics {
        Some(m) => m.to_json(),
        None => "null".into(),
    };
    let host = match opts.host {
        Some(p) => p.to_json(),
        None => "null".into(),
    };
    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\",\
         \"meta\":{{\"seed\":{},\"events\":{},\"dropped\":{},\
         \"time_unit\":\"1 ts = 1 sim cycle\"}},\
         \"meeMetrics\":{metrics},\"hostProfile\":{host}}}",
        trace_events.join(","),
        opts.seed,
        events.len(),
        opts.dropped
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MemOpKind, ServedAt, WalkLevel};
    use mee_types::Cycles;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                at: Cycles::new(10),
                kind: EventKind::MemOp {
                    core: 1,
                    proc: 2,
                    op: MemOpKind::Read,
                    line: 99,
                    served: Some(ServedAt::Dram),
                    mee_level: Some(WalkLevel::Versions),
                    latency: 480,
                },
            },
            Event {
                at: Cycles::new(10),
                kind: EventKind::WalkStep {
                    level: WalkLevel::Versions,
                    line: 7,
                    hit: true,
                },
            },
            Event {
                at: Cycles::new(20),
                kind: EventKind::Fault {
                    kind: "mee_flush",
                    arg: 0,
                },
            },
            Event {
                at: Cycles::new(30),
                kind: EventKind::Phase {
                    name: "transmit_start",
                    arg: 64,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_line_per_event() {
        let events = sample_events();
        let jsonl = event_jsonl(&events);
        assert_eq!(jsonl.lines().count(), events.len());
        assert!(jsonl.ends_with('\n'));
        assert_eq!(jsonl.lines().next().unwrap(), events[0].json_line());
        assert_eq!(event_jsonl(&[]), "");
    }

    #[test]
    fn chrome_trace_has_all_four_categories_and_lanes() {
        let events = sample_events();
        let opts = ChromeTraceOptions {
            seed: 2019,
            cores: 2,
            ..Default::default()
        };
        let doc = chrome_trace(&events, &opts);
        assert!(doc.starts_with("{\"traceEvents\":["));
        for cat in ["memory", "tree", "fault", "channel"] {
            assert!(
                doc.contains(&format!("\"cat\":\"{cat}\"")),
                "missing category {cat}"
            );
        }
        assert!(doc.contains("\"name\":\"core 1\""));
        assert!(doc.contains("\"name\":\"integrity tree\""));
        assert!(doc.contains("\"ph\":\"X\"") && doc.contains("\"dur\":480"));
        assert!(doc.contains("\"seed\":2019"));
        assert!(doc.contains("\"meeMetrics\":null"));
    }

    #[test]
    fn chrome_trace_embeds_metrics_and_profile() {
        let mut metrics = MetricsRegistry::new(1, 2);
        metrics.record_mem_op(0, 0, MemOpKind::Read, Some(ServedAt::L1), None, 4);
        let mut host = HostProfile::new();
        host.record("decode", std::time::Duration::from_nanos(5));
        let opts = ChromeTraceOptions {
            seed: 1,
            cores: 1,
            dropped: 3,
            metrics: Some(&metrics),
            host: Some(&host),
        };
        let doc = chrome_trace(&[], &opts);
        assert!(doc.contains("\"meeMetrics\":{\"cores\":["));
        assert!(doc.contains("\"hostProfile\":{\"decode\""));
        assert!(doc.contains("\"dropped\":3"));
    }

    #[test]
    fn chrome_trace_is_deterministic_for_same_events() {
        let events = sample_events();
        let opts = ChromeTraceOptions {
            seed: 2019,
            cores: 2,
            ..Default::default()
        };
        assert_eq!(chrome_trace(&events, &opts), chrome_trace(&events, &opts));
    }
}
