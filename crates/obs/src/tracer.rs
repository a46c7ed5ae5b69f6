//! The `Tracer` trait and the bounded ring-buffer recorder.
//!
//! Simulator layers accept a `&mut dyn Tracer` (or hold an [`EventSink`])
//! and guard every event construction behind [`Tracer::enabled`], so a
//! disabled trace costs one predictable branch per call site — nothing is
//! formatted, allocated, or stored. The recorder itself is deterministic:
//! events are appended in simulation order, and a full ring drops the
//! *oldest* events while counting what it dropped, so the retained window
//! is the same for every same-seed run.

use mee_types::Cycles;

use crate::event::{Event, EventKind};

/// A consumer of trace events.
pub trait Tracer {
    /// Whether events should be constructed at all. Call sites must check
    /// this before building an [`EventKind`] so a disabled tracer is
    /// zero-cost beyond the branch.
    fn enabled(&self) -> bool;

    /// Records one event. Implementations may assume `record` is only
    /// called when [`Tracer::enabled`] returned `true`.
    fn record(&mut self, at: Cycles, kind: EventKind);
}

/// The do-nothing tracer: `enabled()` is `false`, `record` is a no-op.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    #[inline]
    fn enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _at: Cycles, _kind: EventKind) {}
}

/// A bounded ring buffer of trace events.
///
/// Keeps the most recent `capacity` events; older events are overwritten
/// and counted in [`RingRecorder::dropped`]. Memory is bounded by
/// construction, so a trace can stay enabled across a long session without
/// growing without limit.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    dropped: u64,
}

impl RingRecorder {
    /// An empty recorder bounded to `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero — a zero-capacity trace is a
    /// misconfiguration, not a way to disable tracing (use
    /// [`NullTracer`] / [`EventSink::Off`] for that).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingRecorder {
            buf: Vec::with_capacity(capacity.min(4096)),
            capacity,
            head: 0,
            dropped: 0,
        }
    }

    /// The configured bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether no events are retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.buf.len());
        out.extend_from_slice(&self.buf[self.head..]);
        out.extend_from_slice(&self.buf[..self.head]);
        out
    }

    /// Discards all retained events and the drop counter.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
        self.dropped = 0;
    }
}

impl Tracer for RingRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, at: Cycles, kind: EventKind) {
        let event = Event { at, kind };
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            // Overwrite the oldest slot and advance the head.
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
            self.dropped += 1;
        }
    }
}

/// The sink a simulator layer owns: either off (zero-cost) or recording
/// into a bounded ring.
#[derive(Debug, Clone, Default)]
pub enum EventSink {
    /// Tracing disabled; every `record` is unreachable behind `enabled()`.
    #[default]
    Off,
    /// Tracing enabled into the ring.
    Ring(RingRecorder),
}

impl EventSink {
    /// The ring recorder, when tracing is enabled.
    pub fn ring(&self) -> Option<&RingRecorder> {
        match self {
            EventSink::Off => None,
            EventSink::Ring(r) => Some(r),
        }
    }

    /// Mutable ring access (e.g. to [`RingRecorder::clear`] between
    /// phases), when tracing is enabled.
    pub fn ring_mut(&mut self) -> Option<&mut RingRecorder> {
        match self {
            EventSink::Off => None,
            EventSink::Ring(r) => Some(r),
        }
    }
}

impl Tracer for EventSink {
    #[inline]
    fn enabled(&self) -> bool {
        matches!(self, EventSink::Ring(_))
    }

    #[inline]
    fn record(&mut self, at: Cycles, kind: EventKind) {
        if let EventSink::Ring(r) = self {
            r.record(at, kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phase(i: u64) -> EventKind {
        EventKind::Phase {
            name: "test",
            arg: i,
        }
    }

    #[test]
    fn ring_retains_most_recent_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for i in 0..5u64 {
            r.record(Cycles::new(i), phase(i));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        let args: Vec<u64> = r
            .events()
            .iter()
            .map(|e| match e.kind {
                EventKind::Phase { arg, .. } => arg,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            args,
            vec![2, 3, 4],
            "oldest events must be the ones dropped"
        );
        // Timestamps come back oldest-first.
        let ats: Vec<u64> = r.events().iter().map(|e| e.at.raw()).collect();
        assert_eq!(ats, vec![2, 3, 4]);
    }

    #[test]
    fn ring_below_capacity_keeps_everything_in_order() {
        let mut r = RingRecorder::new(10);
        for i in 0..4u64 {
            r.record(Cycles::new(i * 7), phase(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.events().len(), 4);
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = RingRecorder::new(2);
        for i in 0..5u64 {
            r.record(Cycles::new(i), phase(i));
        }
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
        r.record(Cycles::ZERO, phase(9));
        assert_eq!(r.events().len(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RingRecorder::new(0);
    }

    #[test]
    fn null_tracer_and_off_sink_are_disabled() {
        assert!(!NullTracer.enabled());
        assert!(!EventSink::Off.enabled());
        let mut sink = EventSink::Off;
        sink.record(Cycles::ZERO, phase(0)); // must be a no-op, not a panic
        assert!(sink.ring().is_none());
    }

    #[test]
    fn ring_sink_records() {
        let mut sink = EventSink::Ring(RingRecorder::new(8));
        assert!(sink.enabled());
        sink.record(Cycles::new(1), phase(1));
        assert_eq!(sink.ring().unwrap().len(), 1);
    }
}
