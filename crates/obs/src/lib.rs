//! # mee-obs — deterministic observability for the MEE simulator
//!
//! Three strictly-separated concerns:
//!
//! 1. **Event tracing** ([`Tracer`], [`RingRecorder`], [`EventSink`]):
//!    typed simulator events ([`Event`]) stamped with sim-cycle time,
//!    captured into a bounded ring. Zero-cost when disabled (one branch),
//!    and deterministic when enabled: same seed ⇒ byte-identical event
//!    log, tracing on/off ⇒ bit-identical session outcomes.
//! 2. **Metrics** ([`MetricsRegistry`]): deterministic counters and
//!    fixed-bucket latency histograms per core / process / MEE set,
//!    snapshotable mid-session.
//! 3. **Host profiling** ([`HostProfile`]): wall-clock spans around hot
//!    loops, reported *separately* from sim time so they can never
//!    perturb determinism.
//!
//! [`export`] renders the captured events as deterministic JSON lines or
//! as a Chrome `trace_event` document (Perfetto-loadable).
//!
//! A fourth, host-level concern sits beside them: [`campaign`] is the
//! typed phase/fault event log of a sharded campaign run (shard started /
//! checkpointed / panicked / timed out / quarantined), keyed by shard so
//! its rendering is deterministic even though shards execute concurrently.
//!
//! This crate sits just above `mee-types`/`mee-rng` in the layer map so
//! every simulator layer (engine, machine, faults, channel, sweep, bench)
//! can use it without cycles.

pub mod campaign;
pub mod event;
pub mod export;
pub mod metrics;
pub mod profile;
pub mod tracer;

use mee_rng::env_knob::{self, EnvKnobError};

pub use campaign::{CampaignLog, ShardEvent};
pub use event::{Event, EventKind, MemOpKind, ServedAt, WalkLevel};
pub use export::{chrome_trace, event_jsonl, ChromeTraceOptions};
pub use metrics::{LatencyHistogram, MetricsRegistry, OpMetrics};
pub use profile::{HostProfile, SpanStats};
pub use tracer::{EventSink, NullTracer, RingRecorder, Tracer};

/// The environment knob selecting the trace ring capacity (`0` disables
/// tracing; parsed strictly, a malformed value is an error).
pub const TRACE_ENV: &str = "MEE_TRACE";

/// Default ring capacity when tracing is enabled without an explicit
/// capacity: 2²⁰ events (~48 MiB retained worst case).
pub const DEFAULT_RING_CAPACITY: usize = 1 << 20;

/// Reads [`TRACE_ENV`]: `Ok(None)` when unset, `Ok(Some(0))` to force
/// tracing off, `Ok(Some(n))` for an `n`-event ring.
///
/// # Errors
///
/// Returns the strict-knob [`EnvKnobError`] when the variable is set but
/// not an unsigned integer.
pub fn env_capacity() -> Result<Option<usize>, EnvKnobError> {
    std::env::var(TRACE_ENV)
        .ok()
        .map(|v| env_knob::parse_unsigned(TRACE_ENV, &v))
        .transpose()
}

/// The observability state a simulator owns: an event sink, an optional
/// metrics registry, and a host-time profile. Constructed [`Obs::off`]
/// by default so an untraced simulation carries only disabled-branch
/// overhead.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// The event sink; layers record through [`Tracer`].
    pub sink: EventSink,
    /// The metrics registry, present only while tracing is enabled.
    pub metrics: Option<MetricsRegistry>,
    /// Host-time spans (always available — recording host time does not
    /// affect determinism).
    pub host: HostProfile,
}

impl Obs {
    /// Observability fully off: disabled sink, no metrics.
    pub fn off() -> Self {
        Obs::default()
    }

    /// Observability on: a `capacity`-bounded event ring plus a zeroed
    /// metrics registry for `cores` cores and `mee_sets` MEE cache sets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero (use [`Obs::off`] to disable).
    pub fn enabled(capacity: usize, cores: usize, mee_sets: usize) -> Self {
        Obs {
            sink: EventSink::Ring(RingRecorder::new(capacity)),
            metrics: Some(MetricsRegistry::new(cores, mee_sets)),
            host: HostProfile::new(),
        }
    }

    /// Whether events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.enabled()
    }

    /// The event ring, when tracing is enabled.
    pub fn ring(&self) -> Option<&RingRecorder> {
        self.sink.ring()
    }

    /// The captured events oldest-first (empty when tracing is off).
    pub fn events(&self) -> Vec<Event> {
        self.ring().map(RingRecorder::events).unwrap_or_default()
    }

    /// The captured events as deterministic JSON lines.
    pub fn event_log(&self) -> String {
        event_jsonl(&self.events())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mee_types::Cycles;

    #[test]
    fn off_is_disabled_and_empty() {
        let obs = Obs::off();
        assert!(!obs.is_enabled());
        assert!(obs.metrics.is_none());
        assert!(obs.events().is_empty());
        assert_eq!(obs.event_log(), "");
    }

    #[test]
    fn enabled_records_and_exports() {
        let mut obs = Obs::enabled(16, 2, 4);
        assert!(obs.is_enabled());
        obs.sink.record(
            Cycles::new(5),
            EventKind::Phase {
                name: "establish_start",
                arg: 0,
            },
        );
        assert_eq!(obs.events().len(), 1);
        assert!(obs.event_log().contains("establish_start"));
        assert_eq!(obs.metrics.as_ref().unwrap().cores().len(), 2);
    }

    #[test]
    fn env_capacity_is_unset_by_default() {
        assert_eq!(env_capacity(), Ok(None));
    }
}
