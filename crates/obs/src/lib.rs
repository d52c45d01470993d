//! # hoiho-obs — observability for the learner and the serving tier
//!
//! Std-only, dependency-free (per the workspace's hermetic-build
//! policy), and cheap enough for the serving hot path:
//!
//! * [`metrics`] — a metrics registry of lock-free atomic counters,
//!   gauges, and fixed-bucket log-scale latency histograms. Handles
//!   are `Arc`-backed: registration takes a mutex once, after which
//!   every update is a single relaxed atomic operation. The whole
//!   registry renders to Prometheus-style text exposition
//!   ([`Registry::render`]), which the serve protocol's `METRICS`
//!   verb ships over the wire.
//! * [`trace`] — hierarchical tracing spans over a seedable-clock
//!   abstraction ([`Clock`]): production code uses [`WallClock`],
//!   tests pin time with [`ManualClock`] so recorded durations are
//!   deterministic. Finished spans render as Chrome trace-event JSON
//!   ([`Tracer::to_chrome_json`]) loadable in `chrome://tracing` /
//!   Perfetto; the learner emits one span per pipeline phase per
//!   suffix through `hoiho learn --trace`.
//! * [`events`] — a structured JSONL event log backed by a bounded
//!   in-memory ring buffer: slow queries, shard reloads, admin
//!   refusals. The serve protocol's `EVENTS [n]` verb dumps the tail.
//!
//! [`Obs`] bundles one registry, one event log, and the slow-query
//! threshold into the unit the server, the shard router, and the
//! binary share — so `METRICS` on a clustered server reports the
//! protocol layer and the cache/shard layer out of one document.
//!
//! Overhead budget: an instrumented hot-path operation adds one or two
//! relaxed atomic RMWs (&lt; ~5 ns each); nothing on the hot path takes
//! a lock or allocates. The acceptance bar (DESIGN.md §7d) is ≤ 5% on
//! the `serve/extract/single_loop` and `cluster` bench medians.

pub mod events;
pub mod metrics;
pub mod profile;
pub mod slo;
pub mod span;
pub mod trace;

pub use events::{Event, EventLog};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricKind, Registry};
pub use profile::{Phase, PhaseCell, Profiler};
pub use slo::{Objective, SloEngine, SloSnapshot, SloStatus};
pub use span::{Layer, ReqSpan, Sampler, SpanHandle, SpanRing, TraceCtx};
pub use trace::{Clock, ManualClock, SpanGuard, Tracer, WallClock};

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Default slow-query threshold: requests slower than this land in the
/// event log.
pub const DEFAULT_SLOW_THRESHOLD: Duration = Duration::from_millis(100);

/// Default event-ring capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// One observability context: a metrics registry, an event log, the
/// request-tracing pieces (span ring + sampler), the sampling
/// profiler, the SLO engine, and the slow-query threshold. The server
/// and the shard router each take an `Arc<Obs>`; handing them the
/// *same* one merges their metrics into a single `METRICS` document
/// and their spans into one trace tree per request (what the
/// `hoiho-serve` binary does).
pub struct Obs {
    registry: Registry,
    events: EventLog,
    spans: SpanRing,
    sampler: Sampler,
    profiler: Profiler,
    slo: SloEngine,
    slow_ns: AtomicU64,
}

impl Obs {
    /// A fresh context with the default event capacity and slow-query
    /// threshold. Trace sampling starts disabled; enable it with
    /// `obs.sampler().configure(every, seed)`.
    pub fn new() -> Obs {
        Obs {
            registry: Registry::new(),
            events: EventLog::new(DEFAULT_EVENT_CAPACITY),
            spans: SpanRing::new(span::DEFAULT_SPAN_CAPACITY),
            sampler: Sampler::disabled(),
            profiler: Profiler::new(),
            slo: SloEngine::new(),
            slow_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD.as_nanos() as u64),
        }
    }

    /// The metrics registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The event log.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    /// The request-span ring (the `TRACES` verb dumps it).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// The request sampler (disabled by default).
    pub fn sampler(&self) -> &Sampler {
        &self.sampler
    }

    /// The sampling profiler (the `PROFILE` verb renders it).
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// The SLO engine (the `SLO` verb reports it).
    pub fn slo(&self) -> &SloEngine {
        &self.slo
    }

    /// Requests at least this slow are recorded as `slow_query` events.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// Reconfigures the slow-query threshold (settable live; the
    /// serving loop reads it per request).
    pub fn set_slow_threshold(&self, d: Duration) {
        self.slow_ns.store(d.as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Default for Obs {
    fn default() -> Obs {
        Obs::new()
    }
}

/// Renders `s` as a JSON string literal (shared by the trace and event
/// renderers).
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_defaults_and_threshold() {
        let obs = Obs::new();
        assert_eq!(obs.slow_threshold_ns(), DEFAULT_SLOW_THRESHOLD.as_nanos() as u64);
        obs.set_slow_threshold(Duration::from_micros(5));
        assert_eq!(obs.slow_threshold_ns(), 5_000);
        assert_eq!(obs.events().len(), 0);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_str("x\n\t\u{1}"), "\"x\\n\\t\\u0001\"");
    }
}
