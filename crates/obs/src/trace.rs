//! Tracing spans over a seedable clock, rendered as Chrome
//! trace-event JSON.
//!
//! A [`Tracer`] hands out [`SpanGuard`]s: the guard stamps the start
//! time on creation and records a finished span on drop. Spans carry a
//! name, string arguments (e.g. `("suffix", "example.com")`), and the
//! recording thread's id; hierarchy is *implicit* — the Chrome trace
//! viewer nests `ph:"X"` complete events by time containment per
//! thread, so an enclosing `learn_suffix` span drawn around the five
//! phase spans renders as a tree without any parent-id bookkeeping.
//!
//! Time comes from a [`Clock`]: production uses [`WallClock`]
//! (monotonic, anchored at tracer creation), tests use [`ManualClock`]
//! and advance it by hand so recorded durations are exact and
//! deterministic.

use crate::json_str;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonic nanosecond clock. `now_ns` must be non-decreasing.
pub trait Clock: Send + Sync {
    /// Nanoseconds since the clock's epoch.
    fn now_ns(&self) -> u64;
}

/// The real monotonic clock, anchored at construction so traces start
/// near t=0.
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock anchored now.
    pub fn new() -> WallClock {
        WallClock { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> WallClock {
        WallClock::new()
    }
}

impl Clock for WallClock {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }
}

/// A hand-cranked clock for deterministic tests: time only moves when
/// [`ManualClock::advance`] is called.
pub struct ManualClock {
    now: AtomicU64,
}

impl ManualClock {
    /// A manual clock at t=0.
    pub fn new() -> ManualClock {
        ManualClock { now: AtomicU64::new(0) }
    }

    /// Moves time forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Default for ManualClock {
    fn default() -> ManualClock {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        self.now.load(Ordering::Relaxed)
    }
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (e.g. a learner phase: `generate`, `merge`, ...).
    pub name: String,
    /// String arguments attached at creation.
    pub args: Vec<(String, String)>,
    /// Small dense id of the recording thread.
    pub tid: u64,
    /// Start, clock nanoseconds.
    pub start_ns: u64,
    /// End, clock nanoseconds.
    pub end_ns: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads; renders them as Chrome
/// trace-event JSON.
pub struct Tracer {
    clock: Arc<dyn Clock>,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Dense per-thread ids so the trace viewer gets stable small `tid`s
/// instead of opaque OS thread ids.
pub(crate) fn current_tid() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    thread_local! {
        static TID: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TID.with(|t| *t)
}

impl Tracer {
    /// A tracer on the real monotonic clock.
    pub fn new() -> Tracer {
        Tracer::with_clock(Arc::new(WallClock::new()))
    }

    /// A tracer on an injected clock (tests pass a
    /// [`ManualClock`]).
    pub fn with_clock(clock: Arc<dyn Clock>) -> Tracer {
        Tracer { clock, spans: Mutex::new(Vec::new()) }
    }

    /// Opens a span; it is recorded when the returned guard drops.
    /// Args are captured eagerly (they are tiny — a suffix, a count).
    pub fn span(&self, name: &str, args: &[(&str, &str)]) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            name: name.to_string(),
            args: args.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect(),
            tid: current_tid(),
            start_ns: self.clock.now_ns(),
        }
    }

    /// Number of finished spans.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("tracer lock poisoned").len()
    }

    /// True when no span has finished yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of all finished spans, in finish order.
    pub fn records(&self) -> Vec<SpanRecord> {
        self.spans.lock().expect("tracer lock poisoned").clone()
    }

    /// Renders all finished spans as a Chrome trace-event JSON
    /// document ([`chrome_json`]; every arg a string). Loadable in
    /// `chrome://tracing` and Perfetto.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.lock().expect("tracer lock poisoned");
        chrome_json(spans.iter().map(|s| {
            let args: Vec<String> =
                s.args.iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
            ChromeEvent {
                name: s.name.clone(),
                tid: s.tid,
                start_ns: s.start_ns,
                dur_ns: s.duration_ns(),
                args: args.join(","),
            }
        }))
    }

    fn finish(&self, record: SpanRecord) {
        self.spans.lock().expect("tracer lock poisoned").push(record);
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// One `ph:"X"` complete event for [`chrome_json`].
pub(crate) struct ChromeEvent {
    pub name: String,
    pub tid: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
    /// The members of the event's `args` object, already JSON
    /// (`"suffix":"example.com","n":3`).
    pub args: String,
}

/// The one Chrome trace-event writer, behind [`Tracer::to_chrome_json`]
/// and [`crate::span::to_chrome_json`]: a `{"traceEvents":[...]}`
/// document of complete events in category `hoiho`, pid 1, with `ts`
/// and `dur` in microseconds.
pub(crate) fn chrome_json(events: impl Iterator<Item = ChromeEvent>) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"hoiho\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{{}}}}}",
            json_str(&e.name),
            e.tid,
            micros(e.start_ns),
            micros(e.dur_ns),
            e.args,
        ));
    }
    out.push_str("]}");
    out
}

/// Nanoseconds → microseconds with the sub-µs part kept as a decimal
/// fraction, trailing zeros trimmed (Chrome accepts fractional
/// `ts`/`dur`).
fn micros(ns: u64) -> String {
    if ns.is_multiple_of(1000) {
        (ns / 1000).to_string()
    } else {
        let mut s = format!("{}.{:03}", ns / 1000, ns % 1000);
        while s.ends_with('0') {
            s.pop();
        }
        s
    }
}

/// An open span; records itself into the tracer when dropped.
#[must_use = "a span measures nothing unless it lives across the work"]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    name: String,
    args: Vec<(String, String)>,
    tid: u64,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// Appends an arg discovered mid-span (e.g. a stat computed by the
    /// work the span measures). Recorded alongside the eager args.
    pub fn arg(&mut self, key: &str, value: &str) {
        self.args.push((key.to_string(), value.to_string()));
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.clock.now_ns();
        self.tracer.finish(SpanRecord {
            name: std::mem::take(&mut self.name),
            args: std::mem::take(&mut self.args),
            tid: self.tid,
            start_ns: self.start_ns,
            end_ns,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manual_clock_spans_are_exact() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        {
            let _outer = tracer.span("learn_suffix", &[("suffix", "example.com")]);
            clock.advance(500);
            {
                let _inner = tracer.span("generate", &[("suffix", "example.com")]);
                clock.advance(1_500);
            }
            clock.advance(250);
        }
        let spans = tracer.records();
        assert_eq!(spans.len(), 2);
        // Inner finishes first (drop order).
        assert_eq!(spans[0].name, "generate");
        assert_eq!(spans[0].start_ns, 500);
        assert_eq!(spans[0].duration_ns(), 1_500);
        assert_eq!(spans[1].name, "learn_suffix");
        assert_eq!(spans[1].start_ns, 0);
        assert_eq!(spans[1].duration_ns(), 2_250);
        // Containment: the viewer nests these without parent ids.
        assert!(spans[1].start_ns <= spans[0].start_ns);
        assert!(spans[0].end_ns <= spans[1].end_ns);
    }

    #[test]
    fn chrome_json_shape() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        {
            let _s = tracer.span("merge", &[("suffix", "a\"b.nz")]);
            clock.advance(2_500);
        }
        let json = tracer.to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        assert!(json.ends_with("]}"), "{json}");
        assert!(json.contains("\"name\":\"merge\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ts\":0,\"dur\":2.5"), "{json}");
        assert!(json.contains("\"args\":{\"suffix\":\"a\\\"b.nz\"}"), "{json}");
    }

    #[test]
    fn chrome_json_bytes_are_pinned() {
        let clock = Arc::new(ManualClock::new());
        let tracer = Tracer::with_clock(clock.clone());
        {
            let _outer = tracer.span("learn_suffix", &[("suffix", "x.nz"), ("n", "2")]);
            clock.advance(1_250);
            let _inner = tracer.span("generate", &[]);
            clock.advance(1_000);
        }
        let tid = current_tid();
        let event = |name: &str, ts: &str, dur: &str, args: &str| {
            format!(
                "{{\"name\":\"{name}\",\"cat\":\"hoiho\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\
                 \"ts\":{ts},\"dur\":{dur},\"args\":{{{args}}}}}"
            )
        };
        assert_eq!(
            tracer.to_chrome_json(),
            format!(
                "{{\"traceEvents\":[{},{}]}}",
                event("generate", "1.25", "1", ""),
                event("learn_suffix", "0", "2.25", "\"suffix\":\"x.nz\",\"n\":\"2\""),
            )
        );
    }

    #[test]
    fn micros_formatting() {
        assert_eq!(micros(0), "0");
        assert_eq!(micros(1_000), "1");
        assert_eq!(micros(1_500), "1.5");
        assert_eq!(micros(1_501), "1.501");
        assert_eq!(micros(999), "0.999");
        assert_eq!(micros(2_250), "2.25");
    }

    #[test]
    fn wall_clock_is_monotone_nonzero() {
        let tracer = Tracer::new();
        {
            let _s = tracer.span("work", &[]);
            // A real (if tiny) amount of work.
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let spans = tracer.records();
        assert_eq!(spans.len(), 1);
        assert!(spans[0].end_ns >= spans[0].start_ns);
    }

    #[test]
    fn late_args_are_recorded_with_eager_ones() {
        let tracer = Tracer::new();
        {
            let mut g = tracer.span("work", &[("eager", "1")]);
            g.arg("late", "2");
        }
        let spans = tracer.records();
        assert_eq!(
            spans[0].args,
            vec![("eager".to_string(), "1".to_string()), ("late".to_string(), "2".to_string())]
        );
    }

    #[test]
    fn spans_collect_across_threads() {
        let tracer = Tracer::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    let _g = tracer.span("worker", &[]);
                });
            }
        });
        assert_eq!(tracer.len(), 4);
    }
}
