//! Request-scoped distributed tracing for the serving path.
//!
//! [`crate::trace`] covers the *learner* (long-lived phases, one
//! mutex-guarded `Vec` per process); this module covers the *server*,
//! where a span is nanoseconds long and the recorder sits on the
//! request hot path. The pieces:
//!
//! * [`Sampler`] — a deterministic 1-in-N head sampler. Request `seq`
//!   is sampled iff `seq % every == 0`, and the 64-bit [`TraceId`] it
//!   allocates is a pure function of `(seed, seq)` — so a fixed seed
//!   and a fixed request script reproduce the *same* trace ids and the
//!   same span sets, which the propagation tests rely on.
//! * [`TraceCtx`] — the per-request context threaded through
//!   `Backend::query`, the shard router, the cache probe, and engine
//!   extraction. `TraceCtx::off()` is the common case: one `Option`
//!   check per layer, no allocation, no atomics — the unsampled path
//!   stays bit-identical.
//! * [`SpanRing`] — a lock-free bounded ring of fixed-width span
//!   records. Writers claim a slot with one `fetch_add` and publish
//!   through a per-slot seqlock version word; readers (the `TRACES`
//!   verb) detect and skip torn or overwritten slots. Nothing blocks,
//!   nothing allocates, old spans are overwritten.
//!
//! Span records are fixed-width on purpose: a span is
//! `(trace, id, parent, layer, detail, shard, generation, start_ns,
//! end_ns, tid)` — layers and details are small enums, not strings, so
//! a record packs into seven `u64` words. Rendering fans out from the
//! same records: JSONL over the wire ([`render_jsonl`], strict inverse
//! [`parse_jsonl`]), Chrome trace-event JSON ([`to_chrome_json`]) and
//! collapsed-stack text ([`to_collapsed`], flamegraph.pl compatible),
//! plus per-layer self-time attribution ([`self_time_by_layer`]) for
//! the `PROFILE` exposition.

use crate::json_str;
use crate::trace::{current_tid, Clock, WallClock};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Parent value of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// Shard tag of a span that did not route through a shard.
pub const NO_SHARD: u32 = u32::MAX;

/// Default span-ring capacity (records, not traces).
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// Per-trace span budget: one request records at most this many spans
/// (a 4096-item `BATCH` must not flush the whole ring); excess spans
/// count into [`SpanRing::dropped`].
pub const SPAN_BUDGET: u32 = 64;

/// Which layer of the serving path a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Layer {
    /// The protocol loop: one root span per request.
    Server = 0,
    /// Shard routing (`ShardRouter::lookup`).
    Router = 1,
    /// The response-cache probe.
    Cache = 2,
    /// Compiled-regex extraction (`Generation::query` / shard engine).
    Engine = 3,
}

impl Layer {
    /// All layers, in code order.
    pub const ALL: [Layer; 4] = [Layer::Server, Layer::Router, Layer::Cache, Layer::Engine];

    /// Stable lowercase name (wire format).
    pub fn name(self) -> &'static str {
        match self {
            Layer::Server => "server",
            Layer::Router => "router",
            Layer::Cache => "cache",
            Layer::Engine => "engine",
        }
    }

    /// Inverse of [`Layer::name`].
    pub fn from_name(s: &str) -> Option<Layer> {
        Layer::ALL.into_iter().find(|l| l.name() == s)
    }

    fn from_u8(v: u8) -> Option<Layer> {
        Layer::ALL.into_iter().find(|&l| l as u8 == v)
    }
}

/// Span detail codes: what happened inside the layer. One flat
/// namespace (codes are unique across layers) so the wire format needs
/// no layer-qualified names.
pub mod detail {
    /// No detail recorded.
    pub const NONE: u8 = 0;
    /// Server verbs.
    pub const QUERY: u8 = 1;
    pub const BATCH: u8 = 2;
    pub const STATS: u8 = 3;
    pub const STATS_SUFFIX: u8 = 4;
    pub const STATS_CLUSTER: u8 = 5;
    pub const METRICS: u8 = 6;
    pub const EVENTS: u8 = 7;
    pub const RELOAD: u8 = 8;
    pub const SHUTDOWN: u8 = 9;
    pub const TRACES: u8 = 10;
    pub const PROFILE: u8 = 11;
    pub const SLO: u8 = 12;
    pub const OTHER: u8 = 13;
    /// Router dispatch outcomes.
    pub const EXACT: u8 = 14;
    pub const FALLBACK: u8 = 15;
    pub const ROUTE_MISS: u8 = 16;
    /// Cache-probe outcomes.
    pub const HIT: u8 = 17;
    pub const MISS: u8 = 18;
    pub const STALE: u8 = 19;
    /// Engine extraction outcomes.
    pub const EXTRACT_HIT: u8 = 20;
    pub const EXTRACT_MISS: u8 = 21;

    const NAMES: [(u8, &str); 22] = [
        (NONE, "none"),
        (QUERY, "query"),
        (BATCH, "batch"),
        (STATS, "stats"),
        (STATS_SUFFIX, "stats_suffix"),
        (STATS_CLUSTER, "stats_cluster"),
        (METRICS, "metrics"),
        (EVENTS, "events"),
        (RELOAD, "reload"),
        (SHUTDOWN, "shutdown"),
        (TRACES, "traces"),
        (PROFILE, "profile"),
        (SLO, "slo"),
        (OTHER, "other"),
        (EXACT, "exact"),
        (FALLBACK, "fallback"),
        (ROUTE_MISS, "route_miss"),
        (HIT, "hit"),
        (MISS, "miss"),
        (STALE, "stale"),
        (EXTRACT_HIT, "extract_hit"),
        (EXTRACT_MISS, "extract_miss"),
    ];

    /// Stable lowercase name (wire format); unknown codes render as
    /// `"none"`.
    pub fn name(code: u8) -> &'static str {
        NAMES.iter().find(|&&(c, _)| c == code).map(|&(_, n)| n).unwrap_or("none")
    }

    /// Inverse of [`name`].
    pub fn code(name: &str) -> Option<u8> {
        NAMES.iter().find(|&&(_, n)| n == name).map(|&(c, _)| c)
    }
}

/// One recorded request span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReqSpan {
    /// 64-bit trace id (nonzero), shared by every span of one request.
    pub trace: u64,
    /// Span id within the trace (root is 0, then creation order).
    pub id: u32,
    /// Parent span id, [`NO_PARENT`] for the root.
    pub parent: u32,
    /// Which layer recorded the span.
    pub layer: Layer,
    /// What happened ([`detail`] code).
    pub detail: u8,
    /// Shard index, [`NO_SHARD`] when not routed through a shard.
    pub shard: u32,
    /// Shard generation (or routing epoch for fallback/miss routes).
    pub generation: u64,
    /// Clock nanoseconds at span open.
    pub start_ns: u64,
    /// Clock nanoseconds at span close.
    pub end_ns: u64,
    /// Dense recorder thread id.
    pub tid: u64,
}

impl ReqSpan {
    /// Span duration (0 on clock anomalies).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// True for the request's root span.
    pub fn is_root(&self) -> bool {
        self.parent == NO_PARENT
    }

    /// `layer:detail`, the frame name used by the Chrome and collapsed
    /// renderers.
    pub fn frame(&self) -> String {
        format!("{}:{}", self.layer.name(), detail::name(self.detail))
    }

    /// Renders the span as one JSON object (no trailing newline).
    /// `parent`/`shard` are `null` when absent; `trace` is 16 hex
    /// digits.
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\"trace\":\"{:016x}\",\"span\":{}", self.trace, self.id);
        if self.parent == NO_PARENT {
            out.push_str(",\"parent\":null");
        } else {
            out.push_str(&format!(",\"parent\":{}", self.parent));
        }
        out.push_str(&format!(
            ",\"layer\":{},\"detail\":{}",
            json_str(self.layer.name()),
            json_str(detail::name(self.detail))
        ));
        if self.shard == NO_SHARD {
            out.push_str(",\"shard\":null");
        } else {
            out.push_str(&format!(",\"shard\":{}", self.shard));
        }
        out.push_str(&format!(
            ",\"generation\":{},\"start_ns\":{},\"end_ns\":{},\"tid\":{}}}",
            self.generation, self.start_ns, self.end_ns, self.tid
        ));
        out
    }

    /// Strict inverse of [`ReqSpan::to_json`]. Accepts exactly the
    /// fields this module emits (any order), rejecting unknown keys,
    /// bad types, and unknown layer/detail names.
    pub fn from_json(line: &str) -> Result<ReqSpan, String> {
        let body = line
            .trim()
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| "span object must be {...}".to_string())?;
        let mut trace = None;
        let mut id = None;
        let mut parent = None;
        let mut layer = None;
        let mut det = None;
        let mut shard = None;
        let mut generation = None;
        let mut start_ns = None;
        let mut end_ns = None;
        let mut tid = None;
        for part in body.split(',') {
            let (k, v) = part
                .split_once(':')
                .ok_or_else(|| format!("bad field {part:?}"))?;
            let k = k.trim().strip_prefix('"').and_then(|s| s.strip_suffix('"'))
                .ok_or_else(|| format!("bad key {k:?}"))?;
            let v = v.trim();
            let unquoted = v.strip_prefix('"').and_then(|s| s.strip_suffix('"'));
            match k {
                "trace" => {
                    let hex = unquoted.ok_or_else(|| "trace must be a string".to_string())?;
                    trace = Some(
                        u64::from_str_radix(hex, 16)
                            .map_err(|e| format!("bad trace {hex:?}: {e}"))?,
                    );
                }
                "span" => id = Some(parse_u64(v, "span")? as u32),
                "parent" => {
                    parent = Some(if v == "null" {
                        NO_PARENT
                    } else {
                        parse_u64(v, "parent")? as u32
                    });
                }
                "layer" => {
                    let name = unquoted.ok_or_else(|| "layer must be a string".to_string())?;
                    layer = Some(
                        Layer::from_name(name).ok_or_else(|| format!("unknown layer {name:?}"))?,
                    );
                }
                "detail" => {
                    let name = unquoted.ok_or_else(|| "detail must be a string".to_string())?;
                    det = Some(
                        detail::code(name).ok_or_else(|| format!("unknown detail {name:?}"))?,
                    );
                }
                "shard" => {
                    shard = Some(if v == "null" {
                        NO_SHARD
                    } else {
                        parse_u64(v, "shard")? as u32
                    });
                }
                "generation" => generation = Some(parse_u64(v, "generation")?),
                "start_ns" => start_ns = Some(parse_u64(v, "start_ns")?),
                "end_ns" => end_ns = Some(parse_u64(v, "end_ns")?),
                "tid" => tid = Some(parse_u64(v, "tid")?),
                other => return Err(format!("unknown key {other:?}")),
            }
        }
        Ok(ReqSpan {
            trace: trace.ok_or("missing trace")?,
            id: id.ok_or("missing span")?,
            parent: parent.ok_or("missing parent")?,
            layer: layer.ok_or("missing layer")?,
            detail: det.ok_or("missing detail")?,
            shard: shard.ok_or("missing shard")?,
            generation: generation.ok_or("missing generation")?,
            start_ns: start_ns.ok_or("missing start_ns")?,
            end_ns: end_ns.ok_or("missing end_ns")?,
            tid: tid.ok_or("missing tid")?,
        })
    }
}

fn parse_u64(v: &str, key: &str) -> Result<u64, String> {
    v.parse::<u64>().map_err(|e| format!("bad {key} {v:?}: {e}"))
}

// ---------------------------------------------------------------------------
// Sampler

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// splitmix64 finalizer: a cheap, well-mixed 64-bit permutation.
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// The trace id for request `seq` under `seed` — pure, so a fixed seed
/// and script reproduce identical ids across runs.
pub fn trace_id_for(seed: u64, seq: u64) -> u64 {
    let id = mix64(seed ^ seq.wrapping_mul(GOLDEN));
    if id == 0 {
        1
    } else {
        id
    }
}

/// Deterministic 1-in-N head sampler. `every == 0` disables sampling
/// (the default); `every == 1` samples everything. Reconfigurable
/// live; configuration resets the request sequence.
#[derive(Debug)]
pub struct Sampler {
    every: AtomicU64,
    seed: AtomicU64,
    seq: AtomicU64,
}

impl Sampler {
    /// A disabled sampler (`sample()` always `None`).
    pub fn disabled() -> Sampler {
        Sampler { every: AtomicU64::new(0), seed: AtomicU64::new(0), seq: AtomicU64::new(0) }
    }

    /// A sampler taking every `every`-th request, ids seeded by `seed`.
    pub fn new(every: u64, seed: u64) -> Sampler {
        let s = Sampler::disabled();
        s.configure(every, seed);
        s
    }

    /// Reconfigures rate and seed and resets the request sequence.
    pub fn configure(&self, every: u64, seed: u64) {
        self.seed.store(seed, Ordering::Relaxed);
        self.seq.store(0, Ordering::Relaxed);
        self.every.store(every, Ordering::Relaxed);
    }

    /// True when sampling is on.
    pub fn enabled(&self) -> bool {
        self.every.load(Ordering::Relaxed) != 0
    }

    /// The configured rate (0 = off).
    pub fn every(&self) -> u64 {
        self.every.load(Ordering::Relaxed)
    }

    /// Consumes one request slot; `Some(trace_id)` iff this request is
    /// sampled. One relaxed load when disabled, one extra relaxed RMW
    /// when enabled.
    #[inline]
    pub fn sample(&self) -> Option<u64> {
        let every = self.every.load(Ordering::Relaxed);
        if every == 0 {
            return None;
        }
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        if seq % every != 0 {
            return None;
        }
        Some(trace_id_for(self.seed.load(Ordering::Relaxed), seq))
    }
}

// ---------------------------------------------------------------------------
// Span ring

const WORDS: usize = 7;

struct Slot {
    /// Seqlock version: odd while a writer is mid-publish.
    version: AtomicU64,
    words: [AtomicU64; WORDS],
}

/// Lock-free bounded ring of span records. Writers claim slots with a
/// single `fetch_add` on a global head and publish via a per-slot
/// version word; the reader ([`SpanRing::dump`]) skips slots that are
/// mid-write or were overwritten during the copy. Capacity is fixed at
/// construction; the newest spans win.
pub struct SpanRing {
    slots: Vec<Slot>,
    head: AtomicU64,
    dropped: AtomicU64,
    clock: Arc<dyn Clock>,
}

impl SpanRing {
    /// A ring holding the most recent `capacity` spans (clamped to ≥1)
    /// on the real monotonic clock.
    pub fn new(capacity: usize) -> SpanRing {
        SpanRing::with_clock(capacity, Arc::new(WallClock::new()))
    }

    /// A ring on an injected clock (tests pin time with
    /// [`crate::ManualClock`]).
    pub fn with_clock(capacity: usize, clock: Arc<dyn Clock>) -> SpanRing {
        let capacity = capacity.max(1);
        SpanRing {
            slots: (0..capacity)
                .map(|_| Slot {
                    version: AtomicU64::new(0),
                    words: std::array::from_fn(|_| AtomicU64::new(0)),
                })
                .collect(),
            head: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            clock,
        }
    }

    /// Ring capacity in records.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Current clock nanoseconds (span timestamps come from here).
    pub fn now_ns(&self) -> u64 {
        self.clock.now_ns()
    }

    /// Total spans ever pushed.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Spans not recorded because a trace exhausted [`SPAN_BUDGET`].
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    fn note_dropped(&self) {
        self.dropped.fetch_add(1, Ordering::Relaxed);
    }

    /// Pushes one record (lock-free; overwrites the oldest slot when
    /// full).
    pub fn push(&self, span: &ReqSpan) {
        let claim = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(claim % self.slots.len() as u64) as usize];
        slot.version.fetch_add(1, Ordering::Acquire);
        let w = &slot.words;
        w[0].store(span.trace, Ordering::Relaxed);
        w[1].store(((span.id as u64) << 32) | span.parent as u64, Ordering::Relaxed);
        w[2].store(
            ((span.layer as u64) << 56)
                | ((span.detail as u64) << 48)
                | ((span.shard as u64) << 16)
                | (span.tid & 0xFFFF),
            Ordering::Relaxed,
        );
        w[3].store(span.start_ns, Ordering::Relaxed);
        w[4].store(span.end_ns, Ordering::Relaxed);
        w[5].store(span.generation, Ordering::Relaxed);
        w[6].store(claim, Ordering::Relaxed);
        slot.version.fetch_add(1, Ordering::Release);
    }

    /// The most recent `n` spans, oldest first. Slots that are
    /// mid-write or were overwritten while dumping are skipped (the
    /// ring never blocks writers for a reader).
    pub fn dump(&self, n: usize) -> Vec<ReqSpan> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let avail = head.min(cap).min(n as u64);
        let mut out = Vec::with_capacity(avail as usize);
        for claim in (head - avail)..head {
            let slot = &self.slots[(claim % cap) as usize];
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 & 1 == 1 {
                continue;
            }
            let w: [u64; WORDS] = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            if slot.version.load(Ordering::Acquire) != v1 || w[6] != claim {
                continue;
            }
            let Some(layer) = Layer::from_u8((w[2] >> 56) as u8) else { continue };
            out.push(ReqSpan {
                trace: w[0],
                id: (w[1] >> 32) as u32,
                parent: w[1] as u32,
                layer,
                detail: (w[2] >> 48) as u8,
                shard: (w[2] >> 16) as u32,
                generation: w[5],
                start_ns: w[3],
                end_ns: w[4],
                tid: w[2] & 0xFFFF,
            });
        }
        out
    }

    /// The most recent `n` spans as JSONL (oldest first, one object
    /// per line; empty string when none).
    pub fn render_jsonl(&self, n: usize) -> String {
        render_jsonl(&self.dump(n))
    }
}

// ---------------------------------------------------------------------------
// Trace context

struct ActiveCtx<'a> {
    ring: &'a SpanRing,
    trace: u64,
    next_id: Cell<u32>,
    parent: Cell<u32>,
    budget: u32,
}

/// The per-request tracing context threaded down the serving stack. An
/// unsampled request carries [`TraceCtx::off`] — a `None` that every
/// layer checks in one branch; a sampled one carries the ring, the
/// trace id, and the span-id allocator. Single-threaded by design (one
/// request is served on one thread), hence `Cell` not atomics.
pub struct TraceCtx<'a> {
    active: Option<ActiveCtx<'a>>,
}

impl<'a> TraceCtx<'a> {
    /// The disabled context: every [`TraceCtx::span`] is free and
    /// records nothing.
    pub fn off() -> TraceCtx<'static> {
        TraceCtx { active: None }
    }

    /// A sampled context recording into `ring` under `trace`, with the
    /// default [`SPAN_BUDGET`].
    pub fn sampled(ring: &'a SpanRing, trace: u64) -> TraceCtx<'a> {
        TraceCtx::with_budget(ring, trace, SPAN_BUDGET)
    }

    /// A sampled context with an explicit span budget.
    pub fn with_budget(ring: &'a SpanRing, trace: u64, budget: u32) -> TraceCtx<'a> {
        TraceCtx {
            active: Some(ActiveCtx {
                ring,
                trace,
                next_id: Cell::new(0),
                parent: Cell::new(NO_PARENT),
                budget,
            }),
        }
    }

    /// True when this request is sampled.
    pub fn is_sampled(&self) -> bool {
        self.active.is_some()
    }

    /// The trace id, when sampled.
    pub fn trace_id(&self) -> Option<u64> {
        self.active.as_ref().map(|a| a.trace)
    }

    /// Opens a span under the current parent. The handle records on
    /// drop; nest handles lexically so parents restore in LIFO order.
    /// On a disabled context this is a no-op handle.
    #[inline]
    pub fn span(&self, layer: Layer) -> SpanHandle<'_> {
        let Some(a) = &self.active else { return SpanHandle { inner: None } };
        let id = a.next_id.get();
        if id >= a.budget {
            a.ring.note_dropped();
            return SpanHandle { inner: None };
        }
        a.next_id.set(id + 1);
        let parent = a.parent.get();
        a.parent.set(id);
        SpanHandle {
            inner: Some(HandleInner {
                ctx: a,
                id,
                parent,
                layer,
                detail: detail::NONE,
                shard: NO_SHARD,
                generation: 0,
                start_ns: a.ring.now_ns(),
            }),
        }
    }
}

struct HandleInner<'c> {
    ctx: &'c ActiveCtx<'c>,
    id: u32,
    parent: u32,
    layer: Layer,
    detail: u8,
    shard: u32,
    generation: u64,
    start_ns: u64,
}

/// An open span; closes (and records) on drop.
pub struct SpanHandle<'c> {
    inner: Option<HandleInner<'c>>,
}

impl SpanHandle<'_> {
    /// True when this handle will record (sampled and within budget).
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// Sets the [`detail`] code (what happened).
    pub fn detail(&mut self, code: u8) {
        if let Some(h) = &mut self.inner {
            h.detail = code;
        }
    }

    /// Tags the span with a shard index.
    pub fn shard(&mut self, shard: u32) {
        if let Some(h) = &mut self.inner {
            h.shard = shard;
        }
    }

    /// Tags the span with a shard generation (or routing epoch).
    pub fn generation(&mut self, generation: u64) {
        if let Some(h) = &mut self.inner {
            h.generation = generation;
        }
    }
}

impl Drop for SpanHandle<'_> {
    fn drop(&mut self) {
        let Some(h) = self.inner.take() else { return };
        h.ctx.parent.set(h.parent);
        let end_ns = h.ctx.ring.now_ns();
        h.ctx.ring.push(&ReqSpan {
            trace: h.ctx.trace,
            id: h.id,
            parent: h.parent,
            layer: h.layer,
            detail: h.detail,
            shard: h.shard,
            generation: h.generation,
            start_ns: h.start_ns,
            end_ns,
            tid: current_tid() & 0xFFFF,
        });
    }
}

// ---------------------------------------------------------------------------
// Renderers

/// Renders spans as JSONL (one object per line, trailing newline each;
/// empty string for none).
pub fn render_jsonl(spans: &[ReqSpan]) -> String {
    let mut out = String::new();
    for s in spans {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

/// Parses JSONL produced by [`render_jsonl`] (or the `TRACES` verb).
/// Blank lines are skipped; errors carry 1-based line numbers.
pub fn parse_jsonl(text: &str) -> Result<Vec<ReqSpan>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        out.push(ReqSpan::from_json(line).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(out)
}

fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Renders spans as a Chrome trace-event JSON document (`ph:"X"`
/// complete events; one viewer row per trace via `tid`), loadable in
/// `chrome://tracing` / Perfetto.
pub fn to_chrome_json(spans: &[ReqSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n{{\"name\":{},\"cat\":\"hoiho\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"trace\":\"{:016x}\",\"span\":{},\"parent\":{},\
             \"shard\":{},\"generation\":{}}}}}",
            json_str(&s.frame()),
            s.trace & 0x7FFF_FFFF,
            micros(s.start_ns),
            micros(s.duration_ns()),
            s.trace,
            s.id,
            if s.parent == NO_PARENT { -1i64 } else { s.parent as i64 },
            if s.shard == NO_SHARD { -1i64 } else { s.shard as i64 },
            s.generation,
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// The one self-time walk: calls `f(tree, span, self_ns)` for every
/// span, with its trace indexed by span id and its self time (duration
/// minus its direct children's). The collapsed stacks and the per-layer
/// totals both derive from it.
fn for_each_self_time<'a>(
    spans: &'a [ReqSpan],
    mut f: impl FnMut(&BTreeMap<u32, &'a ReqSpan>, &'a ReqSpan, u64),
) {
    let mut by_trace: BTreeMap<u64, BTreeMap<u32, &ReqSpan>> = BTreeMap::new();
    for s in spans {
        by_trace.entry(s.trace).or_default().insert(s.id, s);
    }
    for tree in by_trace.values() {
        let mut child_ns: BTreeMap<u32, u64> = BTreeMap::new();
        for s in tree.values() {
            if s.parent != NO_PARENT {
                *child_ns.entry(s.parent).or_default() += s.duration_ns();
            }
        }
        for s in tree.values() {
            let self_ns =
                s.duration_ns().saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
            f(tree, s, self_ns);
        }
    }
}

/// The `;`-joined frame stack of `s` from its root down, following
/// parent links within its trace.
fn stack(tree: &BTreeMap<u32, &ReqSpan>, s: &ReqSpan) -> String {
    let mut frames = vec![s.frame()];
    let mut cur = s.parent;
    // Parent chains are one trace deep (≤ SPAN_BUDGET); the hop cap
    // just guards against a corrupted ring record.
    let mut hops = 0;
    while cur != NO_PARENT && hops < SPAN_BUDGET {
        match tree.get(&cur) {
            Some(p) => {
                frames.push(p.frame());
                cur = p.parent;
            }
            None => break,
        }
        hops += 1;
    }
    frames.reverse();
    frames.join(";")
}

/// Renders spans as collapsed-stack text (`stack;frames self_ns` per
/// line, aggregated and sorted) — the format flamegraph.pl and
/// inferno consume.
pub fn to_collapsed(spans: &[ReqSpan]) -> String {
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for_each_self_time(spans, |tree, s, self_ns| {
        *agg.entry(stack(tree, s)).or_default() += self_ns;
    });
    let mut out = String::new();
    for (stack, ns) in agg {
        out.push_str(&format!("{stack} {ns}\n"));
    }
    out
}

/// Total self-time per layer across `spans` (duration minus direct
/// children) — the `PROFILE` exposition's span-attribution section.
pub fn self_time_by_layer(spans: &[ReqSpan]) -> [(Layer, u64); 4] {
    let mut totals = [0u64; 4];
    for_each_self_time(spans, |_, s, self_ns| totals[s.layer as usize] += self_ns);
    [
        (Layer::Server, totals[0]),
        (Layer::Router, totals[1]),
        (Layer::Cache, totals[2]),
        (Layer::Engine, totals[3]),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ManualClock;

    fn span(trace: u64, id: u32, parent: u32, layer: Layer, d: u8, t: (u64, u64)) -> ReqSpan {
        ReqSpan {
            trace,
            id,
            parent,
            layer,
            detail: d,
            shard: NO_SHARD,
            generation: 0,
            start_ns: t.0,
            end_ns: t.1,
            tid: 0,
        }
    }

    #[test]
    fn sampler_is_deterministic_and_one_in_n() {
        let a = Sampler::new(3, 42);
        let b = Sampler::new(3, 42);
        let ta: Vec<Option<u64>> = (0..9).map(|_| a.sample()).collect();
        let tb: Vec<Option<u64>> = (0..9).map(|_| b.sample()).collect();
        assert_eq!(ta, tb, "fixed seed ⇒ identical decisions and ids");
        assert_eq!(ta.iter().filter(|t| t.is_some()).count(), 3);
        assert!(ta[0].is_some() && ta[3].is_some() && ta[6].is_some());
        let other = Sampler::new(3, 43);
        assert_ne!(other.sample(), ta[0], "different seed ⇒ different ids");
        let off = Sampler::disabled();
        assert!(!off.enabled());
        assert_eq!(off.sample(), None);
    }

    #[test]
    fn trace_ids_nonzero_and_mixed() {
        let mut seen = std::collections::BTreeSet::new();
        for seq in 0..64 {
            let id = trace_id_for(7, seq);
            assert_ne!(id, 0);
            seen.insert(id);
        }
        assert_eq!(seen.len(), 64, "ids must not collide over a small script");
    }

    #[test]
    fn ctx_records_nested_spans_with_parent_edges() {
        let clock = Arc::new(ManualClock::new());
        let ring = SpanRing::with_clock(16, clock.clone());
        let ctx = TraceCtx::sampled(&ring, 0xABCD);
        {
            let mut root = ctx.span(Layer::Server);
            root.detail(detail::QUERY);
            clock.advance(10);
            {
                let mut r = ctx.span(Layer::Router);
                r.detail(detail::EXACT);
                r.shard(1);
                r.generation(3);
                clock.advance(5);
                {
                    let mut e = ctx.span(Layer::Engine);
                    e.detail(detail::EXTRACT_HIT);
                    clock.advance(2);
                }
                clock.advance(1);
            }
            clock.advance(4);
        }
        let spans = ring.dump(16);
        assert_eq!(spans.len(), 3);
        // Records land in close order (engine, router, server).
        assert_eq!(spans[0].layer, Layer::Engine);
        assert_eq!(spans[0].parent, 1);
        assert_eq!(spans[1].layer, Layer::Router);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].shard, 1);
        assert_eq!(spans[1].generation, 3);
        assert_eq!(spans[2].layer, Layer::Server);
        assert!(spans[2].is_root());
        assert_eq!(spans[2].duration_ns(), 22);
        assert_eq!(spans[1].duration_ns(), 8);
        assert_eq!(spans[0].duration_ns(), 2);
        assert!(spans.iter().all(|s| s.trace == 0xABCD));
    }

    #[test]
    fn disabled_ctx_records_nothing() {
        let ring = SpanRing::new(4);
        let ctx = TraceCtx::off();
        assert!(!ctx.is_sampled());
        let mut h = ctx.span(Layer::Server);
        assert!(!h.active());
        h.detail(detail::QUERY);
        drop(h);
        assert_eq!(ring.recorded(), 0);
    }

    #[test]
    fn span_budget_drops_excess() {
        let clock = Arc::new(ManualClock::new());
        let ring = SpanRing::with_clock(64, clock);
        let ctx = TraceCtx::with_budget(&ring, 1, 2);
        for _ in 0..5 {
            ctx.span(Layer::Engine);
        }
        assert_eq!(ring.recorded(), 2);
        assert_eq!(ring.dropped(), 3);
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let clock = Arc::new(ManualClock::new());
        let ring = SpanRing::with_clock(4, clock);
        for i in 0..10u64 {
            ring.push(&span(i + 1, 0, NO_PARENT, Layer::Server, detail::QUERY, (i, i)));
        }
        let spans = ring.dump(100);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans.iter().map(|s| s.trace).collect::<Vec<_>>(), vec![7, 8, 9, 10]);
        assert_eq!(ring.dump(2).iter().map(|s| s.trace).collect::<Vec<_>>(), vec![9, 10]);
        assert_eq!(ring.recorded(), 10);
    }

    #[test]
    fn concurrent_pushes_never_tear() {
        let ring = SpanRing::new(64);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = &ring;
                s.spawn(move || {
                    for i in 0..500u64 {
                        ring.push(&span(
                            (t << 32) | (i + 1),
                            i as u32,
                            NO_PARENT,
                            Layer::Engine,
                            detail::EXTRACT_HIT,
                            (i, i + 1),
                        ));
                    }
                });
            }
        });
        assert_eq!(ring.recorded(), 2000);
        let spans = ring.dump(64);
        assert!(!spans.is_empty());
        for s in &spans {
            // A torn record would decode an inconsistent trace/id pair.
            assert_eq!(s.trace & 0xFFFF_FFFF, s.id as u64 + 1);
            assert_eq!(s.layer, Layer::Engine);
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let spans = vec![
            span(0xDEAD_BEEF, 0, NO_PARENT, Layer::Server, detail::QUERY, (5, 25)),
            ReqSpan {
                trace: 0xDEAD_BEEF,
                id: 1,
                parent: 0,
                layer: Layer::Router,
                detail: detail::EXACT,
                shard: 2,
                generation: 7,
                start_ns: 6,
                end_ns: 20,
                tid: 3,
            },
        ];
        let jsonl = render_jsonl(&spans);
        assert_eq!(jsonl.lines().count(), 2);
        assert!(jsonl.contains("\"parent\":null"));
        assert!(jsonl.contains("\"shard\":2"));
        let back = parse_jsonl(&jsonl).unwrap();
        assert_eq!(back, spans);
        assert!(parse_jsonl("{\"nope\":1}").unwrap_err().contains("line 1"));
        assert!(ReqSpan::from_json("{}").is_err());
    }

    #[test]
    fn chrome_json_has_complete_events() {
        let spans = vec![span(0x77, 0, NO_PARENT, Layer::Server, detail::QUERY, (1_000, 3_500))];
        let doc = to_chrome_json(&spans);
        assert!(doc.contains("\"traceEvents\":["));
        assert!(doc.contains("\"ph\":\"X\""));
        assert!(doc.contains("\"name\":\"server:query\""));
        assert!(doc.contains("\"ts\":1.000"));
        assert!(doc.contains("\"dur\":2.500"));
        assert!(doc.contains("\"parent\":-1"));
        assert!(doc.trim_end().ends_with("]}"));
    }

    #[test]
    fn collapsed_stacks_aggregate_self_time() {
        let spans = vec![
            span(1, 0, NO_PARENT, Layer::Server, detail::QUERY, (0, 100)),
            span(1, 1, 0, Layer::Engine, detail::EXTRACT_HIT, (10, 40)),
            // Second trace, same shape — must fold into the same stacks.
            span(2, 0, NO_PARENT, Layer::Server, detail::QUERY, (200, 260)),
            span(2, 1, 0, Layer::Engine, detail::EXTRACT_HIT, (210, 230)),
        ];
        let collapsed = to_collapsed(&spans);
        let lines: Vec<&str> = collapsed.lines().collect();
        assert_eq!(lines.len(), 2, "{collapsed}");
        // server self = (100-30) + (60-20) = 110; engine self = 30+20.
        assert!(lines.contains(&"server:query 110"), "{collapsed}");
        assert!(lines.contains(&"server:query;engine:extract_hit 50"), "{collapsed}");
        let self_time = self_time_by_layer(&spans);
        assert_eq!(self_time[Layer::Server as usize], (Layer::Server, 110));
        assert_eq!(self_time[Layer::Engine as usize], (Layer::Engine, 50));
    }

    #[test]
    fn layer_and_detail_names_round_trip() {
        for l in Layer::ALL {
            assert_eq!(Layer::from_name(l.name()), Some(l));
        }
        for code in [detail::QUERY, detail::EXACT, detail::STALE, detail::EXTRACT_MISS] {
            assert_eq!(detail::code(detail::name(code)), Some(code));
        }
        assert_eq!(detail::code("bogus"), None);
        assert_eq!(Layer::from_name("bogus"), None);
    }
}
