//! The metrics registry: named, labelled counters, gauges, and
//! log-scale latency histograms, rendered as Prometheus-style text.
//!
//! ## Cost model
//!
//! Registration (`counter`/`gauge`/`histogram`) takes the registry
//! mutex and allocates; it is meant to run once, at construction time,
//! with the returned handle cached by the instrumented component.
//! Updates through a handle are single relaxed atomic RMWs — no locks,
//! no allocation — so handles are safe on the serving hot path and can
//! be shared freely across threads (they are `Arc`s).
//!
//! Re-registering the same `(name, labels)` returns a handle to the
//! *same* underlying series, so independently constructed components
//! (say, a router rebuilt on reload) keep accumulating into one line.
//!
//! ## Histograms
//!
//! Fixed-bucket base-2 log scale: bucket *i* counts values in
//! `[2^i, 2^(i+1))` nanoseconds (bucket 0 also takes 0), up to
//! [`BUCKETS`] buckets (the last one is unbounded). Quantiles are
//! computed exactly *from the buckets*: `quantile(q)` walks the
//! cumulative counts to the nearest-rank bucket and reports that
//! bucket's upper bound — deterministic, mergeable across threads and
//! shards ([`Histogram::merge_from`]), and never worse than 2× off the
//! true value. The maximum is tracked exactly on the side.
//!
//! ## Exposition grammar
//!
//! [`Registry::render`] emits, per family in name order:
//!
//! ```text
//! # TYPE <name> counter|gauge|histogram
//! <name>{<k>="<v>",...} <integer>                  (counter/gauge)
//! <name>_bucket{...,le="<bound>"} <cumulative>     (histogram; only
//! <name>_bucket{...,le="+Inf"} <count>              non-empty buckets,
//! <name>_sum{...} <sum>                             +Inf always last)
//! <name>_count{...} <count>
//! <name>_max{...} <max>
//! ```
//!
//! Labels are sorted by key; values escape `\`, `"`, and newline; the
//! brace block is omitted when a series has no labels. Bucket lines
//! are cumulative, so they are non-decreasing and the `+Inf` line
//! equals `_count` — the invariants the exposition tests parse for.
//! `_max` is a non-standard extension carrying the exact maximum.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets. `2^47` ns ≈ 39 hours — anything
/// slower lands in the unbounded last bucket.
pub const BUCKETS: usize = 48;

/// What a registered family holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone non-negative count.
    Counter,
    /// Point-in-time signed value.
    Gauge,
    /// Log-bucketed distribution.
    Histogram,
}

impl MetricKind {
    fn label(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// A monotone counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (for tests and local
    /// accumulation).
    pub fn unregistered() -> Counter {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (settable, signed).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn unregistered() -> Gauge {
        Gauge(Arc::new(AtomicI64::new(0)))
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A log-scale latency histogram handle. Values are nanoseconds by
/// convention (the exposition renders raw integers either way).
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistInner>);

/// Bucket index for a value: `floor(log2(v))`, clamped to the table.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v <= 1 {
        0
    } else {
        ((63 - v.leading_zeros()) as usize).min(BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`None` for the unbounded last
/// bucket).
pub fn bucket_bound(i: usize) -> Option<u64> {
    if i + 1 >= BUCKETS {
        None
    } else {
        Some((1u64 << (i + 1)) - 1)
    }
}

/// Nearest-rank quantile over raw per-bucket counts (as produced by
/// [`Histogram::bucket_counts`], or a windowed difference of two such
/// vectors): the upper bound of the bucket holding the
/// `ceil(q·count)`-th observation, or `max` when that bucket holds the
/// maximum, so no quantile exceeds it and `q = 1.0` gives it exactly.
/// `max` = 0 means unknown, as for a window; then the unbounded last
/// bucket reports its lower bound. Returns 0 when empty.
pub fn quantile_from_counts(counts: &[u64], max: u64, q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
    let mut cum = 0u64;
    let i = counts
        .iter()
        .position(|&n| {
            cum += n;
            cum >= rank
        })
        .expect("the rank is at most the total");
    if max > 0 && i == bucket_of(max) {
        max
    } else {
        bucket_bound(i).unwrap_or(1u64 << (BUCKETS - 1))
    }
}

impl Histogram {
    /// A histogram not attached to any registry — loadgen builds one
    /// per connection and merges them.
    pub fn unregistered() -> Histogram {
        Histogram(Arc::new(HistInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }))
    }

    /// Records one value.
    #[inline]
    pub fn observe(&self, v: u64) {
        let h = &self.0;
        h.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        h.count.fetch_add(1, Ordering::Relaxed);
        h.sum.fetch_add(v, Ordering::Relaxed);
        h.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Adds every observation of `other` into `self` — bucket counts,
    /// count, sum, and max all combine exactly, so per-thread (or
    /// per-shard) histograms fold into one with no loss.
    pub fn merge_from(&self, other: &Histogram) {
        for (mine, theirs) in self.0.buckets.iter().zip(&other.0.buckets) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.0.count.fetch_add(other.count(), Ordering::Relaxed);
        self.0.sum.fetch_add(other.sum(), Ordering::Relaxed);
        self.0.max.fetch_max(other.max(), Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.0.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum observed value (0 when empty).
    pub fn max(&self) -> u64 {
        self.0.max.load(Ordering::Relaxed)
    }

    /// Nearest-rank quantile by [`quantile_from_counts`]'s rule, with
    /// the exact maximum known (so `quantile(1.0) == max()`). Returns 0
    /// when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile_from_counts(&self.bucket_counts(), self.max(), q)
    }

    /// Raw per-bucket counts (length [`BUCKETS`], zeros included).
    /// Unlike [`Histogram::snapshot`] this is subtractable: bucket
    /// counts only grow, so `new - old` is the histogram of a window —
    /// what the SLO engine's burn-rate math runs on.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// A consistent-enough point-in-time copy (relaxed loads; exact
    /// once writers quiesce).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut cum = 0u64;
        for (i, b) in self.0.buckets.iter().enumerate() {
            let n = b.load(Ordering::Relaxed);
            if n > 0 {
                cum += n;
                buckets.push((bucket_bound(i), cum));
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
            max: self.max(),
        }
    }
}

/// Point-in-time histogram state: non-empty buckets as
/// `(upper_bound, cumulative_count)` (bound `None` = unbounded).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Non-empty buckets, ascending, cumulative.
    pub buckets: Vec<(Option<u64>, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: u64,
    /// Exact maximum.
    pub max: u64,
}

/// One registered series.
#[derive(Debug, Clone)]
enum Series {
    C(Counter),
    G(Gauge),
    H(Histogram),
}

#[derive(Debug)]
struct Family {
    kind: MetricKind,
    /// Rendered label block (`{a="b",...}` or empty) → series.
    series: BTreeMap<String, Series>,
}

/// The metrics registry: a mutex-guarded name→family table handing out
/// lock-free handles.
#[derive(Debug)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry { families: Mutex::new(BTreeMap::new()) }
    }

    /// Gets or creates the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// If `name` is already registered with a different kind, or if a
    /// name/label fails validation (see [`Registry::render`] grammar).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, labels, MetricKind::Counter, || Series::C(Counter::unregistered()))
        {
            Series::C(c) => c,
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, labels, MetricKind::Gauge, || Series::G(Gauge::unregistered())) {
            Series::G(g) => g,
            _ => unreachable!("kind checked by series()"),
        }
    }

    /// Gets or creates the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match self.series(name, labels, MetricKind::Histogram, || {
            Series::H(Histogram::unregistered())
        }) {
            Series::H(h) => h,
            _ => unreachable!("kind checked by series()"),
        }
    }

    fn series(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let label_key = render_labels(labels, None);
        let mut families = self.families.lock().expect("registry lock poisoned");
        let family = families
            .entry(name.to_string())
            .or_insert_with(|| Family { kind, series: BTreeMap::new() });
        assert!(
            family.kind == kind,
            "metric {name} already registered as a {}, requested as a {}",
            family.kind.label(),
            kind.label()
        );
        family.series.entry(label_key).or_insert_with(make).clone()
    }

    /// Sums every counter series of the family `name`, across all
    /// label sets (0 when the family is absent or not a counter
    /// family). This is how the SLO engine reads e.g.
    /// `hoiho_requests_total` without enumerating verbs/outcomes.
    pub fn counter_sum(&self, name: &str) -> u64 {
        let families = self.families.lock().expect("registry lock poisoned");
        let Some(family) = families.get(name) else { return 0 };
        family
            .series
            .values()
            .map(|s| match s {
                Series::C(c) => c.get(),
                _ => 0,
            })
            .sum()
    }

    /// Merges every histogram series of the family `name` into one
    /// fresh unregistered histogram (`None` when the family is absent
    /// or not a histogram family). The merge is exact (bucket counts,
    /// count, sum, max all combine).
    pub fn histogram_merged(&self, name: &str) -> Option<Histogram> {
        let series: Vec<Series> = {
            let families = self.families.lock().expect("registry lock poisoned");
            let family = families.get(name)?;
            if family.kind != MetricKind::Histogram {
                return None;
            }
            family.series.values().cloned().collect()
        };
        let merged = Histogram::unregistered();
        for s in &series {
            if let Series::H(h) = s {
                merged.merge_from(h);
            }
        }
        Some(merged)
    }

    /// Renders the whole registry in the exposition grammar (module
    /// docs). Families appear in name order, series in label order —
    /// the output is deterministic for deterministic counter values.
    pub fn render(&self) -> String {
        let families = self.families.lock().expect("registry lock poisoned");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str("# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(family.kind.label());
            out.push('\n');
            for (labels, series) in &family.series {
                match series {
                    Series::C(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::G(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", g.get()));
                    }
                    Series::H(h) => render_histogram(&mut out, name, labels, h),
                }
            }
        }
        out
    }
}

impl Default for Registry {
    fn default() -> Registry {
        Registry::new()
    }
}

/// Renders one histogram series: non-empty cumulative buckets, the
/// `+Inf` line, then `_sum`/`_count`/`_max`.
fn render_histogram(out: &mut String, name: &str, labels: &str, h: &Histogram) {
    let snap = h.snapshot();
    let with_le = |bound: &str| -> String {
        if labels.is_empty() {
            format!("{{le=\"{bound}\"}}")
        } else {
            // Splice le into the existing block, keeping it last.
            format!("{},le=\"{bound}\"}}", &labels[..labels.len() - 1])
        }
    };
    for &(bound, cum) in &snap.buckets {
        if let Some(b) = bound {
            out.push_str(&format!("{name}_bucket{} {cum}\n", with_le(&b.to_string())));
        }
    }
    out.push_str(&format!("{name}_bucket{} {}\n", with_le("+Inf"), snap.count));
    out.push_str(&format!("{name}_sum{labels} {}\n", snap.sum));
    out.push_str(&format!("{name}_count{labels} {}\n", snap.count));
    out.push_str(&format!("{name}_max{labels} {}\n", snap.max));
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — metric and label names.
fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Renders a sorted label block (`""` when empty). `extra` appends a
/// pre-rendered pair (used for `le`).
fn render_labels(labels: &[(&str, &str)], extra: Option<&str>) -> String {
    let mut pairs: Vec<(&str, &str)> = labels.to_vec();
    pairs.sort_by(|a, b| a.0.cmp(b.0));
    for w in pairs.windows(2) {
        assert!(w[0].0 != w[1].0, "duplicate label {:?}", w[0].0);
    }
    if pairs.is_empty() && extra.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in pairs.iter().enumerate() {
        assert!(valid_name(k), "invalid label name {k:?}");
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    if let Some(e) = extra {
        if !pairs.is_empty() {
            out.push(',');
        }
        out.push_str(e);
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges() {
        let r = Registry::new();
        let c = r.counter("hoiho_requests_total", &[("verb", "query"), ("outcome", "hit")]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) — any order — is the same series.
        let c2 = r.counter("hoiho_requests_total", &[("outcome", "hit"), ("verb", "query")]);
        c2.inc();
        assert_eq!(c.get(), 6);
        let g = r.gauge("hoiho_shard_generation", &[("shard", "0")]);
        g.set(3);
        g.add(-1);
        assert_eq!(g.get(), 2);
    }

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_bound(0), Some(1));
        assert_eq!(bucket_bound(9), Some(1023));
        assert_eq!(bucket_bound(BUCKETS - 1), None);
    }

    #[test]
    fn histogram_quantiles_from_buckets() {
        let h = Histogram::unregistered();
        // 90 fast (≤ 1023ns bucket), 9 medium, 1 slow.
        for _ in 0..90 {
            h.observe(1000);
        }
        for _ in 0..9 {
            h.observe(100_000);
        }
        h.observe(7_000_000);
        assert_eq!(h.count(), 100);
        assert_eq!(h.max(), 7_000_000);
        assert_eq!(h.quantile(0.50), 1023);
        assert_eq!(h.quantile(0.90), 1023);
        assert_eq!(h.quantile(0.99), (1 << 17) - 1); // 100_000 ∈ [2^16, 2^17)
        assert_eq!(h.quantile(1.0), 7_000_000, "p100 is the exact max");
        // The highest non-empty bucket reports the exact max.
        assert_eq!(h.quantile(0.995), 7_000_000);
    }

    #[test]
    fn histogram_merge_is_exact() {
        let a = Histogram::unregistered();
        let b = Histogram::unregistered();
        for v in [10, 20, 30] {
            a.observe(v);
        }
        for v in [1_000_000, 5] {
            b.observe(v);
        }
        a.merge_from(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.sum(), 10 + 20 + 30 + 1_000_000 + 5);
        assert_eq!(a.max(), 1_000_000);
        let total: u64 = a
            .snapshot()
            .buckets
            .iter()
            .map(|&(_, cum)| cum)
            .last()
            .unwrap_or(0);
        assert_eq!(total, 5, "cumulative last bucket is the count");
    }

    #[test]
    fn render_shape_and_invariants() {
        let r = Registry::new();
        r.counter("b_total", &[("verb", "query")]).add(3);
        r.counter("b_total", &[("verb", "stats")]).add(1);
        r.gauge("a_gauge", &[]).set(-7);
        let h = r.histogram("lat_ns", &[("shard", "0")]);
        h.observe(100);
        h.observe(2000);
        h.observe(2000);
        let text = r.render();
        // Families in name order; gauge sorts before counter here.
        let a = text.find("# TYPE a_gauge gauge").expect("gauge family");
        let b = text.find("# TYPE b_total counter").expect("counter family");
        let l = text.find("# TYPE lat_ns histogram").expect("histogram family");
        assert!(a < b && b < l, "{text}");
        assert!(text.contains("a_gauge -7\n"), "{text}");
        assert!(text.contains("b_total{verb=\"query\"} 3\n"), "{text}");
        assert!(text.contains("b_total{verb=\"stats\"} 1\n"), "{text}");
        assert!(text.contains("lat_ns_bucket{shard=\"0\",le=\"127\"} 1\n"), "{text}");
        assert!(text.contains("lat_ns_bucket{shard=\"0\",le=\"2047\"} 3\n"), "{text}");
        assert!(text.contains("lat_ns_bucket{shard=\"0\",le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_ns_sum{shard=\"0\"} 4100\n"), "{text}");
        assert!(text.contains("lat_ns_count{shard=\"0\"} 3\n"), "{text}");
        assert!(text.contains("lat_ns_max{shard=\"0\"} 2000\n"), "{text}");
    }

    #[test]
    fn label_escaping_and_empty_block() {
        let r = Registry::new();
        r.counter("c_total", &[("path", "a\"b\\c\nd")]).inc();
        r.counter("plain_total", &[]).inc();
        let text = r.render();
        assert!(text.contains("c_total{path=\"a\\\"b\\\\c\\nd\"} 1\n"), "{text}");
        assert!(text.contains("plain_total 1\n"), "{text}");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x_total", &[]);
        r.gauge("x_total", &[]);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_name_panics() {
        Registry::new().counter("bad-name", &[]);
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn duplicate_label_panics() {
        Registry::new().counter("ok_total", &[("a", "1"), ("a", "2")]);
    }

    #[test]
    fn counter_sum_crosses_label_sets() {
        let r = Registry::new();
        r.counter("req_total", &[("verb", "query")]).add(3);
        r.counter("req_total", &[("verb", "batch")]).add(4);
        r.gauge("g", &[]).set(9);
        assert_eq!(r.counter_sum("req_total"), 7);
        assert_eq!(r.counter_sum("absent_total"), 0);
        assert_eq!(r.counter_sum("g"), 0, "gauges don't sum as counters");
    }

    #[test]
    fn histogram_merged_folds_series() {
        let r = Registry::new();
        r.histogram("lat_ns", &[("shard", "0")]).observe(10);
        r.histogram("lat_ns", &[("shard", "1")]).observe(1000);
        let m = r.histogram_merged("lat_ns").unwrap();
        assert_eq!(m.count(), 2);
        assert_eq!(m.sum(), 1010);
        assert_eq!(m.max(), 1000);
        assert!(r.histogram_merged("absent").is_none());
        r.counter("c_total", &[]);
        assert!(r.histogram_merged("c_total").is_none());
    }

    #[test]
    fn quantile_from_counts_matches_quantile() {
        let h = Histogram::unregistered();
        for v in [1u64, 5, 9, 100, 7000] {
            h.observe(v);
        }
        let counts = h.bucket_counts();
        assert_eq!(counts.len(), BUCKETS);
        assert_eq!(counts.iter().sum::<u64>(), 5);
        // With the maximum known, every quantile matches, the tail
        // included: ranks 1 and 3 report their buckets' bounds, and
        // rank 5 falls in the maximum's bucket, which reports 7000.
        for (q, want) in [(0.2, 1), (0.5, 15), (0.99, 7000), (1.0, 7000)] {
            assert_eq!(quantile_from_counts(&counts, h.max(), q), want, "q={q}");
            assert_eq!(h.quantile(q), want, "q={q}");
        }
        // Unknown (0), as for a window: the tail reports its bucket bound.
        assert_eq!(quantile_from_counts(&counts, 0, 1.0), bucket_bound(bucket_of(7000)).unwrap());
        assert_eq!(quantile_from_counts(&[], 0, 0.5), 0);
        assert_eq!(quantile_from_counts(&[0, 0], 0, 0.99), 0);
    }

    #[test]
    fn concurrent_updates_sum_exactly() {
        let r = Registry::new();
        let h = r.histogram("t_ns", &[]);
        let c = r.counter("t_total", &[]);
        std::thread::scope(|s| {
            for t in 0..4 {
                let h = h.clone();
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.observe(t * 1000 + i);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        let last = h.snapshot().buckets.last().map(|&(_, cum)| cum);
        assert_eq!(last, Some(4000));
    }
}
