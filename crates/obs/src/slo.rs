//! Declarative service-level objectives evaluated from the metrics
//! registry.
//!
//! An objective file is line-based (comments `#`, blank lines ok):
//!
//! ```text
//! # hoiho-slo 1
//! slo p99_ms max 500
//! slo error_rate max 0.05
//! slo cache_hit_rate min 0.10 cache-effectiveness
//! ```
//!
//! `slo <metric> <max|min> <threshold> [name]` — metrics are
//! `p50_ms`/`p90_ms`/`p99_ms`/`max_ms` (request latency quantiles,
//! milliseconds), `error_rate` (protocol errors over requests), and
//! `cache_hit_rate` (router cache hits over probes). `p99_batch_ms`
//! and `hit_rate` parse as aliases.
//!
//! **Burn rate** is error-budget consumption speed: for a `max` rate
//! objective, `value / threshold` (1.0 = consuming budget exactly as
//! fast as allowed); for a `min` rate objective the budget is the
//! allowed shortfall, `(1 - value) / (1 - threshold)`. The server-side
//! [`SloEngine`] keeps a ring of periodic registry snapshots; because
//! histogram buckets and counters only grow, the difference of two
//! snapshots *is* the traffic of that window, so the `SLO` verb
//! reports burn over 10s/60s/300s windows alongside the
//! process-lifetime value (the multi-window pattern: a fast window
//! catches a spike, a slow window confirms it is sustained). Breach is
//! judged on the lifetime value; windows are diagnostic.
//!
//! Loadgen evaluates the same objectives client-side over its own
//! merged run histogram (`--slo FILE` exits nonzero on breach); there
//! the run is the single window.

use crate::metrics::{quantile_from_counts, Registry, BUCKETS};
use std::collections::VecDeque;
use std::sync::Mutex;

/// Registry families the server-side evaluation reads.
pub const METRIC_LATENCY: &str = "hoiho_request_latency_ns";
pub const METRIC_REQUESTS: &str = "hoiho_requests_total";
pub const METRIC_ERRORS: &str = "hoiho_protocol_errors_total";
pub const METRIC_CACHE_HITS: &str = "hoiho_cache_hits_total";
pub const METRIC_CACHE_MISSES: &str = "hoiho_cache_misses_total";

/// Diagnostic burn-rate windows: `(label, width in ns)`.
pub const SLO_WINDOWS: [(&str, u64); 3] =
    [("10s", 10_000_000_000), ("60s", 60_000_000_000), ("300s", 300_000_000_000)];

/// Maximum retained snapshots (at the server's ~0.3 s tick this covers
/// the widest window with room to spare).
pub const MAX_SNAPSHOTS: usize = 1200;

/// What an objective measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SloMetric {
    /// Request latency quantiles / max, in milliseconds.
    P50Ms,
    P90Ms,
    P99Ms,
    MaxMs,
    /// Protocol errors over (requests + errors), in [0,1].
    ErrorRate,
    /// Cache hits over probes, in [0,1].
    CacheHitRate,
}

impl SloMetric {
    /// Canonical metric name.
    pub fn name(self) -> &'static str {
        match self {
            SloMetric::P50Ms => "p50_ms",
            SloMetric::P90Ms => "p90_ms",
            SloMetric::P99Ms => "p99_ms",
            SloMetric::MaxMs => "max_ms",
            SloMetric::ErrorRate => "error_rate",
            SloMetric::CacheHitRate => "cache_hit_rate",
        }
    }

    /// Parses a metric name (canonical names plus aliases).
    pub fn parse(s: &str) -> Option<SloMetric> {
        Some(match s {
            "p50_ms" | "p50_batch_ms" => SloMetric::P50Ms,
            "p90_ms" | "p90_batch_ms" => SloMetric::P90Ms,
            "p99_ms" | "p99_batch_ms" => SloMetric::P99Ms,
            "max_ms" => SloMetric::MaxMs,
            "error_rate" => SloMetric::ErrorRate,
            "cache_hit_rate" | "hit_rate" => SloMetric::CacheHitRate,
            _ => return None,
        })
    }
}

/// Whether the threshold is a ceiling or a floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bound {
    Max,
    Min,
}

impl Bound {
    /// `"max"` / `"min"`.
    pub fn name(self) -> &'static str {
        match self {
            Bound::Max => "max",
            Bound::Min => "min",
        }
    }
}

/// One declared objective.
#[derive(Debug, Clone, PartialEq)]
pub struct Objective {
    /// Display name (defaults to the metric name).
    pub name: String,
    pub metric: SloMetric,
    pub bound: Bound,
    pub threshold: f64,
}

/// Parses an objective file (module-level grammar). Errors carry
/// 1-based line numbers.
pub fn parse_objectives(text: &str) -> Result<Vec<Objective>, String> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: String| format!("line {}: {msg}", i + 1);
        let mut tok = line.split_whitespace();
        match tok.next() {
            Some("slo") => {}
            Some(other) => return Err(err(format!("expected `slo`, got {other:?}"))),
            None => unreachable!("blank lines filtered above"),
        }
        let metric_s = tok.next().ok_or_else(|| err("missing metric".into()))?;
        let metric = SloMetric::parse(metric_s)
            .ok_or_else(|| err(format!("unknown metric {metric_s:?}")))?;
        let bound = match tok.next() {
            Some("max") => Bound::Max,
            Some("min") => Bound::Min,
            Some(other) => return Err(err(format!("expected max|min, got {other:?}"))),
            None => return Err(err("missing max|min".into())),
        };
        let thr_s = tok.next().ok_or_else(|| err("missing threshold".into()))?;
        let threshold: f64 =
            thr_s.parse().map_err(|e| err(format!("bad threshold {thr_s:?}: {e}")))?;
        if !threshold.is_finite() || threshold < 0.0 {
            return Err(err(format!("threshold must be finite and ≥ 0, got {thr_s}")));
        }
        let name = tok.next().unwrap_or(metric.name()).to_string();
        if let Some(extra) = tok.next() {
            return Err(err(format!("trailing token {extra:?}")));
        }
        out.push(Objective { name, metric, bound, threshold });
    }
    Ok(out)
}

/// Generous built-in defaults: a server that answers at all passes.
pub fn default_objectives() -> Vec<Objective> {
    vec![
        Objective {
            name: "p99_ms".into(),
            metric: SloMetric::P99Ms,
            bound: Bound::Max,
            threshold: 500.0,
        },
        Objective {
            name: "error_rate".into(),
            metric: SloMetric::ErrorRate,
            bound: Bound::Max,
            threshold: 0.05,
        },
    ]
}

/// The measured traffic of one window: subtractable raw tallies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SloWindowData {
    /// Raw latency bucket counts (length [`BUCKETS`]; empty = no
    /// latency family).
    pub latency_counts: Vec<u64>,
    /// Exact latency max in ns (0 when unknown — windowed data falls
    /// back to bucket bounds, see [`quantile_from_counts`]).
    pub latency_max_ns: u64,
    pub errors: u64,
    pub requests: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
}

impl SloWindowData {
    /// The window `newer - older` (both must come from the same
    /// registry; counters only grow, so saturating subtraction is
    /// exact). The windowed max is unknown, so it is left 0.
    pub fn delta(older: &SloWindowData, newer: &SloWindowData) -> SloWindowData {
        let n = newer.latency_counts.len().max(older.latency_counts.len());
        let at = |v: &Vec<u64>, i: usize| v.get(i).copied().unwrap_or(0);
        SloWindowData {
            latency_counts: (0..n)
                .map(|i| at(&newer.latency_counts, i).saturating_sub(at(&older.latency_counts, i)))
                .collect(),
            latency_max_ns: 0,
            errors: newer.errors.saturating_sub(older.errors),
            requests: newer.requests.saturating_sub(older.requests),
            cache_hits: newer.cache_hits.saturating_sub(older.cache_hits),
            cache_misses: newer.cache_misses.saturating_sub(older.cache_misses),
        }
    }

    fn latency_ms(&self, q: f64) -> Option<f64> {
        if self.latency_counts.iter().sum::<u64>() == 0 {
            return None;
        }
        let ns = quantile_from_counts(&self.latency_counts, self.latency_max_ns, q);
        Some(ns as f64 / 1_000_000.0)
    }

    /// The metric's value over this window (`None` when no traffic of
    /// that kind was observed — reported `n/a`, never a breach).
    pub fn value_of(&self, metric: SloMetric) -> Option<f64> {
        match metric {
            SloMetric::P50Ms => self.latency_ms(0.5),
            SloMetric::P90Ms => self.latency_ms(0.9),
            SloMetric::P99Ms => self.latency_ms(0.99),
            SloMetric::MaxMs => self.latency_ms(1.0),
            SloMetric::ErrorRate => {
                let total = self.requests + self.errors;
                if total == 0 {
                    None
                } else {
                    Some(self.errors as f64 / total as f64)
                }
            }
            SloMetric::CacheHitRate => {
                let probes = self.cache_hits + self.cache_misses;
                if probes == 0 {
                    None
                } else {
                    Some(self.cache_hits as f64 / probes as f64)
                }
            }
        }
    }
}

/// One timestamped registry snapshot.
#[derive(Debug, Clone)]
pub struct SloSnapshot {
    pub ts_ns: u64,
    pub data: SloWindowData,
}

/// Captures the families the SLO engine evaluates from `reg`.
pub fn snapshot_registry(reg: &Registry, now_ns: u64) -> SloSnapshot {
    let (latency_counts, latency_max_ns) = match reg.histogram_merged(METRIC_LATENCY) {
        Some(h) => (h.bucket_counts(), h.max()),
        None => (vec![0; BUCKETS], 0),
    };
    SloSnapshot {
        ts_ns: now_ns,
        data: SloWindowData {
            latency_counts,
            latency_max_ns,
            errors: reg.counter_sum(METRIC_ERRORS),
            requests: reg.counter_sum(METRIC_REQUESTS),
            cache_hits: reg.counter_sum(METRIC_CACHE_HITS),
            cache_misses: reg.counter_sum(METRIC_CACHE_MISSES),
        },
    }
}

/// Burn rate of `value` against the objective (None when undefined,
/// e.g. a zero budget).
pub fn burn_rate(bound: Bound, threshold: f64, value: f64) -> Option<f64> {
    match bound {
        Bound::Max => {
            if threshold > 0.0 {
                Some(value / threshold)
            } else {
                None
            }
        }
        Bound::Min => {
            if threshold < 1.0 {
                Some((1.0 - value) / (1.0 - threshold))
            } else {
                None
            }
        }
    }
}

/// One objective's evaluation.
#[derive(Debug, Clone)]
pub struct SloStatus {
    pub objective: Objective,
    /// Lifetime (or whole-run) value; `None` = no such traffic.
    pub value: Option<f64>,
    /// Lifetime burn rate.
    pub burn: Option<f64>,
    /// Per-window burn rates, `(label, burn)`; `None` = window not yet
    /// covered or no traffic in it.
    pub windows: Vec<(&'static str, Option<f64>)>,
    /// True when the lifetime value violates the bound.
    pub breach: bool,
}

impl SloStatus {
    /// `ok` / `breach` / `n/a`.
    pub fn status(&self) -> &'static str {
        if self.breach {
            "breach"
        } else if self.value.is_none() {
            "n/a"
        } else {
            "ok"
        }
    }
}

fn fmt_f64(v: f64) -> String {
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() {
        "0".to_string()
    } else {
        s.to_string()
    }
}

/// Evaluates `objectives` against the overall window, plus diagnostic
/// burn rates per extra window.
pub fn evaluate(
    objectives: &[Objective],
    overall: &SloWindowData,
    windows: &[(&'static str, Option<SloWindowData>)],
) -> Vec<SloStatus> {
    objectives
        .iter()
        .map(|o| {
            let value = overall.value_of(o.metric);
            let breach = match value {
                None => false,
                Some(v) => match o.bound {
                    Bound::Max => v > o.threshold,
                    Bound::Min => v < o.threshold,
                },
            };
            let burn = value.and_then(|v| burn_rate(o.bound, o.threshold, v));
            let windows = windows
                .iter()
                .map(|(label, data)| {
                    let wburn = data.as_ref().and_then(|d| {
                        d.value_of(o.metric).and_then(|v| burn_rate(o.bound, o.threshold, v))
                    });
                    (*label, wburn)
                })
                .collect();
            SloStatus { objective: o.clone(), value, burn, windows, breach }
        })
        .collect()
}

/// Renders statuses as the tab-separated `SLO` verb body (one line per
/// objective, no trailing terminator).
pub fn render_statuses(statuses: &[SloStatus]) -> String {
    let mut out = String::new();
    for s in statuses {
        out.push_str(&format!(
            "slo\t{}\tmetric={}\tbound={}\ttarget={}\tvalue={}\tstatus={}\tburn={}",
            s.objective.name,
            s.objective.metric.name(),
            s.objective.bound.name(),
            fmt_f64(s.objective.threshold),
            s.value.map(fmt_f64).unwrap_or_else(|| "-".into()),
            s.status(),
            s.burn.map(fmt_f64).unwrap_or_else(|| "-".into()),
        ));
        for (label, burn) in &s.windows {
            out.push_str(&format!(
                "\tburn_{label}={}",
                burn.map(fmt_f64).unwrap_or_else(|| "-".into())
            ));
        }
        out.push('\n');
    }
    out
}

/// The server-side engine: declared objectives plus a bounded history
/// of registry snapshots (fed by the server's watcher thread).
pub struct SloEngine {
    objectives: Mutex<Vec<Objective>>,
    history: Mutex<VecDeque<SloSnapshot>>,
}

impl SloEngine {
    /// An engine with the generous [`default_objectives`].
    pub fn new() -> SloEngine {
        SloEngine {
            objectives: Mutex::new(default_objectives()),
            history: Mutex::new(VecDeque::new()),
        }
    }

    /// Replaces the objective set.
    pub fn set_objectives(&self, objectives: Vec<Objective>) {
        *self.objectives.lock().expect("slo lock poisoned") = objectives;
    }

    /// The current objective set.
    pub fn objectives(&self) -> Vec<Objective> {
        self.objectives.lock().expect("slo lock poisoned").clone()
    }

    /// Appends one snapshot (bounded by [`MAX_SNAPSHOTS`]).
    pub fn tick(&self, snap: SloSnapshot) {
        let mut h = self.history.lock().expect("slo lock poisoned");
        if h.len() == MAX_SNAPSHOTS {
            h.pop_front();
        }
        h.push_back(snap);
    }

    /// Retained snapshots.
    pub fn history_len(&self) -> usize {
        self.history.lock().expect("slo lock poisoned").len()
    }

    /// Evaluates the objectives: lifetime values from `current`,
    /// windowed burn from the newest snapshot at least as old as each
    /// window.
    pub fn report(&self, current: &SloSnapshot) -> Vec<SloStatus> {
        let history = self.history.lock().expect("slo lock poisoned");
        let windows: Vec<(&'static str, Option<SloWindowData>)> = SLO_WINDOWS
            .iter()
            .map(|&(label, width)| {
                // A window only reports once the clock has covered it
                // in full; the base is the newest snapshot at or
                // before the cutoff (tightest full coverage).
                let base = if current.ts_ns >= width {
                    let cutoff = current.ts_ns - width;
                    history.iter().rev().find(|s| s.ts_ns <= cutoff)
                } else {
                    None
                };
                (label, base.map(|b| SloWindowData::delta(&b.data, &current.data)))
            })
            .collect();
        drop(history);
        evaluate(&self.objectives.lock().expect("slo lock poisoned"), &current.data, &windows)
    }
}

impl Default for SloEngine {
    fn default() -> SloEngine {
        SloEngine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;

    #[test]
    fn parses_objectives_with_aliases_and_names() {
        let text = "# hoiho-slo 1\n\nslo p99_batch_ms max 250\nslo error_rate max 0.05\n\
                    slo hit_rate min 0.2 cache-effectiveness\n";
        let objs = parse_objectives(text).unwrap();
        assert_eq!(objs.len(), 3);
        assert_eq!(objs[0].metric, SloMetric::P99Ms);
        assert_eq!(objs[0].bound, Bound::Max);
        assert_eq!(objs[0].threshold, 250.0);
        assert_eq!(objs[0].name, "p99_ms", "name defaults to the canonical metric");
        assert_eq!(objs[2].metric, SloMetric::CacheHitRate);
        assert_eq!(objs[2].bound, Bound::Min);
        assert_eq!(objs[2].name, "cache-effectiveness");
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        assert!(parse_objectives("slo nope max 1").unwrap_err().starts_with("line 1:"));
        assert!(parse_objectives("\nobjective p99_ms max 1").unwrap_err().starts_with("line 2:"));
        assert!(parse_objectives("slo p99_ms maybe 1").unwrap_err().contains("max|min"));
        assert!(parse_objectives("slo p99_ms max xyz").unwrap_err().contains("bad threshold"));
        assert!(parse_objectives("slo p99_ms max -1").unwrap_err().contains("≥ 0"));
        assert!(parse_objectives("slo p99_ms max 1 a b").unwrap_err().contains("trailing"));
    }

    fn window(lat_ns: &[u64], errors: u64, requests: u64, hits: u64, misses: u64) -> SloWindowData {
        let mut counts = vec![0u64; BUCKETS];
        let mut max = 0;
        for &v in lat_ns {
            counts[if v <= 1 { 0 } else { (63 - v.leading_zeros()) as usize }] += 1;
            max = max.max(v);
        }
        SloWindowData {
            latency_counts: counts,
            latency_max_ns: max,
            errors,
            requests,
            cache_hits: hits,
            cache_misses: misses,
        }
    }

    #[test]
    fn values_and_breaches() {
        // 10 requests at ~1ms, one protocol error, 3/4 cache hits.
        let w = window(&[1_000_000; 10], 1, 10, 3, 1);
        assert_eq!(w.value_of(SloMetric::P99Ms), Some(1.0));
        assert!((w.value_of(SloMetric::ErrorRate).unwrap() - 1.0 / 11.0).abs() < 1e-12);
        assert_eq!(w.value_of(SloMetric::CacheHitRate), Some(0.75));
        assert_eq!(w.value_of(SloMetric::MaxMs), Some(1.0));

        let objs = vec![
            Objective {
                name: "lat".into(),
                metric: SloMetric::P99Ms,
                bound: Bound::Max,
                threshold: 0.5,
            },
            Objective {
                name: "err".into(),
                metric: SloMetric::ErrorRate,
                bound: Bound::Max,
                threshold: 0.5,
            },
            Objective {
                name: "hit".into(),
                metric: SloMetric::CacheHitRate,
                bound: Bound::Min,
                threshold: 0.9,
            },
        ];
        let st = evaluate(&objs, &w, &[]);
        assert!(st[0].breach, "p99 1ms > 0.5ms must breach");
        assert!(!st[1].breach);
        assert!(st[2].breach, "hit rate 0.75 < 0.9 must breach");
        assert_eq!(st[0].status(), "breach");
        assert_eq!(st[1].status(), "ok");
        // Burn: err 1/11 over budget 0.5 ⇒ ~0.18; hit shortfall
        // 0.25 over allowed 0.1 ⇒ 2.5.
        assert!((st[1].burn.unwrap() - (1.0 / 11.0) / 0.5).abs() < 1e-12);
        assert!((st[2].burn.unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn empty_traffic_is_na_not_breach() {
        let w = SloWindowData::default();
        let objs = default_objectives();
        let st = evaluate(&objs, &w, &[]);
        assert!(st.iter().all(|s| !s.breach));
        assert!(st.iter().all(|s| s.status() == "n/a"));
        let text = render_statuses(&st);
        assert!(text.contains("value=-"), "{text}");
        assert!(text.contains("status=n/a"), "{text}");
    }

    #[test]
    fn windowed_burn_from_snapshot_deltas() {
        let engine = SloEngine::new();
        engine.set_objectives(vec![Objective {
            name: "err".into(),
            metric: SloMetric::ErrorRate,
            bound: Bound::Max,
            threshold: 0.1,
        }]);
        // t=0: clean history. t=15s: 10 ok requests. t=30s: 10 more
        // requests, all errors.
        engine.tick(SloSnapshot { ts_ns: 0, data: window(&[], 0, 0, 0, 0) });
        engine.tick(SloSnapshot { ts_ns: 15_000_000_000, data: window(&[], 0, 10, 0, 0) });
        let current = SloSnapshot { ts_ns: 30_000_000_000, data: window(&[], 10, 10, 0, 0) };
        let st = &engine.report(&current)[0];
        // Lifetime: 10 errors / 20 total = 0.5 ⇒ breach, burn 5.
        assert!(st.breach);
        assert!((st.burn.unwrap() - 5.0).abs() < 1e-9);
        // 10s window: base = t=15s snapshot ⇒ the 10 errors alone ⇒
        // rate 1.0, burn 10.
        let w10 = st.windows.iter().find(|(l, _)| *l == "10s").unwrap().1.unwrap();
        assert!((w10 - 10.0).abs() < 1e-9);
        // 60s/300s: no snapshot old enough ⇒ None.
        assert!(st.windows.iter().find(|(l, _)| *l == "60s").unwrap().1.is_none());
    }

    #[test]
    fn snapshot_reads_registry_families() {
        let reg = Registry::new();
        reg.counter(METRIC_REQUESTS, &[("verb", "query"), ("outcome", "hit")]).add(5);
        reg.counter(METRIC_REQUESTS, &[("verb", "batch"), ("outcome", "ok")]).add(2);
        reg.counter(METRIC_ERRORS, &[]).add(1);
        reg.histogram(METRIC_LATENCY, &[]).observe(2_000_000);
        reg.counter(METRIC_CACHE_HITS, &[("shard", "0")]).add(3);
        let snap = snapshot_registry(&reg, 99);
        assert_eq!(snap.ts_ns, 99);
        assert_eq!(snap.data.requests, 7);
        assert_eq!(snap.data.errors, 1);
        assert_eq!(snap.data.cache_hits, 3);
        assert_eq!(snap.data.latency_counts.iter().sum::<u64>(), 1);
        assert_eq!(snap.data.latency_max_ns, 2_000_000);
    }

    /// The lifetime latency quantiles follow the histogram's one rule:
    /// 100 observations of 70µs share a bucket bounded at 131.071µs,
    /// and that bucket holds the known maximum, so p99 reports 70µs.
    #[test]
    fn lifetime_quantiles_never_exceed_the_max() {
        let reg = Registry::new();
        let h = reg.histogram(METRIC_LATENCY, &[]);
        for _ in 0..100 {
            h.observe(70_000);
        }
        let data = snapshot_registry(&reg, 0).data;
        let p99 = data.value_of(SloMetric::P99Ms).unwrap();
        assert_eq!(p99, h.quantile(0.99) as f64 / 1_000_000.0);
        assert_eq!(h.quantile(0.99), 70_000);
        assert!(p99 <= data.value_of(SloMetric::MaxMs).unwrap());
        // A window does not know its maximum: it reports the bound.
        let w = SloWindowData::delta(&SloWindowData::default(), &data);
        assert_eq!(w.value_of(SloMetric::P99Ms), Some(0.131071));
    }

    #[test]
    fn snapshot_history_is_bounded() {
        let engine = SloEngine::new();
        for i in 0..(MAX_SNAPSHOTS + 10) {
            engine.tick(SloSnapshot { ts_ns: i as u64, data: SloWindowData::default() });
        }
        assert_eq!(engine.history_len(), MAX_SNAPSHOTS);
    }

    #[test]
    fn render_is_greppable() {
        let w = window(&[1_000_000; 4], 0, 4, 0, 0);
        let st = evaluate(&default_objectives(), &w, &[("10s", None)]);
        let text = render_statuses(&st);
        assert!(text.contains("slo\tp99_ms\tmetric=p99_ms\tbound=max\ttarget=500"), "{text}");
        assert!(text.contains("status=ok"), "{text}");
        assert!(text.contains("burn_10s=-"), "{text}");
    }
}
