//! Metric names, units and directions, and the run report.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

use hoiho::quality::QualityCounts;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a lower value is better.
    pub lower_is_better: bool,
}

const fn m(name: &'static str, unit: &'static str, lower_is_better: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        lower_is_better,
    }
}

/// End-to-end metrics, reported by every workload with `--trace 0`. An
/// "op" is an observation learned, a hostname annotated, or a query
/// served; a "request" is what a user waits on: one learn pass over the
/// snapshot, one `BATCH` round trip, or one `QUERY`.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s", true),
    m("peak_heap_mb", "MB", true),
    m("cpu_ns_per_op", "ns", true),
    m("ops_per_s", "1/s", false),
    m("latency_p50_us", "us", true),
    m("latency_tail_us", "us", true),
    m("precision_pct", "%", false),
    m("recall_pct", "%", false),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer the workload never runs reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("base.self_ms", "ms", true),
    m("merge.self_ms", "ms", true),
    m("classes.self_ms", "ms", true),
    m("sets.self_ms", "ms", true),
    m("select.self_ms", "ms", true),
    m("base.regexes", "count", true),
    m("merge.regexes", "count", true),
    m("classes.regexes", "count", true),
    m("sets.cells", "count", true),
    m("sets.dispatched", "count", true),
    m("sets.skip_pct", "%", false),
    m("learn.allocs_per_op", "count", true),
    m("learn.usable_conventions", "count", false),
    m("psl.registrable_domain_ns", "ns", true),
    m("psl.allocs_per_call", "count", true),
    m("engine.extract_ns", "ns", true),
    m("engine.allocs_per_lookup", "count", true),
    m("engine.dispatch_exact_pct", "%", false),
    m("engine.dispatch_fallback_pct", "%", true),
    m("engine.dispatch_miss_pct", "%", true),
    m("engine.asn_pct", "%", false),
    m("regex.extract_ns", "ns", true),
    m("server.self_ns_per_op", "ns", true),
    m("server.backend_ns_per_op", "ns", true),
    m("render.line_ns", "ns", true),
    m("router.lookup_uncached_ns", "ns", true),
    m("router.reload_ms", "ms", true),
    m("router.reload_tail_us", "us", true),
    m("cache.hit_pct", "%", false),
    m("cache.probe_ns", "ns", true),
    m("cache.evictions_per_kop", "count", true),
    m("cache.stale_per_reload", "count", true),
    m("model.parse_ms", "ms", true),
    m("engine.build_ms", "ms", true),
    m("server.start_ms", "ms", true),
    m("loadgen.late_p99_us", "us", true),
    m("loadgen.backlog_max", "count", true),
    m("trace.overhead_pct", "%", true),
    m("reconcile.sum_pct", "%", false),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed: a wrong answer, an `err` line, or a timeout.
    pub failed: u64,
    /// Checks other than per-op answers that did not hold.
    pub broken: Vec<String>,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalog"
        );
        self.values.insert(name, value);
    }

    /// A metric's value; 0 for a layer this workload does not run.
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Records precision and recall.
    pub fn set_quality(&mut self, q: &QualityCounts) {
        self.set("precision_pct", q.precision() * 100.0);
        self.set("recall_pct", q.recall() * 100.0);
    }

    /// Records a check that must hold for the run to count as correct.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: check failed: {msg}");
            self.broken.push(msg);
        }
    }

    /// Every answer matched and every check held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.broken.is_empty() && self.attempted > 0
    }

    /// The result line: `{"correct", "attempted", "failed", "metrics"}`
    /// over the metrics of `catalog`.
    pub fn json(&self, catalog: &[MetricDef]) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in catalog.iter().enumerate() {
            let v = self.value(d.name);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WORKLOADS;

    fn name_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_are_well_formed_and_within_limits() {
        let all: Vec<&MetricDef> = END_TO_END.iter().chain(PER_LAYER).collect();
        for d in &all {
            assert!(name_ok(d.name), "bad metric name {}", d.name);
            assert!(unit_ok(d.unit), "bad unit {} of {}", d.unit, d.name);
        }
        for w in WORKLOADS {
            assert!(name_ok(w), "bad workload name {w}");
        }
        let mut names: Vec<&str> = all.iter().map(|d| d.name).chain(WORKLOADS).collect();
        let n = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.lower_is_better));
    }

    #[test]
    fn benchmark_json_lists_the_same_workloads_and_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text: String = std::fs::read_to_string(path)
            .expect("read BENCHMARK.json")
            .split_whitespace()
            .collect();
        let section = |key: &str, next: &str| {
            let start = text
                .find(&format!("\"{key}\":"))
                .unwrap_or_else(|| panic!("no {key}"));
            let end = text[start..]
                .find(&format!("\"{next}\":"))
                .map_or(text.len(), |i| start + i);
            text[start..end].to_string()
        };
        let workloads = section("workloads", "end_to_end");
        for w in WORKLOADS {
            assert!(
                workloads.contains(&format!("{{\"name\":\"{w}\",\"why\":\"")),
                "workload {w}"
            );
        }
        for (key, next, defs) in [
            ("end_to_end", "per_layer", END_TO_END),
            ("per_layer", "\u{0}", PER_LAYER),
        ] {
            let listed = section(key, next);
            for d in defs {
                let better = if d.lower_is_better { "lower" } else { "higher" };
                let entry = format!(
                    "{{\"name\":\"{}\",\"unit\":\"{}\",\"better\":\"{better}\"",
                    d.name, d.unit
                );
                assert!(listed.contains(&entry), "{key} lacks {entry}");
            }
            assert_eq!(
                listed.matches("{\"name\":").count(),
                defs.len(),
                "{key} lists other metrics"
            );
        }
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("setup_s", 0.5);
        let j = r.json(END_TO_END);
        assert!(
            j.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {")
        );
        assert!(
            j.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"),
            "{j}"
        );
        assert_eq!(j.matches("\"value\"").count(), END_TO_END.len());
        r.failed = 1;
        assert!(!r.correct());
    }
}
