//! Shared pieces of the traced runs: per-call timing of a layer's public
//! function, the reconcile report, and span output.

use crate::calib;
use crate::catalog::Report;
use crate::stats::median;
use crate::sys;
use hoiho_obs::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A run's time budget, handed out in fractions.
pub struct Budget {
    start: Instant,
    total: Duration,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            total: Duration::from_secs_f64(seconds),
        }
    }

    /// The instant `frac` of the budget is used up.
    pub fn slice(&self, frac: f64) -> Instant {
        self.start + self.total.mul_f64(frac)
    }
}

/// Calls `f` on every item, in passes, until `until` (at least three
/// passes). Returns the median per-call CPU nanoseconds of this thread
/// over passes, at reference-host speed (see `calib`), and the
/// allocations per call of the first pass, counted on this thread.
pub fn per_item<T>(items: &[T], until: Instant, mut f: impl FnMut(&T)) -> (f64, f64) {
    assert!(!items.is_empty(), "nothing to time");
    let mut passes = Vec::new();
    let mut allocs = 0.0;
    while passes.len() < 3 || Instant::now() < until {
        let speed = calib::speed();
        let a = sys::thread_allocs();
        let t = sys::thread_cpu_ns();
        for x in items {
            f(x);
        }
        passes.push((sys::thread_cpu_ns() - t) as f64 * speed / items.len() as f64);
        if passes.len() == 1 {
            allocs = (sys::thread_allocs() - a) as f64 / items.len() as f64;
        }
    }
    (median(&mut passes), allocs)
}

/// How far Σ layer self time may sit from the end-to-end figure before
/// the reconcile report flags the workload.
const RECONCILE_TOLERANCE: f64 = 0.15;

/// Prints each layer's share of the end-to-end per-op time and flags the
/// workload when the layers do not add up to it within ±15%. Each layer
/// time must be measured on its own, never derived as the end-to-end
/// figure less the other layers, or the sum could not miss.
pub fn reconcile(r: &mut Report, workload: &str, unit: &str, e2e_ns: f64, layers: &[(&str, f64)]) {
    let sum: f64 = layers.iter().map(|(_, ns)| ns).sum();
    r.set("reconcile.sum_pct", 100.0 * sum / e2e_ns);
    r.notes.push(format!(
        "reconcile {workload}: end-to-end {:.1} ns per {unit}",
        e2e_ns
    ));
    for (name, ns) in layers {
        r.notes.push(format!(
            "  {name:<22} {ns:>14.1} ns  {:>6.1}%",
            100.0 * ns / e2e_ns
        ));
    }
    let off = sum / e2e_ns - 1.0;
    r.notes.push(format!(
        "  {:<22} {sum:>14.1} ns  {:>6.1}%  {}",
        "sum of layers",
        100.0 * sum / e2e_ns,
        if off.abs() > RECONCILE_TOLERANCE {
            format!("FLAG: {:+.1}% from end-to-end, outside ±15%", off * 100.0)
        } else {
            "within ±15% of end-to-end".to_string()
        }
    ));
}

/// Where traced runs write their spans: `out/` next to this package's
/// manifest, inside the checkout the benchmark was built in.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Writes the spans as Chrome trace JSON and notes the path.
pub fn write_spans(r: &mut Report, tracer: &Tracer, workload: &str, seed: u64) {
    let dir = out_dir();
    let path = dir.join(format!("trace-{workload}-{seed}.json"));
    let written =
        std::fs::create_dir_all(&dir).and_then(|_| std::fs::write(&path, tracer.to_chrome_json()));
    match written {
        Ok(()) => r.notes.push(format!(
            "{} spans written to {}",
            tracer.len(),
            path.display()
        )),
        Err(e) => r.check(false, || {
            format!("writing spans to {}: {e}", path.display())
        }),
    }
}
