//! The repository benchmark: three workloads over a seeded synthetic
//! Internet (and four fixed reference worlds), driven only through the
//! crates' public APIs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <learn_snapshot|annotate_batch|online_zipf> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with nothing but the
//! benchmark's own clocks around the system. `--trace 1` measures the
//! per-layer metrics instead: it times each layer's public functions
//! over the workload's own inputs, wraps the server's backend in a timing
//! shim, records spans from the benchmark's code, writes them out as
//! Chrome trace JSON under `perfbench/out/`, and prints how the layers
//! reconcile with the end-to-end figure. Every answer is checked in both
//! modes. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! nonzero when any answer was wrong.

mod batch;
mod calib;
mod catalog;
mod layers;
mod learn;
mod online;
mod serving;
mod stats;
mod sys;
mod world;

use catalog::{Report, END_TO_END, PER_LAYER};
use std::time::Instant;
use world::{Scale, World};

#[global_allocator]
static ALLOC: sys::CountingAlloc = sys::CountingAlloc;

/// The three workloads, by name.
pub const WORKLOADS: [&str; 3] = ["learn_snapshot", "annotate_batch", "online_zipf"];

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Always `Scale::Full` from the command line; only the benchmark's
    /// own tests run `Scale::Tiny` worlds.
    pub scale: Scale,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, got {v:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (want one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        scale: Scale::Full,
    })
}

/// Builds the world and runs one workload.
pub fn run(args: &Args) -> Report {
    let t = Instant::now();
    let world = World::build(args.seed, args.scale);
    eprintln!(
        "world seed={} observations={} conventions={} universe={} built in {:.2}s",
        args.seed,
        world.snap.training_set().len(),
        world.model.len(),
        world.universe.len(),
        t.elapsed().as_secs_f64()
    );
    match args.workload.as_str() {
        "learn_snapshot" => learn::run(&world, args),
        "annotate_batch" => batch::run(&world, args),
        "online_zipf" => online::run(&world, args),
        w => unreachable!("workload {w} was validated by parse_args"),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = run(&args);
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    for line in &report.notes {
        println!("# {line}");
    }
    for m in catalog {
        println!("{:<28} {:>16.4} {}", m.name, report.value(m.name), m.unit);
    }
    println!("{}", report.json(catalog));
    if !report.correct() {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload online_zipf --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("online_zipf", 7, 10.0, true)
        );
        assert_eq!(a.scale, Scale::Full);
        assert!(parse_args(&argv("--workload nope --seed 1 --seconds 1")).is_err());
        assert!(parse_args(&argv("--workload learn_snapshot --seconds 1")).is_err());
        assert!(parse_args(&argv(
            "--workload learn_snapshot --seed 1 --seconds 1 --trace 2"
        ))
        .is_err());
    }

    #[test]
    fn every_workload_answers_correctly_on_a_tiny_world() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let args = Args {
                    workload: workload.into(),
                    seed: 3,
                    seconds: 1.0,
                    trace,
                    scale: Scale::Tiny,
                };
                let r = run(&args);
                assert!(
                    r.attempted > 0 && r.failed == 0,
                    "{workload} trace={trace}: {} of {} failed",
                    r.failed,
                    r.attempted
                );
                assert!(
                    r.broken.is_empty(),
                    "{workload} trace={trace}: {:?}",
                    r.broken
                );
                if !trace {
                    for m in END_TO_END {
                        let v = r.value(m.name);
                        assert!(v.is_finite() && v > 0.0, "{workload}: {} reads {v}", m.name);
                    }
                }
            }
        }
    }
}
