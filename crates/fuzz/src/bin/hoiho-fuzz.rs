//! `hoiho-fuzz` — drive the structured fuzzing tier.
//!
//! ```text
//! hoiho-fuzz run [--iters N] [--seed S] [--target NAME] [--corpus DIR]
//! hoiho-fuzz replay [--target NAME] [--corpus DIR]
//! hoiho-fuzz minimize <file> --target NAME
//! ```
//!
//! `run` fuzzes each registered target for N deterministic iterations
//! (seeds accept `0x` hex); failures are minimized, written into the
//! corpus as `crash-*.case`, and make the exit status nonzero.
//! `replay` re-runs every committed corpus case and fails if any
//! regressed. `minimize` shrinks one failing case file in place.
//!
//! Options may appear anywhere after the subcommand, at most once each.
//! Bad arguments (an unknown target among them) exit 2 with the usage
//! text; failures exit 1.

use hoiho::cli::{self, ArgError, Args};
use hoiho_fuzz::{corpus, runner, targets};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: hoiho-fuzz run [--iters N] [--seed S] [--target NAME] [--corpus DIR]
       hoiho-fuzz replay [--target NAME] [--corpus DIR]
       hoiho-fuzz minimize <file> --target NAME
";

fn main() -> ExitCode {
    cli::run("hoiho-fuzz", USAGE, run)
}

fn run(args: &mut Args) -> Result<Result<(), String>, ArgError> {
    Ok(match args.subcommand()?.as_str() {
        "run" => {
            let iters = args.opt("--iters")?.unwrap_or(10_000);
            let seed = args.opt_with("--seed", parse_seed)?.unwrap_or(0xC0FFEE);
            let picked = selected_targets(args)?;
            let corpus = args.opt("--corpus")?.unwrap_or_else(corpus::default_dir);
            args.done()?;
            cmd_run(&picked, iters, seed, &corpus)
        }
        "replay" => {
            let picked = selected_targets(args)?;
            let corpus = args.opt("--corpus")?.unwrap_or_else(corpus::default_dir);
            args.done()?;
            cmd_replay(&picked, &corpus)
        }
        "minimize" => {
            let name: Option<String> = args.opt("--target")?;
            let file: PathBuf = args.positional("<file>")?;
            args.done()?;
            let name = name.ok_or_else(|| args.error("missing --target NAME"))?;
            cmd_minimize(target_named(args, &name)?.as_ref(), &file)
        }
        _ => return Err(args.error("unknown subcommand")),
    })
}

/// Accepts decimal or 0x-prefixed hex.
fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Every registered target, or the one `--target` names.
fn selected_targets(args: &mut Args) -> Result<Vec<Box<dyn targets::Target>>, ArgError> {
    match args.opt::<String>("--target")? {
        Some(name) => Ok(vec![target_named(args, &name)?]),
        None => Ok(targets::all_targets()),
    }
}

fn target_named(args: &Args, name: &str) -> Result<Box<dyn targets::Target>, ArgError> {
    targets::target_by_name(name).ok_or_else(|| {
        let known: Vec<&str> = targets::all_targets().iter().map(|t| t.name()).collect();
        args.error(format_args!("unknown target {name:?}; known targets: {}", known.join(", ")))
    })
}

fn cmd_run(
    picked: &[Box<dyn targets::Target>],
    iters: u64,
    seed: u64,
    corpus: &Path,
) -> Result<(), String> {
    let mut failed = 0usize;
    for target in picked {
        let report = runner::run_target(target.as_ref(), iters, seed, Some(corpus));
        if report.failures.is_empty() {
            println!("{}\tok\titers={}", report.target, report.iters);
        } else {
            failed += 1;
            println!(
                "{}\tFAIL\titers={}\tfailures={}",
                report.target,
                report.iters,
                report.failures.len()
            );
            for f in &report.failures {
                println!(
                    "  iter {}\t{} bytes -> {} minimized\t{}",
                    f.iter,
                    f.case.len(),
                    f.minimized.len(),
                    f.path.as_deref().map(|p| p.display().to_string()).unwrap_or_default()
                );
                println!("    {}", f.error.lines().next().unwrap_or(""));
            }
        }
    }
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} target(s) found failures")),
    }
}

fn cmd_replay(picked: &[Box<dyn targets::Target>], corpus: &Path) -> Result<(), String> {
    let outcomes =
        runner::replay(picked, corpus).map_err(|e| format!("corpus read failed: {e}"))?;
    let mut failed = 0usize;
    for o in &outcomes {
        match &o.result {
            Ok(()) => println!("{}\t{}\tok", o.target, o.case),
            Err(e) => {
                failed += 1;
                println!("{}\t{}\tFAIL\t{}", o.target, o.case, e.lines().next().unwrap_or(""));
            }
        }
    }
    println!("replayed {} cases, {} failed", outcomes.len(), failed);
    match failed {
        0 => Ok(()),
        n => Err(format!("{n} corpus case(s) regressed")),
    }
}

fn cmd_minimize(target: &dyn targets::Target, file: &Path) -> Result<(), String> {
    let case = std::fs::read(file).map_err(|e| format!("read {}: {e}", file.display()))?;
    if runner::exec(target, &case).is_ok() {
        return Err("case passes; nothing to minimize".into());
    }
    let min = runner::minimize(target, &case);
    std::fs::write(file, &min).map_err(|e| format!("write {}: {e}", file.display()))?;
    println!("{} bytes -> {} bytes\t{}", case.len(), min.len(), file.display());
    Ok(())
}
