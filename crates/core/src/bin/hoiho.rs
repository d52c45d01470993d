//! `hoiho` — command-line interface to the learner, in the spirit of
//! scamper's `sc_hoiho`.
//!
//! ```text
//! hoiho learn <training-file>              learn conventions, print them
//! hoiho learn --sim <seed>                 learn from a synthetic Internet
//! hoiho apply <conventions-file> [file]    extract ASNs from hostnames
//! ```
//!
//! `learn` additionally accepts `--trace <out.json>`: the learner then
//! records one tracing span per pipeline phase per suffix (§3.2
//! generate, §3.3 merge, §3.4 classes, §3.5 sets, §3.6 select, plus an
//! enclosing `learn_suffix` span) and writes them as Chrome
//! trace-event JSON loadable in `chrome://tracing` or Perfetto.
//! `--sim <seed>` sidesteps the training file: it generates the tiny
//! synthetic Internet from `hoiho-netsim` at that seed and trains on
//! its named interfaces' ground truth.
//!
//! The training file has one observation per line:
//!
//! ```text
//! # asn  interface-address  hostname
//! 64500  192.0.2.1          as64500-ae1.fra.example.net
//! ```
//!
//! `learn` prints conventions in the same text format
//! [`hoiho::convention::parse_conventions`] reads (suffix line, indented
//! regexes), with per-convention statistics as `#` comments — ready to
//! feed back into `apply`. `apply` reads hostnames (one per line, from a
//! file or stdin; blank lines and `#` comments are skipped), picks each
//! one's convention by the serving engine's dispatch rule (registrable
//! domain first, then the longest listed suffix), and prints
//! `hostname<TAB>ASN`, or `hostname<TAB>-` when nothing extracts.
//!
//! Options may appear anywhere after the subcommand, at most once each.
//! Bad arguments exit 2 with the usage text; failures exit 1.

use hoiho::cli::{self, ArgError, Args};
use hoiho::convention::parse_conventions;
use hoiho::learner::{learn_all_traced, LearnConfig};
use hoiho::training::{Observation, TrainingSet};
use hoiho_obs::Tracer;
use hoiho_psl::{Dispatch, PublicSuffixList, SuffixTable};
use std::io::Write;
use std::process::ExitCode;

const USAGE: &str = "\
usage: hoiho learn <training-file> [--trace <out.json>]
       hoiho learn --sim <seed> [--trace <out.json>]
       hoiho apply <conventions-file> [hostnames-file]
(see crate docs for the file formats)
";

fn main() -> ExitCode {
    cli::run("hoiho", USAGE, run)
}

fn run(args: &mut Args) -> Result<Result<(), String>, ArgError> {
    Ok(match args.subcommand()?.as_str() {
        "learn" => {
            let trace: Option<String> = args.opt("--trace")?;
            let training = match args.opt("--sim")? {
                Some(seed) => {
                    args.done()?;
                    Ok(sim_training(seed))
                }
                None => {
                    let path: String = args.positional("<training-file>")?;
                    args.done()?;
                    std::fs::read_to_string(&path)
                        .map_err(|e| format!("cannot read {path}: {e}"))
                        .and_then(|text| TrainingSet::parse(&text))
                }
            };
            training.and_then(|ts| learn(&ts, trace.as_deref()))
        }
        "apply" => {
            let conventions: String = args.positional("<conventions-file>")?;
            let hosts: Option<String> = args.opt_positional("[hostnames-file]")?;
            args.done()?;
            apply(&conventions, hosts.as_deref())
        }
        _ => return Err(args.error("unknown subcommand")),
    })
}

fn learn(training: &TrainingSet, trace_path: Option<&str>) -> Result<(), String> {
    let psl = PublicSuffixList::builtin();
    let groups = training.by_suffix(&psl);
    let tracer = trace_path.map(|_| Tracer::new());
    let learned = learn_all_traced(&groups, &LearnConfig::default(), tracer.as_ref());
    if let (Some(path), Some(tracer)) = (trace_path, &tracer) {
        std::fs::write(path, tracer.to_chrome_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("hoiho: wrote {} spans to {path}", tracer.len());
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    writeln!(
        out,
        "# hoiho: {} observations, {} suffixes, {} conventions",
        training.len(),
        groups.len(),
        learned.len()
    )
    .ok();
    for lc in &learned {
        writeln!(
            out,
            "# {}: {} TP={} FP={} FN={} ATP={} PPV={:.1}%{}",
            lc.convention.suffix,
            lc.class.label(),
            lc.counts.tp,
            lc.counts.fp,
            lc.counts.fnn,
            lc.counts.atp(),
            lc.counts.ppv() * 100.0,
            if lc.single { " single" } else { "" },
        )
        .ok();
        write!(out, "{}", lc.convention).ok();
    }
    Ok(())
}

/// Extracts with the convention that [`SuffixTable::resolve`] picks for
/// each hostname, over the built-in PSL and the conventions' suffixes —
/// the rule the serving engine and the shard router follow.
fn apply(conv_path: &str, hosts_path: Option<&str>) -> Result<(), String> {
    let text =
        std::fs::read_to_string(conv_path).map_err(|e| format!("cannot read {conv_path}: {e}"))?;
    let conventions = parse_conventions(&text)?;
    let mut table = SuffixTable::new(PublicSuffixList::builtin());
    for (i, nc) in conventions.iter().enumerate() {
        table.insert(&nc.suffix, i);
    }
    let stdout = std::io::stdout();
    let mut out = stdout.lock();
    for hostname in cli::hostnames(hosts_path)? {
        let hostname = hostname?;
        let lower = hoiho_psl::lowercase(&hostname);
        let hit = match table.resolve(&lower) {
            Dispatch::Exact(&i) | Dispatch::Fallback(&i) => conventions[i].extract(&hostname),
            Dispatch::Miss => None,
        };
        match hit {
            Some(asn) => writeln!(out, "{hostname}\t{asn}").ok(),
            None => writeln!(out, "{hostname}\t-").ok(),
        };
    }
    Ok(())
}

/// Ground-truth training set from the tiny synthetic Internet: every
/// named interface contributes `(hostname, addr, router owner)`.
fn sim_training(seed: u64) -> TrainingSet {
    let internet = hoiho_netsim::Internet::generate(&hoiho_netsim::SimConfig::tiny(seed));
    let mut ts = TrainingSet::new();
    for (iface, owner) in internet.named_interfaces() {
        let hostname = iface.hostname.as_deref().expect("named interface has a hostname");
        ts.push(Observation::new(hostname, iface.addr.to_be_bytes(), owner));
    }
    ts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_training_is_deterministic_and_nonempty() {
        let a = sim_training(7);
        let b = sim_training(7);
        assert!(a.len() > 0, "tiny sim must yield named interfaces");
        assert_eq!(a.len(), b.len());
        assert_eq!(a.observations()[0].hostname, b.observations()[0].hostname);
    }
}
