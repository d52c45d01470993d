//! The `hoiho-serve` command line: every documented form gets past the
//! argument reader (a run against missing files or a closed port then
//! fails with exit status 1), and every malformed one exits 2 with a
//! message naming the argument. No test here starts a server.

use std::process::{Command, Stdio};

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hoiho-serve"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap();
    (out.status.code(), String::from_utf8(out.stderr).unwrap())
}

/// A loopback address nothing listens on: connecting fails at once.
const CLOSED: &str = "127.0.0.1:1";

#[test]
fn argument_errors_exit_2_naming_the_argument() {
    for (args, named) in [
        (&["serve", "m", "a", "--shards", "2", "--shards", "3"][..], "--shards given twice"),
        (&["serve", "m", "a", "--shards"], "--shards needs a value"),
        (&["serve", "m", "a", "--shards", "two"], "bad --shards value \"two\""),
        (&["serve", "m", "a", "many"], "bad [workers] value \"many\""),
        (&["serve", "m", "a", "2", "3"], "unexpected argument \"3\""),
        (&["serve", "m"], "missing <addr>"),
        (&["query", "m", "--shards", "2"], "unexpected argument \"--shards\""),
        (&["save", "--sim", "x", "m"], "bad --sim value \"x\""),
        (&["save", "t", "m", "--out", "f"], "unexpected argument \"--out\""),
        (&["shard", "m", "two", "d"], "bad <N> value \"two\""),
        (&["trace", "a", "--batch", "4"], "unexpected argument \"--batch\""),
        (&["send", "a"], "missing <request>"),
        (&["loadgen", "a", "h", "--batch", "0"], "--batch must be in 1..=4096"),
        (&["loadgen", "a", "h", "--chaos", "1.5"], "--chaos must be in 0.0..=1.0"),
        (&["loadgen", "a", "h", "--trace-sample", "1"], "unexpected argument \"--trace-sample\""),
        (&["loadgen", "a", "--scenario", "f", "2", "400", "9"], "unexpected argument \"9\""),
        (&["scenario", "run"], "missing <file>"),
        (&["scenario", "save", "f", "m", "--out", "x"], "unexpected argument \"--out\""),
        (&["scenario", "bogus"], "unknown subcommand"),
        (&["bogus"], "unknown subcommand"),
        (&[], "missing subcommand"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn serve_gets_past_parsing_without_a_server() {
    let (code, stderr) = run(&["serve", "/nonexistent", "127.0.0.1:0", "2", "--shards", "2"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("cannot read"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

/// The command lines of the README, DESIGN and the tier-1 gate, with
/// `M` a missing file and `A` a closed port, so each must get past the
/// argument reader and then fail at run time.
#[test]
fn documented_forms_parse() {
    let slo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../slo/default.slo");
    for line in [
        "save M M",
        "save --sim 2020 /nonexistent/model.hoiho",
        "inspect M",
        "query M as3303.nts.ch",
        "query M",
        "shard M 4 /nonexistent/shards",
        "serve M 127.0.0.1:7080",
        "serve M 127.0.0.1:0 2",
        "serve M 127.0.0.1:7080 --shards 4 --cache-capacity 4096",
        "serve M 127.0.0.1:7080 --shards 4 --trace-sample 64 --trace-seed 7 --slo SLO",
        "serve M 127.0.0.1:0 2 --shards 2 --cache-capacity 64 --trace-sample 1 --trace-seed 7 \
         --slo SLO",
        "trace A",
        "trace A 50",
        "trace A --chrome /nonexistent/spans.json --collapsed /nonexistent/spans.folded",
        "send A smoke-test.invalid",
        "send A STATS CLUSTER",
        "send A METRICS",
        "send A EVENTS 20",
        "send A TRACES 50",
        "send A SHUTDOWN",
        "batch A test.a.example test.b.example",
        "batch A",
        "loadgen A M",
        "loadgen A M 8",
        "loadgen A M 8 --batch 256",
        "loadgen A M 2 200 --slo SLO",
        "loadgen A M 2 300 --chaos 0.2 --slo SLO",
        "loadgen A M 4 2000 --chaos 0.2",
        "loadgen A --scenario M",
        "loadgen A --scenario M 2 400",
        "scenario run M M",
        "scenario run M M --out /nonexistent/SCENARIOS.json",
        "scenario save M /nonexistent/stale.model",
    ] {
        let args: Vec<&str> = line
            .split_whitespace()
            .map(|w| match w {
                "M" => "/nonexistent/file",
                "A" => CLOSED,
                "SLO" => slo,
                w => w,
            })
            .collect();
        let (code, stderr) = run(&args);
        assert_eq!(code, Some(1), "{line:?} must parse, then fail at run time: {stderr}");
        assert!(!stderr.contains("usage:"), "{line:?}: {stderr}");
    }
}
