//! The `hoiho-fuzz` command line: each subcommand takes only its own
//! options, and malformed lines exit 2 with a message naming the
//! argument instead of running anyway.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_hoiho-fuzz")).args(args).output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn argument_errors_exit_2_naming_the_argument() {
    for (args, named) in [
        (&["replay", "--iters", "5", "--seed", "9"][..], "unexpected argument \"--iters\""),
        (&["run", "stray", "--iters", "1"], "unexpected argument \"stray\""),
        (&["run", "--iters", "1", "--iters", "2"], "--iters given twice"),
        (&["run", "--seed", "0xZZ"], "bad --seed value \"0xZZ\""),
        (&["run", "--target", "nope"], "unknown target \"nope\""),
        (&["minimize", "regex", "case.bin"], "unexpected argument \"case.bin\""),
        (&["minimize", "case.bin"], "missing --target"),
        (&["minimize", "--target", "regex"], "missing <file>"),
        (&["bogus"], "unknown subcommand"),
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} ran anyway: {stdout}");
    }
}

#[test]
fn documented_forms_parse() {
    let corpus = std::env::temp_dir().join(format!("hoiho-fuzz-cli-{}", std::process::id()));
    let corpus = corpus.to_str().unwrap();
    for args in [
        &["run", "--iters", "1", "--seed", "0xC0FFEE", "--target", "regex", "--corpus", corpus][..],
        &["run", "--target", "psl", "--iters", "2", "--seed", "12345", "--corpus", corpus],
        &["replay", "--target", "regex"],
    ] {
        let (code, stdout, stderr) = run(args);
        assert_eq!(code, Some(0), "{args:?}: {stdout}{stderr}");
    }
    let (code, _, stderr) = run(&["replay", "--corpus", corpus, "--target", "framing"]);
    assert_eq!(code, Some(0), "an empty corpus replays nothing: {stderr}");
    let (code, _, stderr) = run(&["minimize", "/nonexistent/case.bin", "--target", "regex"]);
    assert_eq!(code, Some(1), "parsed, then failed to read the case: {stderr}");
    std::fs::remove_dir_all(corpus).ok();
}
