//! End-to-end test of the `hoiho` command-line binary: learn from a
//! training file, then apply the printed conventions to fresh hostnames;
//! plus the argument rules every documented form must pass and every
//! malformed one must fail with exit status 2.

use std::io::Write;
use std::process::{Command, Stdio};

const TRAINING: &str = "\
# asn addr hostname
64500 192.0.2.1 as64500-ae1.fra.bigco.net
64501 192.0.2.5 as64501-xe2.lhr.bigco.net
64502 192.0.2.9 as64502-ae9.ams.bigco.net
64503 192.0.2.13 as64503-ae2.fra.bigco.net
";

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_hoiho")
}

#[test]
fn learn_then_apply_roundtrip() {
    let dir = std::env::temp_dir().join(format!("hoiho-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let train = dir.join("train.txt");
    std::fs::write(&train, TRAINING).unwrap();

    // learn
    let out = Command::new(bin()).arg("learn").arg(&train).output().unwrap();
    assert!(out.status.success(), "learn failed: {}", String::from_utf8_lossy(&out.stderr));
    let conventions = String::from_utf8(out.stdout).unwrap();
    assert!(conventions.contains("bigco.net"), "{conventions}");
    assert!(conventions.contains("(\\d+)"), "{conventions}");
    let conv_path = dir.join("conv.txt");
    std::fs::write(&conv_path, &conventions).unwrap();

    // apply (hostnames on stdin)
    let mut child = Command::new(bin())
        .arg("apply")
        .arg(&conv_path)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(b"as65000-te1.syd.bigco.net\ncore7.nyc.bigco.net\nas999.other.org\n")
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines[0], "as65000-te1.syd.bigco.net\t65000");
    assert_eq!(lines[1], "core7.nyc.bigco.net\t-");
    assert_eq!(lines[2], "as999.other.org\t-");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_and_errors() {
    // No arguments: usage on stderr, exit code 2.
    let out = Command::new(bin()).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    // Missing file: exit code 1 with a readable message.
    let out = Command::new(bin()).arg("learn").arg("/nonexistent/x.txt").output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Malformed training line.
    let dir = std::env::temp_dir().join(format!("hoiho-cli-err-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.txt");
    std::fs::write(&bad, "not-a-number 192.0.2.1 host.example.com\n").unwrap();
    let out = Command::new(bin()).arg("learn").arg(&bad).output().unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad ASN"));
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `hoiho args...` with `stdin`, returning (exit code, stdout, stderr).
fn run(args: &[&str], stdin: &str) -> (Option<i32>, String, String) {
    let mut child = Command::new(bin())
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(stdin.as_bytes()).unwrap();
    let out = child.wait_with_output().unwrap();
    let text = |b: Vec<u8>| String::from_utf8(b).unwrap();
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn argument_errors_exit_2_naming_the_argument() {
    for (args, named) in [
        (&["learn", "--sim", "1", "--trace", "a", "--trace", "b"][..], "--trace given twice"),
        (&["learn", "--sim", "1", "extra.txt"], "unexpected argument \"extra.txt\""),
        (&["learn", "--sim", "x"], "bad --sim value \"x\""),
        (&["learn", "--trace"], "--trace needs a value"),
        (&["learn"], "missing <training-file>"),
        (&["apply", "c.txt", "--trace"], "unexpected argument \"--trace\""),
        (&["apply", "c.txt", "h.txt", "more.txt"], "unexpected argument \"more.txt\""),
        (&["bogus"], "unknown subcommand"),
    ] {
        let (code, stdout, stderr) = run(args, "");
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}");
    }
}

#[test]
fn documented_forms_parse() {
    let dir = std::env::temp_dir().join(format!("hoiho-cli-forms-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let train = dir.join("train.txt");
    std::fs::write(&train, TRAINING).unwrap();
    let train = train.to_str().unwrap();
    let trace = dir.join("trace.json");
    let trace = trace.to_str().unwrap();
    for args in [
        &["learn", train][..],
        &["learn", train, "--trace", trace],
        &["learn", "--trace", trace, train],
        &["learn", "--sim", "7"],
        &["learn", "--sim", "7", "--trace", trace],
    ] {
        let (code, stdout, stderr) = run(args, "");
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert!(stdout.starts_with("# hoiho: "), "{args:?}: {stdout}");
    }
    let conventions = dir.join("conv.txt");
    std::fs::write(&conventions, run(&["learn", train], "").1).unwrap();
    let conventions = conventions.to_str().unwrap();
    let hosts = dir.join("hosts.txt");
    std::fs::write(&hosts, "# comment\n\n  as65000-te1.syd.bigco.net  \n").unwrap();
    let from_file = run(&["apply", conventions, hosts.to_str().unwrap()], "");
    let from_stdin = run(&["apply", conventions], "# comment\n\n  as65000-te1.syd.bigco.net  \n");
    assert_eq!(from_file, (Some(0), "as65000-te1.syd.bigco.net\t65000\n".into(), String::new()));
    assert_eq!(from_stdin, from_file);
    let (code, _, stderr) = run(&["apply", conventions, "/nonexistent/hosts.txt"], "");
    assert_eq!(code, Some(1), "a missing hostnames file is a failure: {stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `apply` picks a hostname's convention the way the serving engine
/// does — registrable domain first, then the longest listed suffix —
/// not by the first listed suffix it ends with.
#[test]
fn apply_dispatches_like_the_engine() {
    let dir = std::env::temp_dir().join(format!("hoiho-cli-dispatch-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let conventions = dir.join("conv.txt");
    std::fs::write(
        &conventions,
        "sgw.equinix.com\n  ^p(\\d+)\\.sgw\\.equinix\\.com$\n\
         equinix.com\n  ^as(\\d+)\\.equinix\\.com$\n\
         core.example.net\n  ^r(\\d+)\\.core\\.example\\.net$\n",
    )
    .unwrap();
    let (code, stdout, stderr) = run(
        &["apply", conventions.to_str().unwrap()],
        "p714.sgw.equinix.com\nas714.equinix.com\nr9.core.example.net\nr9.example.net\n",
    );
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        "p714.sgw.equinix.com\t-\n\
         as714.equinix.com\t714\n\
         r9.core.example.net\t9\n\
         r9.example.net\t-\n"
    );
    std::fs::remove_dir_all(&dir).ok();
}
