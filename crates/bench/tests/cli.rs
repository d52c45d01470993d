//! The `experiments` command line: an unknown experiment name exits 2
//! before any snapshot is built.

use std::process::Command;

#[test]
fn unknown_experiments_exit_2_before_building() {
    for (args, named) in [
        (&["bogus"][..], "unknown experiment \"bogus\""),
        (&["fig5", "fig6"], "unexpected argument \"fig6\""),
        (&["--all"], "unexpected argument \"--all\""),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?}: {stderr}");
        assert!(stderr.contains("ablation|dump|all"), "usage lists every experiment: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} built snapshots");
    }
}
