//! `xtask` refuses an unknown argument, a flag without its value,
//! `--seeds 0` or a chaos seed range past `u64::MAX`, with a usage error
//! (exit code 2) before it runs anything; and it stops quietly (exit
//! code 0) when its stdout is closed.

use std::process::{Command, Output, Stdio};

fn xtask(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(args)
        .output()
        .expect("xtask starts")
}

/// Each case names what its usage error must mention.
#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [(&[&str], &str); 13] = [
        (&[], "no subcommand"),
        (&["frobnicate"], "`frobnicate`"),
        (&["conformance", "--slef-test"], "`--slef-test`"),
        (
            &["conformance", "--self-test", "--self-test"],
            "`--self-test`",
        ),
        (&["bless", "now"], "`now`"),
        (&["chaos", "--out"], "`--out` needs"),
        (&["chaos", "--emit-shrunk"], "`--emit-shrunk` needs"),
        (&["chaos", "--seeds", "many"], "`--seeds` needs"),
        (&["chaos", "--out", "--quick"], "`--out` needs"),
        (&["chaos", "--no-corpus"], "`--no-corpus`"),
        // The conformance self-test covers the chaos checkers.
        (&["chaos", "--self-test"], "`--self-test`"),
        // Seed 2^64 does not exist.
        (
            &[
                "chaos",
                "--seed-base",
                "18446744073709551615",
                "--seeds",
                "2",
            ],
            "overflow",
        ),
        // No seeds would run no cell and pass with the empty digest.
        (&["chaos", "--quick", "--seeds", "0"], "--seeds 0"),
    ];
    for (args, names) in cases {
        let out = xtask(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: {out:?}");
    }
}

/// A reader that closes the pipe early (`xtask … | head`) ends xtask
/// with exit code 0 and no panic.
#[test]
fn a_closed_stdout_exits_0_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .args(["chaos", "--quick", "--seeds", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("xtask spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("xtask ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
