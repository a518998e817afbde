//! `xtask` refuses an unknown argument, a flag without its value, or a
//! chaos seed range past `u64::MAX`, with a usage error (exit code 2)
//! before it runs anything.

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [&[&str]; 12] = [
        &[],
        &["frobnicate"],
        &["conformance", "--slef-test"],
        &["conformance", "--self-test", "--self-test"],
        &["bless", "now"],
        &["chaos", "--out"],
        &["chaos", "--emit-shrunk"],
        &["chaos", "--seeds", "many"],
        &["chaos", "--out", "--quick"],
        &["chaos", "--no-corpus"],
        // The conformance self-test covers the chaos checkers.
        &["chaos", "--self-test"],
        // Seed 2^64 does not exist.
        &[
            "chaos",
            "--seed-base",
            "18446744073709551615",
            "--seeds",
            "2",
        ],
    ];
    for args in cases {
        let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
            .args(args)
            .output()
            .expect("xtask starts");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: {stderr}");
    }
}
