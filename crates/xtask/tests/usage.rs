//! `xtask` refuses an unknown argument, or a flag without its value,
//! with a usage error (exit code 2) before it runs anything.

use std::process::Command;

#[test]
fn bad_arguments_are_usage_errors() {
    let cases: [&[&str]; 10] = [
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
