//! `hermes-cli` flag validation: bad input exits 2 with the usage text
//! on stderr and never reaches a panic inside the library.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hermes-cli"))
        .args(args)
        .output()
        .expect("hermes-cli spawns")
}

#[test]
fn out_of_range_flags_exit_2_with_usage_and_no_panic() {
    // (arguments, flag the error message must name)
    let bad: &[(&[&str], &str)] = &[
        (&["--flows", "0"], "--flows"),
        (&["--runs", "0"], "--runs"),
        (&["--load", "-1"], "--load"),
        (&["--load", "NaN"], "--load"),
        (&["--load", "1.6"], "--load"),
        (&["--drop", "99:0.5"], "--drop"),
        (&["--drop", "0:1.5"], "--drop"),
        (&["--cut", "99:0"], "--cut"),
        (&["--cut", "0:99"], "--cut"),
        (&["--blackhole", "0:99:1:1.0"], "--blackhole"),
        (&["--blackhole", "99:0:1:1.0"], "--blackhole"),
        (&["--blackhole", "0:0:1:2.0"], "--blackhole"),
        // Leaf 5 exists on the 8-leaf baseline, not on the 2-leaf testbed.
        (&["--topo", "testbed", "--cut", "5:0"], "--cut"),
        // Leaf 0 keeps no uplink; then each leaf keeps two uplinks but
        // the two share no spine.
        (
            &[
                "--topo", "testbed", "--cut", "0:0", "--cut", "0:1", "--cut", "0:2", "--cut", "0:3",
            ],
            "--cut",
        ),
        (
            &[
                "--topo", "testbed", "--cut", "0:0", "--cut", "0:1", "--cut", "1:2", "--cut", "1:3",
            ],
            "--cut",
        ),
        // One failure per spine: a flag may not name a spine twice.
        (&["--drop", "0:0.02", "--drop", "0:0.05"], "--drop"),
        (
            &["--blackhole", "0:0:1:1.0", "--blackhole", "0:1:0:0.5"],
            "--blackhole",
        ),
        // Run 1 would need seed 2^64.
        (&["--seed", "18446744073709551615", "--runs", "2"], "--seed"),
        // A scheme outside `Scheme::NAMES`.
        (&["--scheme", "drill"], "drill"),
    ];
    for (args, flag) in bad {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(flag), "{args:?} must name {flag}: {stderr}");
        assert!(stderr.contains("usage: hermes-cli"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn a_small_valid_run_exits_0_and_prints_the_summary() {
    let out = cli(&["--flows", "20", "--scheme", "ecmp"]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(stdout.contains("flows               20"), "{stdout}");
}
