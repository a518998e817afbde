//! `hermes-cli` flag validation: bad input exits 2 with the usage text
//! on stderr and never reaches a panic inside the library. Also
//! `--help`, a reader that closes stdout early, and `--trace`: its files
//! per run and its digest.

use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

use hermes_testkit::{run_point, trace_point};

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
        // Flow ids 0..flows would run past what a timer token carries.
        (&["--flows", "18446744073709551615"], "--flows"),
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
        // Source leaf = destination leaf: intra-rack traffic never
        // crosses a spine, so the hole could never match.
        (
            &["--topo", "testbed", "--blackhole", "0:0:0:1.0"],
            "--drop/--blackhole",
        ),
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
        // A registered point brings its own shape and seed.
        (&["--point", "fig17_mini", "--load", "0.5"], "--load"),
        (&["--seed", "3", "--point", "fig17_mini"], "--seed"),
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

/// A reader that closes the pipe early (`hermes-cli … | head -1`)
/// ends the run quietly: exit 0, no panic. A run's summary is written
/// after the runs, so some write meets the closed pipe.
#[test]
fn a_closed_stdout_exits_0_without_a_panic() {
    let runs: [&[&str]; 2] = [
        &["--flows", "20", "--scheme", "ecmp", "--runs", "2"],
        &["--help"],
    ];
    for args in runs {
        let mut child = Command::new(env!("CARGO_BIN_EXE_hermes-cli"))
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("hermes-cli spawns");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("hermes-cli ends");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn help_prints_the_usage_on_stdout_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = cli(&[flag]);
        assert_eq!(out.status.code(), Some(0), "{flag}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("usage: hermes-cli"), "{stdout}");
        assert!(stdout.contains("fig17_mini"), "{stdout}");
        assert!(out.stderr.is_empty(), "{flag}: {out:?}");
    }
}

/// A fresh directory path under the system temp dir, unique to this
/// process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hermes_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_trace_under_a_regular_file_exits_2_naming_trace() {
    let file = scratch("file");
    std::fs::write(&file, b"not a directory").unwrap();
    let bad = file.join("traces");
    let out = cli(&["--point", "fig17_mini", "--trace", bad.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(out.status.code(), Some(2), "no panic (101)");
    assert!(out.stdout.is_empty(), "no run may start");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--trace") && stderr.contains("traces"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_unknown_point_exits_2_with_the_points() {
    let out = cli(&["--point", "fig99_nope", "--trace", "unused"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig99_nope"), "{stderr}");
    for name in ["fig17_transient_recovery", "fig17_mini"] {
        assert!(stderr.contains(name), "{stderr}");
    }
}

/// Run 2 of a two-run traced invocation writes exactly what a one-run
/// invocation at its seed writes: each worker traces into its own sink,
/// and nothing of one run bleeds into the next.
#[test]
fn each_traced_run_writes_the_files_of_its_own_seed() {
    let (d1, d2) = (scratch("d1"), scratch("d2"));
    let point = ["--flows", "20", "--scheme", "hermes"];
    let traced = |seed: &str, runs: &str, dir: &PathBuf| {
        let dir = dir.to_str().unwrap();
        let args = [
            &point[..],
            &["--seed", seed, "--runs", runs, "--trace", dir],
        ]
        .concat();
        let out = cli(&args);
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let two = traced("1", "2", &d1);
    let one = traced("2", "1", &d2);
    for stem in ["run.seed1", "run.seed2"] {
        assert!(two.contains(&format!("{stem}: ")), "{two}");
    }
    assert!(one.contains("run: "), "{one}");
    for ext in ["trace.jsonl", "metrics.csv"] {
        let a = std::fs::read(d1.join(format!("run.seed2.{ext}"))).unwrap();
        let b = std::fs::read(d2.join(format!("run.{ext}"))).unwrap();
        assert!(!a.is_empty() && a == b, "run 2's {ext} differs");
        let other = std::fs::read(d1.join(format!("run.seed1.{ext}"))).unwrap();
        assert_ne!(other, b, "seeds 1 and 2 traced the same {ext}");
    }
    let mut names: Vec<_> = std::fs::read_dir(&d2)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(names, ["run.metrics.csv", "run.trace.jsonl"]);
    std::fs::remove_dir_all(&d1).unwrap();
    std::fs::remove_dir_all(&d2).unwrap();
}

/// Tracing through the CLI moves no digest: the one `--point` prints
/// is the untraced run's.
#[test]
fn a_traced_point_prints_the_untraced_digest() {
    let dir = scratch("point");
    let out = cli(&["--point", "fig17_mini", "--trace", dir.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let mut names: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(names, ["fig17_mini.metrics.csv", "fig17_mini.trace.jsonl"]);
    let digest = run_point(&trace_point("fig17_mini").unwrap().point).digest;
    let line =
        format!("fig17_mini: 22721 events (0 shed), 0 unfinished flows, digest {digest:#018x}");
    assert!(
        stdout.lines().any(|l| l == line),
        "want `{line}` in\n{stdout}"
    );
}
