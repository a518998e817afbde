//! The `trace_point` command line: an `--out` that cannot be created
//! and an unknown point. Neither runs a simulation.

use std::process::{Command, Output};

fn trace_point(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_point"))
        .args(args)
        .output()
        .expect("trace_point runs")
}

#[test]
fn an_out_under_a_regular_file_exits_2_naming_out() {
    let file = std::env::temp_dir().join(format!("trace_point_cli_{}", std::process::id()));
    std::fs::write(&file, b"not a directory").unwrap();
    let bad = file.join("traces");
    let out = trace_point(&["--point", "fig17_mini", "--out", bad.to_str().unwrap()]);
    std::fs::remove_file(&file).unwrap();
    assert_eq!(out.status.code(), Some(2), "no panic (101)");
    assert!(out.stdout.is_empty(), "no run may start");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(
        stderr.contains("--out") && stderr.contains("traces"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn an_unknown_point_exits_2_with_the_points() {
    let out = trace_point(&["--point", "fig99_nope", "--out", "unused"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig99_nope"), "{stderr}");
    for name in ["fig17_transient_recovery", "fig17_mini"] {
        assert!(stderr.contains(name), "{stderr}");
    }
}
