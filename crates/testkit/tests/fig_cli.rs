//! The `fig` command line: listing, an unknown name, a scaling knob
//! out of range, and a reader that closes stdout early. Only the last
//! runs a simulation, and a small one.

use std::process::{Command, Output, Stdio};

fn fig(args: &[&str], env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_fig"));
    cmd.args(args)
        .env_remove("HERMES_SCALE")
        .env_remove("HERMES_RUNS");
    cmd.envs(env.iter().copied());
    cmd.output().expect("fig runs")
}

#[test]
fn no_argument_lists_the_names() {
    let out = fig(&[], &[]);
    assert_eq!(out.status.code(), Some(0));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let names: Vec<&str> = stdout.lines().collect();
    assert_eq!(names.len(), 20, "{stdout}");
    assert!(names.contains(&"fig12_baseline") && names.contains(&"collective_stall"));
}

#[test]
fn an_unknown_name_exits_2_with_the_names() {
    let out = fig(&["fig99_nope"], &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("fig12_baseline"), "{stderr}");
}

#[test]
fn zero_runs_exits_2_naming_the_variable() {
    // The second count's last seed would pass u64::MAX.
    for runs in ["0", "18446744073709551615"] {
        let out = fig(&["fig15_flowlet_sweep"], &[("HERMES_RUNS", runs)]);
        assert_eq!(out.status.code(), Some(2), "{runs}");
        assert!(out.stdout.is_empty(), "no cell may run");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("HERMES_RUNS"), "{stderr}");
    }
}

#[test]
fn a_closed_stdout_exits_0_without_a_panic() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_fig"))
        .arg("table2_visibility")
        .env("HERMES_SCALE", "0.01")
        .env_remove("HERMES_RUNS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("fig spawns");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("fig ends");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
