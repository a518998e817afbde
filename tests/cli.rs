//! `hermes-cli` arguments: bad input exits 2 with the usage text on
//! stderr and never reaches a panic inside the library. Also `--help`,
//! a reader that closes stdout early, the committed example scenarios,
//! and `--trace`: its files per run and its digests, which are the
//! goldens' and the untraced run's.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

use hermes_testkit::{load_dir, load_goldens, run_point, trace_point};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hermes-cli"))
        .args(args)
        .output()
        .expect("hermes-cli spawns")
}

/// A fresh directory path under the system temp dir, unique to this
/// process and `tag`.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hermes_cli_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A scenario named `small` in its own directory under [`scratch`]:
/// `flows` web-search flows at load `load` on the testbed under `lb`,
/// one cell per seed of `seeds` (a TOML list body).
fn small(tag: &str, lb: &str, load: &str, flows: &str, seeds: &str) -> PathBuf {
    let dir = scratch(tag);
    std::fs::create_dir_all(&dir).expect("a scratch directory");
    let path = dir.join("small.toml");
    let body = format!(
        "[topology]\nkind = \"testbed\"\n[workload]\ndist = \"web_search\"\nload = {load}\n\
         flows = {flows}\n[run]\nseeds = [{seeds}]\nlbs = [\"{lb}\"]\n"
    );
    std::fs::write(&path, body).expect("the scenario file is written");
    path
}

fn remove(file: &Path) {
    let dir = file.parent().expect("a file in a scratch directory");
    std::fs::remove_dir_all(dir).expect("the scratch directory is removed");
}

#[test]
fn out_of_range_flags_exit_2_with_usage_and_no_panic() {
    let ok = small("ok", "ecmp", "0.3", "20", "1");
    // At this load 2 arrivals would span far past `Time::MAX`.
    let vanishing = small("vanishing", "hermes", "1e-300", "2", "1");
    // Flow ids 0..flows would run past what a timer token carries.
    let too_many = small("too_many", "ecmp", "0.3", "9223372036854775807", "1");
    let missing = ok.with_file_name("missing.toml");
    let [ok_s, vanishing_s, too_many_s, missing_s] =
        [&ok, &vanishing, &too_many, &missing].map(|p| p.to_str().unwrap().to_string());
    // (arguments, what the error message must name)
    let mut bad: Vec<(Vec<&str>, String)> = vec![
        (vec![], "error: give a FILE.toml".into()),
        (vec!["--point"], "missing value for --point".into()),
        (vec!["--trace"], "missing value for --trace".into()),
        (vec![&ok_s, "--point", "fig17_mini"], "one FILE.toml".into()),
        (vec![&ok_s, &ok_s], "one FILE.toml".into()),
        (vec![&missing_s], "missing.toml".into()),
        (vec![&vanishing_s], "`load`".into()),
        (vec![&too_many_s], "`flows`".into()),
    ];
    // The point is the file's: no flag shapes it.
    let shaping = [
        "--topo",
        "--scheme",
        "--workload",
        "--load",
        "--flows",
        "--seed",
        "--runs",
        "--transport",
        "--drop",
        "--blackhole",
        "--cut",
    ];
    for flag in shaping {
        bad.push((vec![&ok_s, flag, "1"], format!("unknown flag {flag}")));
    }
    for (args, name) in &bad {
        let out = cli(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(name), "{args:?} must name {name}: {stderr}");
        assert!(stderr.contains("usage: hermes-cli"), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}: no run may start");
    }
    for file in [&ok, &vanishing, &too_many] {
        remove(file);
    }
}

#[test]
fn a_small_valid_run_exits_0_and_prints_the_summary() {
    let file = small("valid", "ecmp", "0.3", "20", "1");
    let out = cli(&[file.to_str().unwrap()]);
    remove(&file);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{out:?}");
    assert!(
        stdout.starts_with("scenario=small lb=ecmp load=0.3 seeds=[1]\n"),
        "{stdout}"
    );
    assert!(stdout.contains("flows               20"), "{stdout}");
}

/// Every committed example scenario loads and passes the loader's
/// checks; none runs here.
#[test]
fn every_example_scenario_loads_and_validates() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("examples/scenarios");
    let specs = load_dir(&dir).unwrap_or_else(|e| panic!("{e}"));
    assert!(specs.len() >= 4, "{} example scenarios", specs.len());
}

/// A reader that closes the pipe early (`hermes-cli … | head -1`)
/// ends the run quietly: exit 0, no panic. A run's summary is written
/// after the runs, so some write meets the closed pipe.
#[test]
fn a_closed_stdout_exits_0_without_a_panic() {
    let file = small("closed", "ecmp", "0.3", "20", "1, 2");
    let runs: [&[&str]; 2] = [&[file.to_str().unwrap()], &["--help"]];
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
    remove(&file);
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

/// Seed 2's cell of a two-seed traced file writes exactly what a
/// one-seed file at seed 2 writes: each worker traces into its own
/// sink, and nothing of one run bleeds into the next.
#[test]
fn each_traced_run_writes_the_files_of_its_own_seed() {
    let (f1, f2) = (
        small("seeds12", "hermes", "0.3", "20", "1, 2"),
        small("seed2", "hermes", "0.3", "20", "2"),
    );
    let (d1, d2) = (f1.with_file_name("traces"), f2.with_file_name("traces"));
    let traced = |file: &Path, dir: &Path| {
        let out = cli(&[file.to_str().unwrap(), "--trace", dir.to_str().unwrap()]);
        assert!(out.status.success(), "{out:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let two = traced(&f1, &d1);
    let one = traced(&f2, &d2);
    for stem in ["small.hermes.seed1", "small.hermes.seed2"] {
        assert!(two.contains(&format!("{stem}: ")), "{two}");
    }
    assert!(one.contains("small.hermes.seed2: "), "{one}");
    for ext in ["trace.jsonl", "metrics.csv"] {
        let a = std::fs::read(d1.join(format!("small.hermes.seed2.{ext}"))).unwrap();
        let b = std::fs::read(d2.join(format!("small.hermes.seed2.{ext}"))).unwrap();
        assert!(!a.is_empty() && a == b, "seed 2's {ext} differs");
        let other = std::fs::read(d1.join(format!("small.hermes.seed1.{ext}"))).unwrap();
        assert_ne!(other, b, "seeds 1 and 2 traced the same {ext}");
    }
    let mut names: Vec<_> = std::fs::read_dir(&d2)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    assert_eq!(
        names,
        [
            "small.hermes.seed2.metrics.csv",
            "small.hermes.seed2.trace.jsonl"
        ]
    );
    remove(&f1);
    remove(&f2);
}

/// A scenario file through the CLI is the conformance grid's cell: each
/// traced cell of `asymmetric.toml` prints the digest `digests.toml`
/// pins for it.
#[test]
fn a_traced_scenario_prints_its_golden_digests() {
    let scenarios = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/scenarios");
    let dir = scratch("goldens");
    let file = scenarios.join("asymmetric.toml");
    let out = cli(&[file.to_str().unwrap(), "--trace", dir.to_str().unwrap()]);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let goldens = load_goldens(&scenarios).expect("committed golden stores");
    let pinned: Vec<_> = goldens
        .digests
        .iter()
        .filter_map(|(key, digest)| Some((key.strip_prefix("asymmetric/")?, digest)))
        .collect();
    assert_eq!(pinned.len(), 9, "three lbs × three seeds");
    for (cell, digest) in pinned {
        let (lb, seed) = cell.split_once('/').unwrap();
        let (stem, tail) = (
            format!("asymmetric.{lb}.seed{seed}: "),
            format!(", digest {digest:#018x}"),
        );
        assert!(
            stdout
                .lines()
                .any(|l| l.starts_with(&stem) && l.ends_with(&tail)),
            "want `{stem}…{tail}` in\n{stdout}"
        );
    }
}

/// Tracing through the CLI moves no digest: the one `--point` prints
/// is the untraced run's, and its event count is the written trace's.
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
    let trace = std::fs::read_to_string(dir.join("fig17_mini.trace.jsonl")).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(names, ["fig17_mini.metrics.csv", "fig17_mini.trace.jsonl"]);
    let events = trace.lines().count();
    let digest = run_point(&trace_point("fig17_mini").unwrap().point).digest;
    let line =
        format!("fig17_mini: {events} events (0 shed), 0 unfinished flows, digest {digest:#018x}");
    assert!(
        stdout.lines().any(|l| l == line),
        "want `{line}` in\n{stdout}"
    );
}
