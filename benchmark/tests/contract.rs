//! Holds the harness to `BENCHMARK.json` and to the root build
//! settings, and drives the real binary in `--smoke` (1/10-scale) mode:
//! every metric the file names is emitted by a run and vice versa.

use std::path::{Path, PathBuf};
use std::process::Command;

use hermes_benchmark::cli::RUN_SECONDS;
use hermes_benchmark::json::Json;
use hermes_benchmark::metrics::{END_TO_END, PER_LAYER};
use hermes_benchmark::workloads::WORKLOADS;

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo root")
        .to_path_buf()
}

fn benchmark_json() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
    obj.get(key)
        .unwrap_or_else(|| panic!("missing {key:?} in {obj}"))
}

fn keys(obj: &Json) -> Vec<&str> {
    match obj {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other}"),
    }
}

fn strings(arr: &Json) -> Vec<&str> {
    arr.as_arr()
        .expect("array")
        .iter()
        .map(|v| v.as_str().expect("string"))
        .collect()
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        strings(field(&doc, "command")),
        ["bash", "benchmark/run.sh"]
    );
    assert_eq!(strings(field(&doc, "paths")), ["benchmark"]);
    assert_eq!(
        field(&doc, "run_seconds").as_f64(),
        Some(RUN_SECONDS as f64)
    );

    let workloads = field(&doc, "workloads").as_arr().expect("array");
    assert_eq!(workloads.len(), WORKLOADS.len());
    for (got, want) in workloads.iter().zip(&WORKLOADS) {
        assert_eq!(keys(got), ["name", "why"]);
        assert_eq!(field(got, "name").as_str(), Some(want.name));
        assert_eq!(field(got, "why").as_str(), Some(want.why));
        assert!(want.why.len() <= 200 && !want.why.contains('\n'));
    }

    let end_to_end = field(&doc, "end_to_end").as_arr().expect("array");
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (got, want) in end_to_end.iter().zip(&END_TO_END) {
        assert_eq!(keys(got), ["name", "unit", "better", "bound"]);
        assert_eq!(field(got, "name").as_str(), Some(want.name));
        assert_eq!(field(got, "unit").as_str(), Some(want.unit));
        assert_eq!(field(got, "better").as_str(), Some(want.better.as_str()));
        assert_eq!(field(got, "bound").as_f64(), Some(want.bound));
    }

    let per_layer = field(&doc, "per_layer").as_arr().expect("array");
    assert_eq!(per_layer.len(), PER_LAYER.len());
    for (got, want) in per_layer.iter().zip(&PER_LAYER) {
        assert_eq!(keys(got), ["name", "unit", "better"]);
        assert_eq!(field(got, "name").as_str(), Some(want.name));
        assert_eq!(field(got, "unit").as_str(), Some(want.unit));
        assert_eq!(field(got, "better").as_str(), Some(want.better.as_str()));
    }
}

/// The `[profile.release]` table of a manifest, comments and blank
/// lines dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(manifest).expect("manifest");
    text.lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.trim_start().starts_with('['))
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}

#[test]
fn release_profile_matches_root() {
    let root = release_profile(&repo_root().join("Cargo.toml"));
    assert!(!root.is_empty(), "root manifest has a release profile");
    assert_eq!(
        release_profile(&repo_root().join("benchmark/Cargo.toml")),
        root,
        "build settings move speed without moving code: keep the two tables identical"
    );
}

/// Run the real binary from the repo root; its last stdout line.
fn run(args: &[&str]) -> (bool, String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_hermes-benchmark"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("spawn hermes-benchmark");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let line = Json::parse(&last).unwrap_or(Json::Null);
    (out.status.success(), stdout, line)
}

fn assert_result_shape(line: &Json, names: &[&str], units: &[&str], flows: f64) {
    assert_eq!(keys(line), ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(field(line, "correct").as_bool(), Some(true));
    assert_eq!(field(line, "attempted").as_f64(), Some(flows));
    assert_eq!(field(line, "failed").as_f64(), Some(0.0));
    let metrics = field(line, "metrics");
    assert_eq!(
        keys(metrics),
        names,
        "emitted metrics are exactly BENCHMARK.json's"
    );
    for (name, unit) in names.iter().zip(units) {
        let m = field(metrics, name);
        assert_eq!(keys(m), ["value", "unit"]);
        assert_eq!(field(m, "unit").as_str(), Some(*unit));
        assert!(
            field(m, "value").as_f64().is_some_and(f64::is_finite),
            "{name}"
        );
    }
}

#[test]
fn every_workload_emits_exactly_the_end_to_end_metrics() {
    let doc = benchmark_json();
    let declared = field(&doc, "end_to_end").as_arr().expect("array");
    let names: Vec<&str> = declared
        .iter()
        .map(|m| field(m, "name").as_str().expect("name"))
        .collect();
    let units: Vec<&str> = declared
        .iter()
        .map(|m| field(m, "unit").as_str().expect("unit"))
        .collect();
    for w in &WORKLOADS {
        // 16 s buys two reps, so the distinct-digest check has a pair.
        let (ok, stdout, line) = run(&[
            "--workload",
            w.name,
            "--seed",
            "3",
            "--seconds",
            "16",
            "--trace",
            "0",
            "--smoke",
        ]);
        assert!(ok, "{stdout}");
        assert!(
            stdout.contains("SMOKE"),
            "smoke output is labelled non-comparable"
        );
        assert_result_shape(
            &line,
            &names,
            &units,
            2.0 * w.variant.smoke().flows() as f64,
        );
        for m in &names {
            assert!(field(field(&line, "metrics"), m).as_f64().is_none());
            let v = field(field(field(&line, "metrics"), m), "value")
                .as_f64()
                .expect("number");
            assert!(
                v > 0.0,
                "{}: end-to-end metric {m} must never read 0",
                w.name
            );
        }
    }
}

#[test]
fn the_traced_pass_emits_exactly_the_per_layer_metrics_and_writes_its_spans() {
    let doc = benchmark_json();
    let declared = field(&doc, "per_layer").as_arr().expect("array");
    let names: Vec<&str> = declared
        .iter()
        .map(|m| field(m, "name").as_str().expect("name"))
        .collect();
    let units: Vec<&str> = declared
        .iter()
        .map(|m| field(m, "unit").as_str().expect("unit"))
        .collect();
    // One workload with both ladder siblings real, one closed-loop with a rerun.
    for name in ["failure_hermes", "incast_hermes"] {
        let w = WORKLOADS.iter().find(|w| w.name == name).expect("listed");
        let (ok, stdout, line) = run(&[
            "--workload",
            name,
            "--seed",
            "3",
            "--seconds",
            "8",
            "--trace",
            "1",
            "--smoke",
        ]);
        assert!(ok, "{stdout}");
        assert_result_shape(&line, &names, &units, w.variant.smoke().flows() as f64);

        let path = repo_root().join(format!("benchmark/out/trace-{name}.json"));
        let trace =
            Json::parse(&std::fs::read_to_string(&path).expect("trace file")).expect("parses");
        assert_eq!(
            field(&trace, "run_id").as_str(),
            Some(format!("{name}-seed3").as_str())
        );
        let spans = field(&trace, "spans").as_arr().expect("spans");
        let named = |n: &str| {
            spans
                .iter()
                .filter(|s| field(s, "name").as_str() == Some(n))
                .count()
        };
        for n in [
            "run",
            "setup",
            "new_sim",
            "generate",
            "install",
            "summarize",
            "verify",
        ] {
            assert_eq!(named(n), 1, "{n}");
        }
        assert!(named("slice") >= 10);
        // Self times tile the root: nothing is counted twice or lost.
        let total: f64 = spans
            .iter()
            .map(|s| field(s, "self_ns").as_f64().expect("self_ns"))
            .sum();
        let root = &spans[0];
        let dur = field(root, "end_ns").as_f64().expect("end")
            - field(root, "start_ns").as_f64().expect("start");
        assert_eq!(field(root, "parent"), &Json::Null);
        assert_eq!(total, dur);
    }
}

#[test]
fn a_bad_command_line_exits_with_usage_and_no_result() {
    let (ok, stdout, line) = run(&["--workload", "nope", "--trace", "0"]);
    assert!(!ok);
    assert!(stdout.is_empty());
    assert_eq!(line, Json::Null);
}
