//! Workspace tasks. Subcommands:
//!
//! * `cargo run -p xtask -- analyze [--self-test] [--json <out>]
//!   [--update-baseline]` — the token-level determinism &
//!   concurrency-readiness analyzer (`hermes-analyzer`, DESIGN.md §13):
//!   the five original lint rules (wall-clock, hash-order, stray-rng,
//!   lib-unwrap, fault-mutation) plus float-determinism, panic-surface,
//!   unsafe-inventory, concurrency-readiness and telemetry-hygiene,
//!   all scoped per (crate, kind, file) over a real token stream.
//!   `--self-test` proves every rule class trips on its bad fixtures
//!   and stays quiet on the clean ones; `--json` writes the machine
//!   report CI uploads; `--update-baseline` rewrites the reviewed
//!   `analyzer_baseline.json` unsafe inventory.
//! * `cargo run -p xtask -- conformance [--self-test]` — run the full
//!   scenario conformance grid (`tests/scenarios/` plus the extended
//!   directory) through `hermes-testkit`, or prove each checker class
//!   fails on its deliberately-broken fixture;
//! * `cargo run -p xtask -- bless` — regenerate the golden event-trace
//!   digest stores after an intended behavior change;
//! * `cargo run -p xtask -- perf [--quick]` — run the named perf points
//!   under both scheduler builds (timing wheel, and the binary heap via
//!   `hermes-sim/heap-queue`), fail on any cross-scheduler digest
//!   mismatch, and write the wall-clock / throughput / peak-RSS
//!   comparison to `BENCH_perf.json` at the workspace root.
//! * `cargo run -p xtask -- chaos [--seeds N] [--quick] [--shrink]
//!   [--self-test]` — the chaos campaign engine (DESIGN.md §14):
//!   replay the committed counterexample corpus
//!   (`tests/chaos/corpus/`), then sample N seeded fault plans from
//!   the full fault grammar and judge hermes/conga/ecmp against the
//!   graceful-degradation SLOs; `--shrink` delta-debugs failing plans
//!   to minimal counterexamples (`--emit-shrunk <dir>` writes them in
//!   corpus format), `--recovery-frac` tightens the recovery SLO for
//!   corpus mining, and `--self-test` proves each SLO checker and the
//!   shrinker trip on planted fixtures.
//!
//! The simulator's core promise is that a (config, seed) pair fully
//! determines every packet of a run. That promise dies quietly: one
//! `Instant::now()` in a code path, one iteration over a `HashMap`, one
//! stray `thread_rng()`, and runs stop reproducing without any test
//! necessarily failing. The analyzer scans the workspace sources for
//! exactly those patterns — see `crates/analyzer` for the lexer, the
//! rule scopes, the `// ANALYZER: allow(rule, reason)` suppression
//! grammar and the committed unsafe baseline. Exit status is non-zero
//! iff findings remain.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("analyze") => analyze(&args[1..]),
        Some("conformance") => {
            if args.iter().any(|a| a == "--self-test") {
                return conformance_self_test();
            }
            conformance()
        }
        Some("bless") => bless_goldens(),
        Some("perf") => perf(
            args.iter().any(|a| a == "--quick"),
            args.iter().any(|a| a == "--gate"),
        ),
        Some("trace") => trace(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <analyze [--self-test] [--json <out>] \
                 [--update-baseline] | conformance [--self-test] | bless | perf [--quick] \
                 [--gate] | trace <point> --out <dir> | chaos [--seeds N] [--seed-base N] \
                 [--quick] [--shrink] [--self-test] [--no-corpus] [--recovery-frac F] \
                 [--out <json>] [--emit-shrunk <dir>]>"
            );
            ExitCode::FAILURE
        }
    }
}

/// `analyze`: run `hermes-analyzer` over the tree (or its fixture
/// corpus with `--self-test`), optionally writing the JSON report.
fn analyze(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--self-test") {
        return analyze_self_test();
    }
    let mut json_out: Option<&str> = None;
    let mut update_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json_out = it.next().map(String::as_str),
            "--update-baseline" => update_baseline = true,
            other => {
                eprintln!("xtask analyze: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let root = workspace_root();
    let analysis = match hermes_analyzer::analyze_workspace(&root, update_baseline) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("xtask analyze: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(out) = json_out {
        if let Err(e) = fs::write(out, hermes_analyzer::report_json(&analysis)) {
            eprintln!("xtask analyze: writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask analyze: wrote {out}");
    }
    if analysis.baseline_written {
        println!(
            "xtask analyze: rewrote analyzer_baseline.json with {} unsafe site(s)",
            analysis.inventory.len()
        );
    }
    if analysis.clean() {
        println!("xtask analyze: {} files clean", analysis.scanned);
        return ExitCode::SUCCESS;
    }
    for f in &analysis.findings {
        println!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.text);
    }
    println!(
        "\nxtask analyze: {} finding(s) in {} files",
        analysis.findings.len(),
        analysis.scanned
    );
    let mut named: Vec<&str> = analysis.findings.iter().map(|f| f.rule).collect();
    named.sort_unstable();
    named.dedup();
    for rule in named {
        println!("  [{rule}] {}", hermes_analyzer::rule_why(rule));
    }
    ExitCode::FAILURE
}

/// `analyze --self-test`: every rule class must trip on its bad
/// fixtures and stay quiet on the clean ones.
fn analyze_self_test() -> ExitCode {
    let outcomes = hermes_analyzer::self_test();
    let mut ok = true;
    for o in &outcomes {
        println!(
            "  [{}] {:<60} {}",
            if o.ok { "ok" } else { "FAILED" },
            o.label,
            o.detail
        );
        ok &= o.ok;
    }
    if ok {
        println!("xtask analyze --self-test: {} fixtures OK", outcomes.len());
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask analyze --self-test: fixture failures (see above)");
        ExitCode::FAILURE
    }
}

/// The scenario directories, tier-1 grid first, then the extended grid
/// that only this subcommand (not `tests/conformance.rs`) runs.
fn scenario_dirs() -> Vec<PathBuf> {
    let root = workspace_root();
    vec![
        root.join("tests/scenarios"),
        root.join("tests/scenarios/extended"),
    ]
}

/// Run the full conformance grid (tier-1 scenarios plus the extended
/// directory) and print per-LB FCT summaries for every scenario.
fn conformance() -> ExitCode {
    let mut ok = true;
    for dir in scenario_dirs() {
        println!("== {} ==", dir.display());
        let report = match hermes_testkit::run_conformance(&dir, 0) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask conformance: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Per-(scenario, lb) mean FCTs over seeds — the numbers the
        // envelope tolerances in the specs are calibrated against.
        for (si, spec) in report.scenarios.iter().enumerate() {
            for (li, lb) in spec.lbs.iter().enumerate() {
                let cells: Vec<_> = report
                    .outcomes
                    .iter()
                    .filter(|o| o.scenario == si && o.lb_idx == li)
                    .collect();
                if cells.is_empty() {
                    continue;
                }
                let n = cells.len() as f64;
                let avg = cells.iter().map(|o| o.result.fct.avg).sum::<f64>() / n;
                let p99 = cells.iter().map(|o| o.result.fct.p99).sum::<f64>() / n;
                let unfinished: usize = cells.iter().map(|o| o.result.fct.unfinished).sum();
                println!(
                    "  {:<14} {:<10} avg {:>9.3} ms  p99 {:>9.3} ms  unfinished {}",
                    spec.name,
                    lb.name,
                    avg * 1e3,
                    p99 * 1e3,
                    unfinished
                );
            }
        }
        print!("{report}");
        ok &= report.passed();
    }
    if ok {
        println!("xtask conformance: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask conformance: FAIL");
        ExitCode::FAILURE
    }
}

/// Prove each checker class (invariant, digest, envelope) actually
/// fails on its deliberately-broken fixture.
fn conformance_self_test() -> ExitCode {
    let cases = match hermes_testkit::run_self_test() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask conformance --self-test: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for case in &cases {
        let tripped = case.failures.iter().any(|f| f.class == case.expect);
        println!(
            "  [{}] {:<55} {}",
            if tripped { "ok" } else { "MISSED" },
            case.name,
            case.failures
                .first()
                .map_or_else(|| "(no failure reported)".to_string(), ToString::to_string)
        );
        ok &= tripped;
    }
    if ok {
        println!(
            "xtask conformance --self-test: all {} broken fixtures tripped their checker class",
            cases.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask conformance --self-test: a checker class failed to fail");
        ExitCode::FAILURE
    }
}

/// Regenerate the golden digest stores for every scenario directory
/// that pins digests.
fn bless_goldens() -> ExitCode {
    for dir in scenario_dirs() {
        let specs = match hermes_testkit::load_dir(&dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask bless: {e}");
                return ExitCode::FAILURE;
            }
        };
        if !specs.iter().any(|s| s.pin_digests) {
            println!("bless: {} has no pinned scenarios, skipped", dir.display());
            continue;
        }
        match hermes_testkit::bless(&dir, 0) {
            Ok((n, path)) => println!("bless: wrote {n} golden digest(s) to {}", path.display()),
            Err(e) => {
                eprintln!("xtask bless: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// One parsed `perf_point` report: the `key=value` lines the binary
/// prints, keyed by field name.
type PerfReport = std::collections::BTreeMap<String, String>;

/// Schedulers the perf harness compares: display name → extra cargo
/// feature flags selecting that scheduler build.
const PERF_SCHEDULERS: &[(&str, &[&str])] = &[
    ("wheel", &[]),
    ("heap", &["--features", "hermes-sim/heap-queue"]),
];

/// The point whose wheel-vs-heap wall-clock delta is the PR-gating
/// perf trajectory headline.
const PERF_HEADLINE_POINT: &str = "fig12_baseline";

/// `trace <point> --out <dir>`: rebuild `hermes-bench` with the
/// `telemetry` feature and run its `trace_point` bin, which writes
/// `<point>.trace.jsonl` (event trace) and `<point>.metrics.csv`
/// (cadence-sampled metrics) into `<dir>`.
fn trace(args: &[String]) -> ExitCode {
    let mut point: Option<&str> = None;
    let mut out: Option<&str> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().map(String::as_str),
            p if point.is_none() && !p.starts_with('-') => point = Some(p),
            other => {
                eprintln!("xtask trace: unexpected argument `{other}`");
                return ExitCode::FAILURE;
            }
        }
    }
    let (Some(point), Some(out)) = (point, out) else {
        eprintln!("usage: cargo run -p xtask -- trace <point> --out <dir>");
        return ExitCode::FAILURE;
    };
    let root = workspace_root();
    let status = std::process::Command::new("cargo")
        .current_dir(&root)
        .args(["run", "--release", "-q", "-p", "hermes-bench"])
        .args(["--features", "hermes-bench/telemetry"])
        .args(["--bin", "trace_point", "--"])
        .args(["--point", point, "--out", out])
        .status();
    match status {
        Ok(st) if st.success() => ExitCode::SUCCESS,
        Ok(st) => {
            eprintln!("xtask trace: trace_point exited with {st}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("xtask trace: spawning cargo: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Wall-clock runs per (point, scheduler); the minimum is reported
/// (standard practice: the min is the least noise-contaminated sample).
const PERF_RUNS_FULL: usize = 3;

/// Gate floor on the headline improvement, in percentage points: the
/// wheel scheduler must beat the heap by at least this much *in the
/// same run*. Both sides share the machine, load, and mode, so the
/// ratio is immune to the absolute wall-clock noise that made gating
/// against a committed number from some other machine flaky — the gate
/// only trips when the wheel's advantage itself erodes.
const PERF_GATE_MIN_IMPROVEMENT_PCT: f64 = 10.0;

/// Gate ceiling on the headline point's peak-RSS ratio: the wheel
/// scheduler build may use at most this multiple of the heap build's
/// peak RSS *in the same run*. Keeps the wheel's speed from being
/// bought back with unbounded slot-storage memory (the pre-rework
/// wheel sat at ~7.5× — 144 MB vs 19 MB).
const PERF_GATE_MAX_RSS_RATIO: f64 = 2.0;

/// Outcome of the same-run RSS ceiling check.
#[derive(Debug, PartialEq)]
enum RssGate {
    /// Ratio measured and within the ceiling.
    Ok(f64),
    /// RSS unavailable (e.g. non-Linux: `peak_rss_kb()` returned 0) —
    /// the check is skipped with a printed notice, never failed.
    Skipped(&'static str),
    /// Ratio measured and at or above the ceiling.
    Failed(f64),
}

/// Evaluate the wheel-vs-heap peak-RSS ceiling for one run.
fn rss_gate(wheel_kb: f64, heap_kb: f64) -> RssGate {
    let unavailable = |kb: f64| kb.is_nan() || kb <= 0.0;
    if unavailable(wheel_kb) || unavailable(heap_kb) {
        // 0 is the probe's "unreadable" sentinel; NaN is a missing
        // report field.
        return RssGate::Skipped("peak RSS unavailable on this platform");
    }
    let ratio = wheel_kb / heap_kb;
    if ratio < PERF_GATE_MAX_RSS_RATIO {
        RssGate::Ok(ratio)
    } else {
        RssGate::Failed(ratio)
    }
}

/// Build and run the `perf_point` binary once per scheduler per named
/// point, check the event-trace digests agree across schedulers, and
/// write the comparison to `BENCH_perf.json` at the workspace root.
///
/// With `gate`, the run fails unless the wheel beats the heap on the
/// headline point by at least [`PERF_GATE_MIN_IMPROVEMENT_PCT`] in the
/// same run (a machine-independent relative floor; the committed
/// `BENCH_perf.json` is informational, never compared against).
fn perf(quick: bool, gate: bool) -> ExitCode {
    let root = workspace_root();
    let runs = if quick { 1 } else { PERF_RUNS_FULL };
    let points = match perf_point_names(&root) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("xtask perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    // (point, scheduler) → best-of-N report.
    let mut results: Vec<(String, Vec<PerfReport>)> = Vec::new();
    for point in &points {
        let mut per_scheduler = Vec::new();
        for (name, features) in PERF_SCHEDULERS {
            let mut best: Option<PerfReport> = None;
            for _ in 0..runs {
                let rep = match run_perf_point(&root, point, features, quick) {
                    Ok(r) => r,
                    Err(e) => {
                        eprintln!("xtask perf: {point}/{name}: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let faster = |r: &PerfReport, b: &PerfReport| {
                    perf_f64(r, "wall_ms") < perf_f64(b, "wall_ms")
                };
                if best.as_ref().is_none_or(|b| faster(&rep, b)) {
                    best = Some(rep);
                }
            }
            let best = best.expect("runs >= 1 always yields a report");
            println!(
                "  {point:<16} {name:<6} wall {:>9.1} ms  {:>12} events  {:>10.0} ev/s  rss {:>7} KiB",
                perf_f64(&best, "wall_ms"),
                best.get("events").map_or("?", String::as_str),
                perf_f64(&best, "events_per_sec"),
                best.get("peak_rss_kb").map_or("?", String::as_str),
            );
            per_scheduler.push(best);
        }
        results.push((point.clone(), per_scheduler));
    }
    // Cross-scheduler digest agreement is the harness's correctness
    // gate: an optimization that changes event order is a wrong answer
    // computed quickly.
    let mut digests_ok = true;
    for (point, reps) in &results {
        let digests: Vec<&str> = reps
            .iter()
            .map(|r| r.get("digest").map_or("?", String::as_str))
            .collect();
        if digests.windows(2).any(|w| w[0] != w[1]) {
            eprintln!("xtask perf: DIGEST MISMATCH on {point}: {digests:?}");
            digests_ok = false;
        }
    }
    let json = perf_json(quick, &results, digests_ok);
    let out = root.join("BENCH_perf.json");
    if let Err(e) = fs::write(&out, json) {
        eprintln!("xtask perf: writing {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!("xtask perf: wrote {}", out.display());
    let mut headline_now = None;
    let mut headline_rss = None;
    if let Some((_, reps)) = results.iter().find(|(p, _)| p == PERF_HEADLINE_POINT) {
        let (wheel, heap) = (&reps[0], &reps[1]);
        let improvement =
            perf_improvement_pct(perf_f64(heap, "wall_ms"), perf_f64(wheel, "wall_ms"));
        headline_now = Some(improvement);
        headline_rss = Some((
            perf_f64(wheel, "peak_rss_kb"),
            perf_f64(heap, "peak_rss_kb"),
        ));
        println!(
            "xtask perf: {PERF_HEADLINE_POINT}: wheel {:.1} ms vs heap {:.1} ms — {improvement:.1}% \
             wall-clock improvement",
            perf_f64(wheel, "wall_ms"),
            perf_f64(heap, "wall_ms"),
        );
    }
    if gate {
        match headline_now {
            Some(now) if now >= PERF_GATE_MIN_IMPROVEMENT_PCT => {
                println!(
                    "xtask perf: gate OK — wheel beats heap by {now:.1}% this run \
                     (floor {PERF_GATE_MIN_IMPROVEMENT_PCT:.0}%)"
                );
            }
            Some(now) => {
                eprintln!(
                    "xtask perf: GATE FAILED — wheel beats heap by only {now:.1}% this run, \
                     below the {PERF_GATE_MIN_IMPROVEMENT_PCT:.0}% floor"
                );
                return ExitCode::FAILURE;
            }
            None => {
                eprintln!("xtask perf: GATE FAILED — headline point missing from this run");
                return ExitCode::FAILURE;
            }
        }
        let (wheel_kb, heap_kb) = headline_rss.expect("headline present if wall gate passed");
        match rss_gate(wheel_kb, heap_kb) {
            RssGate::Ok(ratio) => {
                println!(
                    "xtask perf: RSS gate OK — wheel peak RSS is {ratio:.2}× heap's \
                     (ceiling {PERF_GATE_MAX_RSS_RATIO:.1}×)"
                );
            }
            RssGate::Skipped(why) => {
                println!("xtask perf: RSS gate skipped — {why}");
            }
            RssGate::Failed(ratio) => {
                eprintln!(
                    "xtask perf: GATE FAILED — wheel peak RSS is {ratio:.2}× heap's, at or \
                     above the {PERF_GATE_MAX_RSS_RATIO:.1}× ceiling"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if digests_ok {
        println!("xtask perf: same-seed digests identical across schedulers");
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask perf: FAIL (cross-scheduler digest mismatch)");
        ExitCode::FAILURE
    }
}

/// Wall-clock reduction of `new` relative to `old`, in percent.
fn perf_improvement_pct(old_ms: f64, new_ms: f64) -> f64 {
    if old_ms <= 0.0 {
        return 0.0;
    }
    (old_ms - new_ms) / old_ms * 100.0
}

/// Numeric field of a report, NaN when absent/unparseable (NaN keeps
/// comparisons false, so a malformed report never wins best-of-N).
fn perf_f64(rep: &PerfReport, key: &str) -> f64 {
    rep.get(key)
        .and_then(|v| v.parse().ok())
        .unwrap_or(f64::NAN)
}

/// Ask the (wheel-build) binary for its point list — single source of
/// truth in `hermes-bench::PERF_POINTS`.
fn perf_point_names(root: &Path) -> Result<Vec<String>, String> {
    let out = cargo_run_perf_point(root, &[], &["--list"])?;
    let points: Vec<String> = out
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .map(String::from)
        .collect();
    if points.is_empty() {
        return Err("perf_point --list printed no points".into());
    }
    Ok(points)
}

/// One timed child run; returns the parsed `key=value` report.
fn run_perf_point(
    root: &Path,
    point: &str,
    features: &[&str],
    quick: bool,
) -> Result<PerfReport, String> {
    let mut args = vec!["--point", point];
    if quick {
        args.push("--quick");
    }
    let out = cargo_run_perf_point(root, features, &args)?;
    let rep: PerfReport = out
        .lines()
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    for required in ["scheduler", "wall_ms", "events", "digest"] {
        if !rep.contains_key(required) {
            return Err(format!("report missing `{required}`:\n{out}"));
        }
    }
    Ok(rep)
}

/// `cargo run --release -p hermes-bench [features…] --bin perf_point -- args…`
/// from the workspace root, returning the child's stdout.
fn cargo_run_perf_point(root: &Path, features: &[&str], args: &[&str]) -> Result<String, String> {
    let mut cmd = std::process::Command::new("cargo");
    cmd.current_dir(root)
        .arg("run")
        .arg("--release")
        .arg("-q")
        .args(["-p", "hermes-bench"])
        .args(features)
        .args(["--bin", "perf_point", "--"])
        .args(args);
    let out = cmd.output().map_err(|e| format!("spawning cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "cargo run failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Hand-rolled JSON for `BENCH_perf.json` (the workspace deliberately
/// vendors no serde). All fields come from already-validated reports.
fn perf_json(quick: bool, results: &[(String, Vec<PerfReport>)], digests_ok: bool) -> String {
    let num = |rep: &PerfReport, key: &str| -> String {
        let v = perf_f64(rep, key);
        if v.is_finite() {
            format!("{v}")
        } else {
            "null".to_string()
        }
    };
    let mut points = Vec::new();
    let mut headline = String::from("null");
    for (point, reps) in results {
        let mut sched_objs = Vec::new();
        for rep in reps {
            sched_objs.push(format!(
                concat!(
                    "{{\"scheduler\": \"{}\", \"wall_ms\": {}, \"events\": {}, ",
                    "\"events_per_sec\": {}, \"packets\": {}, \"packets_per_sec\": {}, ",
                    "\"peak_rss_kb\": {}, \"trains_inlined\": {}, \"digest\": \"{}\"}}"
                ),
                rep.get("scheduler").map_or("?", String::as_str),
                num(rep, "wall_ms"),
                num(rep, "events"),
                num(rep, "events_per_sec"),
                num(rep, "packets"),
                num(rep, "packets_per_sec"),
                num(rep, "peak_rss_kb"),
                num(rep, "trains_inlined"),
                rep.get("digest").map_or("?", String::as_str),
            ));
        }
        let improvement = if reps.len() == 2 {
            perf_improvement_pct(perf_f64(&reps[1], "wall_ms"), perf_f64(&reps[0], "wall_ms"))
        } else {
            f64::NAN
        };
        // Wheel-vs-heap peak-RSS ratio (null when RSS was unreadable).
        let rss_ratio_json = if reps.len() == 2 {
            match rss_gate(
                perf_f64(&reps[0], "peak_rss_kb"),
                perf_f64(&reps[1], "peak_rss_kb"),
            ) {
                RssGate::Ok(r) | RssGate::Failed(r) => format!("{r:.3}"),
                RssGate::Skipped(_) => "null".to_string(),
            }
        } else {
            "null".to_string()
        };
        let digest_match = reps
            .windows(2)
            .all(|w| w[0].get("digest") == w[1].get("digest"));
        let improvement_json = if improvement.is_finite() {
            format!("{improvement:.2}")
        } else {
            "null".to_string()
        };
        let obj = format!(
            concat!(
                "    {{\"point\": \"{}\", \"digest_match\": {}, ",
                "\"wall_improvement_pct\": {}, \"rss_ratio\": {}, \"schedulers\": [{}]}}"
            ),
            point,
            digest_match,
            improvement_json,
            rss_ratio_json,
            sched_objs.join(", "),
        );
        if point == PERF_HEADLINE_POINT {
            headline = format!(
                "{{\"point\": \"{point}\", \"wall_improvement_pct\": {improvement_json}, \
                 \"rss_ratio\": {rss_ratio_json}}}"
            );
        }
        points.push(obj);
    }
    format!(
        concat!(
            "{{\n",
            "  \"generated_by\": \"cargo run -p xtask -- perf{}\",\n",
            "  \"mode\": \"{}\",\n",
            "  \"digests_identical_across_schedulers\": {},\n",
            "  \"headline\": {},\n",
            "  \"points\": [\n{}\n  ]\n",
            "}}\n"
        ),
        if quick { " --quick" } else { "" },
        if quick { "quick" } else { "full" },
        digests_ok,
        headline,
        points.join(",\n"),
    )
}

/// The workspace root, two levels above this crate's manifest.
/// `chaos`: replay the committed counterexample corpus, then run a
/// seeded fault-space fuzzing campaign under the degradation SLOs
/// (DESIGN.md §14). `--self-test` proves every SLO checker and the
/// shrinker trip on planted fixtures instead.
fn chaos(args: &[String]) -> ExitCode {
    use hermes_testkit::chaos;

    let mut cfg = chaos::CampaignCfg {
        quick: false,
        ..Default::default()
    };
    let mut json_out: Option<&str> = None;
    let mut emit_shrunk: Option<&str> = None;
    let mut self_test = false;
    let mut skip_corpus = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seeds" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seeds = n,
                None => return chaos_usage("--seeds needs a count"),
            },
            "--seed-base" => match it.next().and_then(|v| v.parse().ok()) {
                Some(n) => cfg.seed_base = n,
                None => return chaos_usage("--seed-base needs a seed"),
            },
            "--recovery-frac" => match it.next().and_then(|v| v.parse().ok()) {
                Some(f) => cfg.slo.recovery_frac = f,
                None => return chaos_usage("--recovery-frac needs a fraction"),
            },
            "--recovery-slack-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => cfg.slo.recovery_slack = hermes_sim::Time::from_ms(ms),
                None => return chaos_usage("--recovery-slack-ms needs a duration"),
            },
            "--stranded-slack-ms" => match it.next().and_then(|v| v.parse().ok()) {
                Some(ms) => cfg.slo.stranded_slack = hermes_sim::Time::from_ms(ms),
                None => return chaos_usage("--stranded-slack-ms needs a duration"),
            },
            "--quick" => cfg.quick = true,
            "--shrink" => cfg.shrink = true,
            "--self-test" => self_test = true,
            "--no-corpus" => skip_corpus = true,
            "--out" => json_out = it.next().map(String::as_str),
            "--emit-shrunk" => emit_shrunk = it.next().map(String::as_str),
            other => return chaos_usage(&format!("unexpected argument `{other}`")),
        }
    }
    if self_test {
        return chaos_self_test();
    }

    // Phase 1: the committed corpus must replay green — every entry is
    // a shrunk counterexample of a since-fixed behavior.
    let corpus_dir = workspace_root().join("tests/chaos/corpus");
    if !skip_corpus && corpus_dir.is_dir() {
        match chaos::replay_corpus(&corpus_dir, &cfg.slo, cfg.quick) {
            Ok(replay) => {
                for v in &replay.violations {
                    eprintln!(
                        "  [REGRESSED] {} {}: {}",
                        v.class.as_str(),
                        v.cell,
                        v.detail
                    );
                }
                if !replay.violations.is_empty() {
                    eprintln!(
                        "xtask chaos: corpus replay FAILED ({} violation(s))",
                        replay.violations.len()
                    );
                    return ExitCode::FAILURE;
                }
                println!(
                    "xtask chaos: corpus replay green ({} entr{})",
                    replay.files.len(),
                    if replay.files.len() == 1 { "y" } else { "ies" }
                );
            }
            Err(e) => {
                eprintln!("xtask chaos: corpus: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    // Phase 2: the sampled campaign.
    let report = chaos::run_campaign(&cfg);
    for o in &report.outcomes {
        println!(
            "  [{}] seed={:<4} plan: {:>2} event(s) ending {}",
            if o.violations.is_empty() {
                "ok"
            } else {
                "VIOLATION"
            },
            o.seed,
            o.plan.len(),
            o.plan.end_time(),
        );
        for v in &o.violations {
            println!("      {} {}: {}", v.class.as_str(), v.cell, v.detail);
        }
        for sh in &o.shrunk {
            println!(
                "      shrunk {} -> {} event(s) in {} eval(s) [{}]",
                sh.from_events,
                sh.plan.len(),
                sh.evals,
                sh.class.as_str()
            );
        }
    }
    if let Some(dir) = emit_shrunk {
        if let Err(e) = write_shrunk(&report, Path::new(dir)) {
            eprintln!("xtask chaos: --emit-shrunk: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(out) = json_out {
        if let Err(e) = fs::write(out, report.to_json()) {
            eprintln!("xtask chaos: writing {out}: {e}");
            return ExitCode::FAILURE;
        }
        println!("xtask chaos: wrote {out}");
    }
    let violations = report.total_violations();
    println!(
        "xtask chaos: {} seed(s), {} violation(s), campaign digest {:#018x}",
        report.outcomes.len(),
        violations,
        report.digest()
    );
    if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Write each shrunk counterexample as a corpus-format TOML file for
/// triage (and, if it earns it, committing to `tests/chaos/corpus/`).
fn write_shrunk(report: &hermes_testkit::chaos::CampaignReport, dir: &Path) -> Result<(), String> {
    use hermes_testkit::chaos;

    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = 0;
    for o in &report.outcomes {
        for sh in &o.shrunk {
            let entry = chaos::CorpusEntry {
                description: format!(
                    "shrunk from seed {} ({} -> {} events); tripped {} in {}",
                    o.seed,
                    sh.from_events,
                    sh.plan.len(),
                    sh.class.as_str(),
                    sh.cell
                ),
                seed: o.seed,
                slo: sh.class.as_str().to_string(),
                lb: sh
                    .cell
                    .rsplit_once('/')
                    .map_or("cross", |(_, lb)| lb)
                    .to_string(),
                plan: sh.plan.clone(),
            };
            let path = dir.join(format!("seed{}-{}.toml", o.seed, sh.class.as_str()));
            fs::write(&path, chaos::plan_to_toml(&entry))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            written += 1;
        }
    }
    println!(
        "xtask chaos: wrote {written} shrunk plan(s) to {}",
        dir.display()
    );
    Ok(())
}

fn chaos_usage(msg: &str) -> ExitCode {
    eprintln!("xtask chaos: {msg}");
    eprintln!(
        "usage: cargo run -p xtask -- chaos [--seeds N] [--seed-base N] [--quick] [--shrink] \
         [--self-test] [--no-corpus] [--recovery-frac F] [--out <json>] [--emit-shrunk <dir>]"
    );
    ExitCode::FAILURE
}

/// Prove every chaos SLO checker and the plan shrinker trip on their
/// planted fixtures (mirrors `conformance --self-test`).
fn chaos_self_test() -> ExitCode {
    let cases = hermes_testkit::chaos::run_chaos_self_test();
    let mut ok = true;
    for case in &cases {
        println!(
            "  [{}] {:<32} {}",
            if case.ok { "ok" } else { "MISSED" },
            case.name,
            case.detail
        );
        ok &= case.ok;
    }
    if ok {
        println!(
            "xtask chaos --self-test: all {} fixtures behaved (checkers trip, shrinker minimizes)",
            cases.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask chaos --self-test: a planted fixture did not trip its checker");
        ExitCode::FAILURE
    }
}

fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_gate_floor_is_a_same_run_relative_bound() {
        // The committed headline improvement sits comfortably above the
        // floor, so a healthy run passes with margin; the floor itself
        // stays well below it so machine noise on the *ratio* (not the
        // absolute wall-clock) is what it takes to trip.
        assert!(perf_improvement_pct(100.0, 80.0) >= PERF_GATE_MIN_IMPROVEMENT_PCT);
        assert!(perf_improvement_pct(100.0, 95.0) < PERF_GATE_MIN_IMPROVEMENT_PCT);
    }

    #[test]
    fn perf_improvement_is_relative_to_the_baseline() {
        assert!((perf_improvement_pct(100.0, 80.0) - 20.0).abs() < 1e-12);
        assert!((perf_improvement_pct(100.0, 125.0) + 25.0).abs() < 1e-12);
        assert_eq!(perf_improvement_pct(0.0, 5.0), 0.0);
    }

    #[test]
    fn perf_json_shape_is_stable() {
        let mk = |sched: &str, wall: &str, digest: &str| -> PerfReport {
            [
                ("scheduler", sched),
                ("wall_ms", wall),
                ("events", "10"),
                ("events_per_sec", "100"),
                ("packets", "5"),
                ("packets_per_sec", "50"),
                ("peak_rss_kb", "1024"),
                ("trains_inlined", "3"),
                ("digest", digest),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
        };
        let results = vec![(
            PERF_HEADLINE_POINT.to_string(),
            vec![mk("wheel", "80", "0xabc"), mk("heap", "100", "0xabc")],
        )];
        let json = perf_json(false, &results, true);
        assert!(json.contains("\"wall_improvement_pct\": 20.00"), "{json}");
        assert!(json.contains("\"digest_match\": true"), "{json}");
        assert!(
            json.contains("\"headline\": {\"point\": \"fig12_baseline\""),
            "{json}"
        );
        assert!(json.contains("\"mode\": \"full\""), "{json}");
        // Equal RSS on both sides → ratio 1.000, in the per-point object
        // and the headline; the per-scheduler rows carry the raw columns.
        assert!(json.contains("\"rss_ratio\": 1.000"), "{json}");
        assert!(json.contains("\"peak_rss_kb\": 1024"), "{json}");
        assert!(json.contains("\"trains_inlined\": 3"), "{json}");
        // A digest split must surface in both the per-point and the
        // top-level flags.
        let split = vec![(
            PERF_HEADLINE_POINT.to_string(),
            vec![mk("wheel", "80", "0xabc"), mk("heap", "100", "0xdef")],
        )];
        let json = perf_json(true, &split, false);
        assert!(json.contains("\"digest_match\": false"), "{json}");
        assert!(
            json.contains("\"digests_identical_across_schedulers\": false"),
            "{json}"
        );
        assert!(json.contains("\"mode\": \"quick\""), "{json}");
    }

    #[test]
    fn rss_gate_passes_skips_and_fails() {
        // Well under the ceiling: ok, with the measured ratio.
        assert_eq!(rss_gate(30_000.0, 19_000.0), RssGate::Ok(30.0 / 19.0));
        // Unavailable on either side (the probe's 0 sentinel or a NaN
        // from a missing report field) skips the check — never fails it.
        assert!(matches!(rss_gate(0.0, 19_000.0), RssGate::Skipped(_)));
        assert!(matches!(rss_gate(30_000.0, 0.0), RssGate::Skipped(_)));
        assert!(matches!(rss_gate(f64::NAN, 19_000.0), RssGate::Skipped(_)));
        // At the ceiling exactly is a failure: the bound is exclusive.
        assert_eq!(rss_gate(38_000.0, 19_000.0), RssGate::Failed(2.0));
        assert!(matches!(
            rss_gate(144_100.0, 19_032.0),
            RssGate::Failed(r) if r > 7.0
        ));
    }

    #[test]
    fn analyzer_runs_clean_via_the_xtask_root() {
        // The path xtask hands to hermes-analyzer must be the same
        // workspace root the analyzer's own tests use, and the tree
        // must be clean through this entry point too.
        let a = hermes_analyzer::analyze_workspace(&workspace_root(), false)
            .expect("analyzable workspace");
        assert!(a.scanned > 0);
        let report: Vec<String> = a
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.text))
            .collect();
        assert!(a.clean(), "findings:\n{}", report.join("\n"));
    }
}
