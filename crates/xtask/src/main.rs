//! Workspace tasks. Subcommands:
//!
//! * `cargo run -p xtask -- conformance [--self-test]` — run the full
//!   scenario conformance grid (`tests/scenarios/` plus the extended
//!   directory) through `hermes-testkit`, or prove each checker class
//!   fails on its deliberately-broken fixture;
//! * `cargo run -p xtask -- bless` — regenerate the golden stores (event-
//!   trace digests and flow-record hashes) after an intended change, and
//!   report how many cells moved in each;
//! * `cargo run -p xtask -- trace <point> --out <dir>` — rebuild
//!   `hermes-bench` with the `telemetry` feature and capture one named
//!   point's event trace and cadence-sampled metrics (DESIGN.md §12);
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
//! The source-level determinism rules (no wall clock, no hash-order
//! iteration, no threads or locks in the simulation, no unscheduled
//! fault mutation) are compiler lints, set in the root `clippy.toml`
//! and `[workspace.lints]` and gated by `cargo clippy -- -D warnings`
//! (DESIGN.md §13).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("conformance") => {
            if args.iter().any(|a| a == "--self-test") {
                return conformance_self_test();
            }
            conformance()
        }
        Some("bless") => bless_goldens(),
        Some("trace") => trace(&args[1..]),
        Some("chaos") => chaos(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <conformance [--self-test] | bless | \
                 trace <point> --out <dir> | chaos [--seeds N] [--seed-base N] [--quick] \
                 [--shrink] [--self-test] [--no-corpus] [--recovery-frac F] [--out <json>] \
                 [--emit-shrunk <dir>]>"
            );
            ExitCode::FAILURE
        }
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
        let report = match hermes_testkit::run_conformance(&dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask conformance: {e}");
                return ExitCode::FAILURE;
            }
        };
        // Per-(scenario, lb) mean FCTs over seeds — the numbers the
        // envelope tolerances in the specs are calibrated against.
        for (si, spec) in report.scenarios.iter().enumerate() {
            for (li, (lb, _)) in spec.lbs.iter().enumerate() {
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
                    lb,
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

/// Regenerate the golden stores (`digests.toml`, `records.toml`) for
/// every scenario directory that pins digests, and say how many cells
/// moved in each: a digest that moves while its records hold is an
/// event-order change, a moved record is a behaviour change.
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
        match hermes_testkit::bless(&dir) {
            Ok(r) => println!(
                "bless: wrote {} pinned cell(s) to {}/{{{},{}}}: {} digest(s) moved, \
                 {} record hash(es) moved",
                r.cells,
                dir.display(),
                hermes_testkit::DIGESTS_FILE,
                hermes_testkit::RECORDS_FILE,
                r.digests_moved,
                r.records_moved
            ),
            Err(e) => {
                eprintln!("xtask bless: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

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

/// The workspace root, two levels above this crate's manifest.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("crates/xtask sits two levels below the workspace root")
        .to_path_buf()
}
