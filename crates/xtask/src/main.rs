//! Workspace tasks. Subcommands:
//!
//! * `cargo run -p xtask -- conformance [--self-test]` — run the full
//!   scenario conformance grid (`tests/scenarios/`, the extended
//!   directory and the chaos corpus `tests/chaos/corpus/`) through
//!   `hermes-testkit`, or prove each checker class fails on its
//!   deliberately-broken fixture and none fails on an honest chaos
//!   campaign cell;
//! * `cargo run -p xtask -- bless` — regenerate the golden stores (event-
//!   trace digests and flow-record hashes) after an intended change, and
//!   report how many cells moved in each;
//! * `cargo run -p xtask -- chaos [--seeds N] [--quick] [--shrink]` —
//!   the chaos campaign engine (DESIGN.md §14): sample N seeded fault
//!   plans from the full fault grammar and judge hermes/conga/ecmp with
//!   the conformance checkers, the graceful-degradation SLOs among
//!   them; `--shrink` delta-debugs failing plans to minimal
//!   counterexamples (`--emit-shrunk <dir>` writes them as scenario
//!   files), and `--recovery-frac` tightens the recovery SLO for corpus
//!   mining.
//!
//! An unknown argument, a flag without its value, or a chaos seed range
//! past `u64::MAX` is a usage error (exit code 2).
//!
//! Capturing a point's telemetry trace needs no task: the layer is
//! always compiled in, so it is `cargo run --release --bin hermes-cli
//! -- <point flags or --point NAME> --trace <dir>` (DESIGN.md §12).
//!
//! The source-level determinism rules (no wall clock, no hash-order
//! iteration, no threads or locks in the simulation, no unscheduled
//! fault mutation) are compiler lints, set in the root `clippy.toml`
//! and `[workspace.lints]` and gated by `cargo clippy -- -D warnings`
//! (DESIGN.md §13).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: cargo run -p xtask -- <conformance [--self-test] | bless | \
                     chaos [--seeds N] [--seed-base N] [--quick] [--shrink] \
                     [--recovery-frac F] [--recovery-slack-ms MS] [--stranded-slack-ms MS] \
                     [--out <json>] [--emit-shrunk <dir>]>";

fn usage(msg: &str) -> ExitCode {
    eprintln!("xtask: {msg}\n{USAGE}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((cmd, rest)) => (cmd.as_str(), rest),
        None => return usage("no subcommand"),
    };
    match (cmd, rest) {
        ("conformance", []) => conformance(),
        ("conformance", [flag]) if flag == "--self-test" => conformance_self_test(),
        ("bless", []) => bless_goldens(),
        ("chaos", _) => chaos(rest),
        ("conformance" | "bless", [arg, ..]) => {
            usage(&format!("{cmd}: unexpected argument `{arg}`"))
        }
        _ => usage(&format!("unknown subcommand `{cmd}`")),
    }
}

/// The scenario directories: the tier-1 grid first, then the extended
/// grid that only this subcommand (not `tests/conformance.rs`) runs,
/// then the chaos corpus.
fn scenario_dirs() -> Vec<PathBuf> {
    let root = workspace_root();
    vec![
        root.join("tests/scenarios"),
        root.join("tests/scenarios/extended"),
        root.join("tests/chaos/corpus"),
    ]
}

/// Run the full conformance grid (every scenario directory) and print
/// per-LB FCT summaries for every scenario.
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

/// Prove each checker class actually fails on its deliberately-broken
/// fixture, and none on the honest one.
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
        let passed = case.passed();
        println!(
            "  [{}] {:<55} {}",
            if passed { "ok" } else { "MISSED" },
            case.name,
            case.failures
                .first()
                .map_or_else(|| "(no failure reported)".to_string(), ToString::to_string)
        );
        ok &= passed;
    }
    if ok {
        println!(
            "xtask conformance --self-test: all {} fixtures tripped their checker class, \
             or nothing if honest",
            cases.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("xtask conformance --self-test: a checker class failed to fail, or fired on an honest run");
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

/// `chaos`: a seeded fault-space fuzzing campaign judged by the
/// conformance checkers, the degradation SLOs among them (DESIGN.md §14).
fn chaos(args: &[String]) -> ExitCode {
    use hermes_sim::Time;
    use hermes_testkit::chaos;

    let mut cfg = chaos::CampaignCfg::default();
    let mut json_out: Option<&str> = None;
    let mut emit_shrunk: Option<&str> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--quick" => cfg.quick = true,
            "--shrink" => cfg.shrink = true,
            _ => {
                // A flag's value: the next argument, unless it is a flag.
                let value = it
                    .next()
                    .map(String::as_str)
                    .filter(|v| !v.starts_with("--"));
                let set = match flag.as_str() {
                    "--seeds" => value.and_then(|v| v.parse().ok()).map(|n| cfg.seeds = n),
                    "--seed-base" => value
                        .and_then(|v| v.parse().ok())
                        .map(|n| cfg.seed_base = n),
                    "--recovery-frac" => value
                        .and_then(|v| v.parse().ok())
                        .map(|f| cfg.slo.recovery_frac = f),
                    "--recovery-slack-ms" => value
                        .and_then(|v| v.parse().ok())
                        .map(|ms| cfg.slo.recovery_slack = Time::from_ms(ms)),
                    "--stranded-slack-ms" => value
                        .and_then(|v| v.parse().ok())
                        .map(|ms| cfg.slo.stranded_slack = Time::from_ms(ms)),
                    "--out" => value.map(|v| json_out = Some(v)),
                    "--emit-shrunk" => value.map(|v| emit_shrunk = Some(v)),
                    other => return usage(&format!("chaos: unexpected argument `{other}`")),
                };
                if set.is_none() {
                    return usage(&format!("chaos: `{flag}` needs a valid value"));
                }
            }
        }
    }
    let last_seed = cfg.seed_base.checked_add(cfg.seeds.saturating_sub(1));
    if last_seed.is_none() {
        return usage("chaos: the seeds overflow 64 bits (--seed-base plus --seeds)");
    }

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
            println!("      {v}");
        }
        for sh in &o.shrunk {
            println!(
                "      shrunk {} -> {} event(s) in {} eval(s) [{}]",
                sh.from_events,
                sh.plan.len(),
                sh.evals,
                sh.class
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

/// Write each shrunk counterexample as a scenario file for triage (and,
/// if it earns it, committing to `tests/chaos/corpus/`).
fn write_shrunk(report: &hermes_testkit::chaos::CampaignReport, dir: &Path) -> Result<(), String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let files = report.shrunk_scenarios();
    for (name, text) in &files {
        let path = dir.join(name);
        fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    println!(
        "xtask chaos: wrote {} shrunk scenario(s) to {}",
        files.len(),
        dir.display()
    );
    Ok(())
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
