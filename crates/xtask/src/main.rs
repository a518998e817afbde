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
//! An unknown argument, a flag without its value, `--seeds 0` or a chaos
//! seed range past `u64::MAX` is a usage error (exit code 2). Output goes
//! through one locked stdout; when the reader closes it (`| head`),
//! xtask stops quietly with exit code 0.
//!
//! Capturing a point's telemetry trace needs no task: the layer is
//! always compiled in, so it is `cargo run --release --bin hermes-cli
//! -- <FILE.toml or --point NAME> --trace <dir>` (DESIGN.md §12).
//!
//! The source-level determinism rules (no wall clock, no hash-order
//! iteration, no threads or locks in the simulation, no unscheduled
//! fault mutation) are compiler lints, set in the root `clippy.toml`
//! and `[workspace.lints]` and gated by `cargo clippy -- -D warnings`
//! (DESIGN.md §13).

use std::fs;
use std::io::{self, ErrorKind, Write};
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
    let out = &mut io::stdout().lock();
    let run = match (cmd, rest) {
        ("conformance", []) => conformance(out),
        ("conformance", [flag]) if flag == "--self-test" => conformance_self_test(out),
        ("bless", []) => bless_goldens(out),
        ("chaos", _) => chaos(out, rest),
        ("conformance" | "bless", [arg, ..]) => {
            return usage(&format!("{cmd}: unexpected argument `{arg}`"))
        }
        _ => return usage(&format!("unknown subcommand `{cmd}`")),
    };
    // A closed stdout wants no more output, as with the shell's own
    // tools: stop quietly. Any other write error is a failure.
    match run.and_then(|code| out.flush().map(|()| code)) {
        Ok(code) => code,
        Err(e) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xtask: writing stdout: {e}");
            ExitCode::FAILURE
        }
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
fn conformance(out: &mut impl Write) -> io::Result<ExitCode> {
    let mut ok = true;
    for dir in scenario_dirs() {
        writeln!(out, "== {} ==", dir.display())?;
        let report = match hermes_testkit::run_conformance(&dir) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("xtask conformance: {e}");
                return Ok(ExitCode::FAILURE);
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
                writeln!(
                    out,
                    "  {:<14} {:<10} avg {:>9.3} ms  p99 {:>9.3} ms  unfinished {}",
                    spec.name,
                    lb,
                    avg * 1e3,
                    p99 * 1e3,
                    unfinished
                )?;
            }
        }
        write!(out, "{report}")?;
        ok &= report.passed();
    }
    if ok {
        writeln!(out, "xtask conformance: PASS")?;
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("xtask conformance: FAIL");
        Ok(ExitCode::FAILURE)
    }
}

/// Prove each checker class actually fails on its deliberately-broken
/// fixture, and none on the honest one.
fn conformance_self_test(out: &mut impl Write) -> io::Result<ExitCode> {
    let cases = match hermes_testkit::run_self_test() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("xtask conformance --self-test: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    let mut ok = true;
    for case in &cases {
        let passed = case.passed();
        writeln!(
            out,
            "  [{}] {:<55} {}",
            if passed { "ok" } else { "MISSED" },
            case.name,
            case.failures
                .first()
                .map_or_else(|| "(no failure reported)".to_string(), ToString::to_string)
        )?;
        ok &= passed;
    }
    if ok {
        writeln!(
            out,
            "xtask conformance --self-test: all {} fixtures tripped their checker class, \
             or nothing if honest",
            cases.len()
        )?;
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("xtask conformance --self-test: a checker class failed to fail, or fired on an honest run");
        Ok(ExitCode::FAILURE)
    }
}

/// Regenerate the golden stores (`digests.toml`, `records.toml`) for
/// every scenario directory that pins digests, and say how many cells
/// moved in each: a digest that moves while its records hold is an
/// event-order change, a moved record is a behaviour change.
fn bless_goldens(out: &mut impl Write) -> io::Result<ExitCode> {
    for dir in scenario_dirs() {
        let specs = match hermes_testkit::load_dir(&dir) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("xtask bless: {e}");
                return Ok(ExitCode::FAILURE);
            }
        };
        if !specs.iter().any(|s| s.pin_digests) {
            writeln!(
                out,
                "bless: {} has no pinned scenarios, skipped",
                dir.display()
            )?;
            continue;
        }
        match hermes_testkit::bless(&dir) {
            Ok(r) => writeln!(
                out,
                "bless: wrote {} pinned cell(s) to {}/{{{},{}}}: {} digest(s) moved, \
                 {} record hash(es) moved",
                r.cells,
                dir.display(),
                hermes_testkit::DIGESTS_FILE,
                hermes_testkit::RECORDS_FILE,
                r.digests_moved,
                r.records_moved
            )?,
            Err(e) => {
                eprintln!("xtask bless: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// `chaos`: a seeded fault-space fuzzing campaign judged by the
/// conformance checkers, the degradation SLOs among them (DESIGN.md §14).
fn chaos(out: &mut impl Write, args: &[String]) -> io::Result<ExitCode> {
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
                    other => return Ok(usage(&format!("chaos: unexpected argument `{other}`"))),
                };
                if set.is_none() {
                    return Ok(usage(&format!("chaos: `{flag}` needs a valid value")));
                }
            }
        }
    }
    if cfg.seeds == 0 {
        return Ok(usage("chaos: --seeds 0 runs no cell; give at least 1"));
    }
    if cfg.seed_base.checked_add(cfg.seeds - 1).is_none() {
        return Ok(usage(
            "chaos: the seeds overflow 64 bits (--seed-base plus --seeds)",
        ));
    }

    let report = chaos::run_campaign(&cfg);
    for o in &report.outcomes {
        writeln!(
            out,
            "  [{}] seed={:<4} plan: {:>2} event(s) ending {}",
            if o.violations.is_empty() {
                "ok"
            } else {
                "VIOLATION"
            },
            o.seed,
            o.plan.len(),
            o.plan.end_time(),
        )?;
        for v in &o.violations {
            writeln!(out, "      {v}")?;
        }
        for sh in &o.shrunk {
            writeln!(
                out,
                "      shrunk {} -> {} event(s) in {} eval(s) [{}]",
                sh.from_events,
                sh.plan.len(),
                sh.evals,
                sh.class
            )?;
        }
    }
    if let Some(dir) = emit_shrunk {
        match write_shrunk(&report, Path::new(dir)) {
            Ok(n) => writeln!(out, "xtask chaos: wrote {n} shrunk scenario(s) to {dir}")?,
            Err(e) => {
                eprintln!("xtask chaos: --emit-shrunk: {e}");
                return Ok(ExitCode::FAILURE);
            }
        }
    }
    if let Some(path) = json_out {
        if let Err(e) = fs::write(path, report.to_json()) {
            eprintln!("xtask chaos: writing {path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
        writeln!(out, "xtask chaos: wrote {path}")?;
    }
    let violations = report.total_violations();
    writeln!(
        out,
        "xtask chaos: {} seed(s), {} violation(s), campaign digest {:#018x}",
        report.outcomes.len(),
        violations,
        report.digest()
    )?;
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Write each shrunk counterexample as a scenario file for triage (and,
/// if it earns it, committing to `tests/chaos/corpus/`); returns how
/// many it wrote.
fn write_shrunk(
    report: &hermes_testkit::chaos::CampaignReport,
    dir: &Path,
) -> Result<usize, String> {
    fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let files = report.shrunk_scenarios();
    for (name, text) in &files {
        let path = dir.join(name);
        fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    Ok(files.len())
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
