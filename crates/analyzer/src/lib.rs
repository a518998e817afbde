//! `hermes-analyzer` — token-level determinism & concurrency-readiness
//! analysis for the Hermes workspace (DESIGN.md §13).
//!
//! The simulator's core promise is that a (config, seed) pair fully
//! determines every packet of a run. This crate is the static half of
//! defending that promise: a dependency-free Rust [`lexer`] feeds a
//! scoped [`rules`] engine that knows the workspace layout
//! ([`mod@classify`]), tracks `#[cfg(test)]` regions by brace-matched
//! tokens, honors per-site `// ANALYZER: allow(rule, reason)`
//! suppressions, and diffs the tree's `unsafe` inventory against the
//! committed [`baseline`]. The [`fixtures`] module carries the
//! `--self-test` corpus proving every rule class can both trip and
//! stay quiet.
//!
//! The driver is `cargo run -p xtask -- analyze`; this crate does the
//! work so the checks are also callable from unit tests (the
//! workspace-cleanliness test below is tier-1).

pub mod baseline;
pub mod classify;
pub mod fixtures;
pub mod lexer;
pub mod rules;

use classify::{classify, collect_rs_files, SKIP_CRATES};
use rules::{scan_file, Finding, UnsafeSite};
use std::path::Path;

pub use classify::workspace_root;
pub use rules::{rule_why, RULE_WHY};

/// The result of analyzing a whole workspace tree.
pub struct Analysis {
    /// Rule violations plus baseline drift, sorted by (file, line).
    pub findings: Vec<Finding>,
    /// Every justified `unsafe` site found in the tree.
    pub inventory: Vec<UnsafeSite>,
    /// Files actually scanned (recognized layout, non-skipped crate).
    pub scanned: usize,
    /// Whether `--update-baseline` rewrote the committed file.
    pub baseline_written: bool,
}

impl Analysis {
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Scan every recognized source file under `root`, then reconcile the
/// `unsafe` inventory with `analyzer_baseline.json` — rewriting it when
/// `update_baseline` is set, diffing against it (as findings) when not.
pub fn analyze_workspace(root: &Path, update_baseline: bool) -> Result<Analysis, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files);
    if files.is_empty() {
        return Err(format!("no .rs files under {}", root.display()));
    }
    let mut findings = Vec::new();
    let mut inventory: Vec<UnsafeSite> = Vec::new();
    let mut scanned = 0usize;
    for path in &files {
        let rel = path.strip_prefix(root).unwrap_or(path);
        let Some(class) = classify(rel) else { continue };
        if SKIP_CRATES.contains(&class.krate.as_str()) {
            continue;
        }
        let source = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        scanned += 1;
        let rep = scan_file(&source, &class);
        findings.extend(rep.findings);
        inventory.extend(rep.unsafe_sites);
    }
    inventory.sort();
    let mut baseline_written = false;
    if update_baseline {
        let path = root.join(baseline::BASELINE_FILE);
        std::fs::write(&path, baseline::to_json(&inventory))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        baseline_written = true;
    } else {
        let committed = baseline::load(root)?;
        findings.extend(baseline::diff(&inventory, &committed));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Analysis {
        findings,
        inventory,
        scanned,
        baseline_written,
    })
}

/// The machine-readable report `analyze --json <out>` writes (and CI
/// uploads as an artifact). Hand-rolled JSON; no serde in the tree.
pub fn report_json(a: &Analysis) -> String {
    use baseline::esc;
    let findings: Vec<String> = a
        .findings
        .iter()
        .map(|f| {
            format!(
                "    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"text\": \"{}\"}}",
                esc(&f.file),
                f.line,
                f.rule,
                esc(&f.text)
            )
        })
        .collect();
    let inventory: Vec<String> = a
        .inventory
        .iter()
        .map(|s| {
            format!(
                "    {{\"file\": \"{}\", \"context\": \"{}\", \"safety\": \"{}\"}}",
                esc(&s.file),
                esc(&s.context),
                esc(&s.safety)
            )
        })
        .collect();
    let arr = |v: &[String]| {
        if v.is_empty() {
            String::from("[]")
        } else {
            format!("[\n{}\n  ]", v.join(",\n"))
        }
    };
    format!(
        "{{\n  \"generated_by\": \"cargo run -p xtask -- analyze\",\n  \"files_scanned\": {},\n  \
         \"clean\": {},\n  \"findings\": {},\n  \"unsafe_inventory\": {}\n}}\n",
        a.scanned,
        a.clean(),
        arr(&findings),
        arr(&inventory),
    )
}

/// One fixture's outcome in `analyze --self-test`.
pub struct SelfTestOutcome {
    pub label: String,
    pub ok: bool,
    pub detail: String,
}

/// Run every bad and clean fixture through the real engine. Bad
/// fixtures must trip their rule; clean fixtures must produce zero
/// findings of any rule.
pub fn self_test() -> Vec<SelfTestOutcome> {
    let mut out = Vec::new();
    for f in fixtures::BAD_FIXTURES {
        let class = classify(Path::new(f.path)).expect("fixture path classifies");
        let rep = scan_file(f.src, &class);
        let fired: Vec<&str> = rep.findings.iter().map(|x| x.rule).collect();
        let ok = fired.contains(&f.rule);
        out.push(SelfTestOutcome {
            label: format!("bad [{}] {}", f.rule, f.path),
            ok,
            detail: if ok {
                String::from("tripped")
            } else {
                format!("NOT tripped (fired: {fired:?})")
            },
        });
    }
    for f in fixtures::CLEAN_FIXTURES {
        let class = classify(Path::new(f.path)).expect("fixture path classifies");
        let rep = scan_file(f.src, &class);
        let ok = rep.findings.is_empty();
        out.push(SelfTestOutcome {
            label: format!("clean {} ({})", f.name, f.path),
            ok,
            detail: if ok {
                String::from("quiet")
            } else {
                format!(
                    "false positive: {:?}",
                    rep.findings
                        .iter()
                        .map(|x| (x.rule, x.line))
                        .collect::<Vec<_>>()
                )
            },
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use classify::{FileClass, Kind};

    fn sim_lib_class() -> FileClass {
        classify(Path::new("crates/sim/src/fixture.rs")).expect("classifies")
    }

    /// Differential test for the PR-1 port: the exact bad/clean sources
    /// the regex lint shipped with, scanned as sim library code (where
    /// every legacy rule applies), must behave identically under the
    /// token engine — each bad source fires its rule, each clean source
    /// fires nothing at all.
    #[test]
    fn pr1_regex_lint_fixtures_port_unchanged() {
        const PR1_BAD: &[(&str, &str)] = &[
            ("wall-clock", "fn f() { let _t = std::time::Instant::now(); }\n"),
            ("wall-clock", "fn f() { let _t = SystemTime::now(); }\n"),
            (
                "hash-order",
                "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> u32 { m.len() as u32 }\n",
            ),
            ("stray-rng", "fn f() -> u64 { rand::random() }\n"),
            ("stray-rng", "fn f() { let mut _r = thread_rng(); }\n"),
            ("lib-unwrap", "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n"),
            // PR 1 shipped this one with `set_spine_down`, since made
            // private to hermes-net: the compiler guards it now.
            (
                "fault-mutation",
                "fn f(fab: &mut Fabric, f: SpineFailure) { fab.set_spine_failure(SpineId(0), f); }\n",
            ),
            (
                "fault-mutation",
                "fn f(fab: &mut Fabric, a: &FaultAction) { fab.apply_fault(a); }\n",
            ),
        ];
        const PR1_CLEAN: &[&str] = &[
            "// std::time::Instant::now() is banned here\nfn f() {}\n",
            "fn f() -> &'static str { \"HashMap iteration order\" }\n",
            "/* thread_rng() would break determinism */\nfn f() {}\n",
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { Some(1).unwrap(); }\n}\n",
            "fn lifetime<'a>(x: &'a u64) -> &'a u64 { x }\n",
            "// never call apply_fault directly; schedule it via a FaultPlan\nfn f() {}\n",
        ];
        let class = sim_lib_class();
        for (rule, src) in PR1_BAD {
            let fired: Vec<&str> = scan_file(src, &class)
                .findings
                .iter()
                .map(|f| f.rule)
                .collect();
            assert!(
                fired.contains(rule),
                "[{rule}] not fired (got {fired:?}) on:\n{src}"
            );
        }
        for src in PR1_CLEAN {
            let rep = scan_file(src, &class);
            assert!(
                rep.findings.is_empty(),
                "false positive {:?} on:\n{src}",
                rep.findings.iter().map(|f| f.rule).collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn self_test_fixtures_all_pass() {
        let outcomes = self_test();
        let failed: Vec<String> = outcomes
            .iter()
            .filter(|o| !o.ok)
            .map(|o| format!("{}: {}", o.label, o.detail))
            .collect();
        assert!(
            failed.is_empty(),
            "self-test failures:\n{}",
            failed.join("\n")
        );
        // Every rule class has at least one bad fixture.
        for rule in [
            "wall-clock",
            "hash-order",
            "stray-rng",
            "lib-unwrap",
            "fault-mutation",
            "float-determinism",
            "panic-surface",
            "unsafe-inventory",
            "concurrency-readiness",
            "telemetry-hygiene",
            "allow-syntax",
            "stale-allow",
        ] {
            assert!(
                fixtures::BAD_FIXTURES.iter().any(|f| f.rule == rule),
                "no bad fixture for [{rule}]"
            );
        }
    }

    /// The tier-1 enforcement test: the real tree passes its own
    /// analyzer, and the committed baseline matches the tree's actual
    /// (empty, while `unsafe_code = \"deny\"` stands) unsafe inventory.
    #[test]
    fn whole_workspace_is_clean() {
        let root = workspace_root();
        let a = analyze_workspace(&root, false).expect("analyzable workspace");
        assert!(a.scanned > 0, "workspace sources not found");
        let report: Vec<String> = a
            .findings
            .iter()
            .map(|f| format!("{}:{}: [{}] {}", f.file, f.line, f.rule, f.text))
            .collect();
        assert!(a.clean(), "analyzer findings:\n{}", report.join("\n"));
    }

    /// The tracing layer records *sim* time, and the queue/pool modules
    /// are the hot path: all must be covered by the engine's scopes.
    #[test]
    fn hot_and_telemetry_files_are_covered() {
        for rel in [
            "crates/telemetry/src/lib.rs",
            "crates/sim/src/lanes.rs",
            "crates/net/src/pool.rs",
        ] {
            let class = classify(Path::new(rel)).expect("recognized layout");
            assert!(class.is_sim_crate(), "{rel} must be analyzer-covered");
            assert_eq!(class.kind, Kind::Lib, "{rel} is library code");
        }
        // And a wall-clock read inside telemetry must trip.
        let class = classify(Path::new("crates/telemetry/src/x.rs")).unwrap();
        let rep = scan_file(
            "fn stamp() -> u128 { std::time::Instant::now().elapsed().as_nanos() }\n",
            &class,
        );
        assert!(rep.findings.iter().any(|f| f.rule == "wall-clock"));
    }

    #[test]
    fn report_json_shape() {
        let a = Analysis {
            findings: vec![Finding {
                file: "crates/sim/src/x.rs".into(),
                line: 3,
                rule: "panic-surface",
                text: "v[\"k\"]".into(),
            }],
            inventory: vec![],
            scanned: 7,
            baseline_written: false,
        };
        let json = report_json(&a);
        assert!(json.contains("\"files_scanned\": 7"), "{json}");
        assert!(json.contains("\"clean\": false"), "{json}");
        assert!(json.contains("\"rule\": \"panic-surface\""), "{json}");
        assert!(json.contains("v[\\\"k\\\"]"), "escaped quote: {json}");
        assert!(json.contains("\"unsafe_inventory\": []"), "{json}");
        let clean = Analysis {
            findings: vec![],
            inventory: vec![],
            scanned: 7,
            baseline_written: false,
        };
        assert!(report_json(&clean).contains("\"clean\": true"));
    }

    #[test]
    fn every_rule_has_a_why() {
        for f in fixtures::BAD_FIXTURES {
            assert!(!rule_why(f.rule).is_empty(), "[{}] has no why text", f.rule);
        }
    }
}
