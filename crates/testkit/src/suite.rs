//! Directory-level orchestration: load a scenario directory, run the
//! full grid, apply every checker, and (for the bless flow) regenerate
//! the golden-digest store.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::check::{
    check_digests, check_envelopes, check_incast_floor, check_invariants, check_ring_steps,
    format_digests, parse_digests, Failure,
};
use crate::run::{run_grid, RunOutcome};
use crate::spec::{load_dir, ScenarioSpec, SpecError};

/// The golden store lives next to the scenarios it pins.
pub const DIGESTS_FILE: &str = "digests.toml";

/// The outcome of one conformance pass over a scenario directory.
pub struct ConformanceReport {
    pub scenarios: Vec<ScenarioSpec>,
    pub outcomes: Vec<RunOutcome>,
    pub failures: Vec<Failure>,
}

impl ConformanceReport {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Grid cells executed.
    pub fn cells(&self) -> usize {
        self.outcomes.len()
    }
}

impl fmt::Display for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "conformance: {} scenario(s), {} cell(s), {} failure(s)",
            self.scenarios.len(),
            self.cells(),
            self.failures.len()
        )?;
        for spec in &self.scenarios {
            let n = self
                .outcomes
                .iter()
                .filter(|o| self.scenarios[o.scenario].name == spec.name)
                .count();
            writeln!(
                f,
                "  {:<14} {} lb(s) x {} seed(s) = {} cell(s){}",
                spec.name,
                spec.lbs.len(),
                spec.seeds.len(),
                n,
                if spec.pin_digests { " [pinned]" } else { "" }
            )?;
        }
        for fail in &self.failures {
            writeln!(f, "  FAIL {fail}")?;
        }
        Ok(())
    }
}

/// Load the goldens that sit next to a scenario directory's specs.
/// A missing file is an empty store (pinned scenarios will then fail
/// with a pointer to the bless flow).
pub fn load_goldens(dir: &Path) -> Result<BTreeMap<String, u64>, SpecError> {
    let path = dir.join(DIGESTS_FILE);
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let src = std::fs::read_to_string(&path).map_err(|e| SpecError {
        file: path.display().to_string(),
        msg: format!("read failed: {e}"),
    })?;
    parse_digests(&src).map_err(|msg| SpecError {
        file: path.display().to_string(),
        msg,
    })
}

/// Run every scenario in `dir` across its grid and apply all five
/// checker classes (the workload-specific ones are no-ops on other
/// kinds). `threads = 0` uses every available core.
pub fn run_conformance(dir: &Path, threads: usize) -> Result<ConformanceReport, SpecError> {
    let scenarios = load_dir(dir)?;
    if scenarios.is_empty() {
        return Err(SpecError {
            file: dir.display().to_string(),
            msg: "no scenario files found".to_string(),
        });
    }
    let goldens = load_goldens(dir)?;
    let outcomes = run_grid(&scenarios, threads);
    let mut failures = Vec::new();
    for (si, spec) in scenarios.iter().enumerate() {
        let mine: Vec<&RunOutcome> = outcomes.iter().filter(|o| o.scenario == si).collect();
        for out in &mine {
            failures.extend(check_invariants(spec, out));
            failures.extend(check_ring_steps(spec, out));
            failures.extend(check_incast_floor(spec, out));
        }
        failures.extend(check_digests(spec, &mine, &goldens));
        failures.extend(check_envelopes(spec, &mine));
    }
    Ok(ConformanceReport {
        scenarios,
        outcomes,
        failures,
    })
}

/// Re-run every pinned cell in `dir` and rewrite its golden store
/// wholesale. Returns the number of pinned cells and the store path.
pub fn bless(dir: &Path, threads: usize) -> Result<(usize, PathBuf), SpecError> {
    let scenarios = load_dir(dir)?;
    let outcomes = run_grid(&scenarios, threads);
    let mut goldens = BTreeMap::new();
    for out in &outcomes {
        let spec = &scenarios[out.scenario];
        if spec.pin_digests {
            goldens.insert(spec.digest_key(out.lb_idx, out.seed), out.result.digest);
        }
    }
    let path = dir.join(DIGESTS_FILE);
    std::fs::write(&path, format_digests(&goldens)).map_err(|e| SpecError {
        file: path.display().to_string(),
        msg: format!("write failed: {e}"),
    })?;
    Ok((goldens.len(), path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("hermes-testkit-{tag}-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    const SCENARIO: &str = r#"
        pin_digests = true
        [topology]
        kind = "testbed"
        [workload]
        dist = "web_search"
        load = 0.3
        flows = 25
        [run]
        seeds = [1, 2]
        lbs = ["ecmp"]
        drain_ms = 1000
    "#;

    #[test]
    fn bless_then_conformance_roundtrip() {
        let dir = scratch_dir("bless");
        fs::write(dir.join("smoke.toml"), SCENARIO).expect("write scenario");
        // Unpinned, unblessed: digest checker stays silent.
        fs::write(
            dir.join("smoke.toml"),
            SCENARIO.replace("pin_digests = true", "pin_digests = false"),
        )
        .expect("write scenario");
        let report = run_conformance(&dir, 2).expect("runs");
        assert!(report.passed(), "{report}");
        // Pinned but unblessed: digest checker demands a bless.
        fs::write(dir.join("smoke.toml"), SCENARIO).expect("write scenario");
        let report = run_conformance(&dir, 2).expect("runs");
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.detail.contains("bless")));
        // Bless, then the same grid passes.
        let (n, path) = bless(&dir, 2).expect("blesses");
        assert_eq!(n, 2);
        assert!(path.ends_with(DIGESTS_FILE));
        let report = run_conformance(&dir, 2).expect("runs");
        assert!(report.passed(), "{report}");
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
