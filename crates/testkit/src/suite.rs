//! Directory-level orchestration: load a scenario directory, run the
//! full grid, apply every checker, and (for the bless flow) regenerate
//! the golden stores.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use hermes_workload::records_hash;

use crate::chaos::SloCfg;
use crate::check::{check_scenario, format_store, parse_store, Failure, Goldens};
use crate::run::{run_grid, RunOutcome};
use crate::spec::{load_dir, ScenarioSpec, SpecError};

/// The event-trace digest store lives next to the scenarios it pins.
pub const DIGESTS_FILE: &str = "digests.toml";
/// The flow-record hash store lives beside it.
pub const RECORDS_FILE: &str = "records.toml";

/// `(file, table, header)` of each golden store.
const DIGESTS_STORE: (&str, &str, &str) = (
    DIGESTS_FILE,
    "digests",
    "# Golden event-trace digests for pinned (scenario, lb, seed) cells.\n\
     # Regenerate with `cargo run -p xtask -- bless` after intended\n\
     # behavior changes; see DESIGN.md section 10.\n\n[digests]\n",
);
const RECORDS_STORE: (&str, &str, &str) = (
    RECORDS_FILE,
    "records",
    "# Golden flow-record hashes (hermes_workload::records_hash) for pinned\n\
     # (scenario, lb, seed) cells. `digests.toml` may move while this file\n\
     # holds; this file moves only with a behaviour change. Regenerate with\n\
     # `cargo run -p xtask -- bless`; see DESIGN.md section 10.\n\n[records]\n",
);

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

/// Load the golden stores that sit next to a scenario directory's
/// specs. A missing file is an empty store (pinned scenarios will then
/// fail with a pointer to the bless flow).
pub fn load_goldens(dir: &Path) -> Result<Goldens, SpecError> {
    Ok(Goldens {
        digests: load_store(dir, DIGESTS_STORE)?,
        records: load_store(dir, RECORDS_STORE)?,
    })
}

fn load_store(
    dir: &Path,
    (file, table, _): (&str, &str, &str),
) -> Result<BTreeMap<String, u64>, SpecError> {
    let path = dir.join(file);
    if !path.exists() {
        return Ok(BTreeMap::new());
    }
    let err = |msg| SpecError {
        file: path.display().to_string(),
        msg,
    };
    let src = std::fs::read_to_string(&path).map_err(|e| err(format!("read failed: {e}")))?;
    parse_store(&src, table).map_err(err)
}

fn write_store(
    dir: &Path,
    (file, _, header): (&str, &str, &str),
    store: &BTreeMap<String, u64>,
) -> Result<(), SpecError> {
    let path = dir.join(file);
    std::fs::write(&path, format_store(header, store)).map_err(|e| SpecError {
        file: path.display().to_string(),
        msg: format!("write failed: {e}"),
    })
}

/// Run every scenario in `dir` across its grid and judge each with
/// [`check_scenario`] (the workload-specific classes are no-ops on other
/// kinds; the SLOs run at their defaults).
pub fn run_conformance(dir: &Path) -> Result<ConformanceReport, SpecError> {
    let scenarios = load_dir(dir)?;
    if scenarios.is_empty() {
        return Err(SpecError {
            file: dir.display().to_string(),
            msg: "no scenario files found".to_string(),
        });
    }
    let goldens = load_goldens(dir)?;
    let outcomes = run_grid(&scenarios);
    let mut failures = Vec::new();
    for (si, spec) in scenarios.iter().enumerate() {
        let mine: Vec<&RunOutcome> = outcomes.iter().filter(|o| o.scenario == si).collect();
        failures.extend(check_scenario(spec, &mine, &goldens, &SloCfg::default()));
    }
    Ok(ConformanceReport {
        scenarios,
        outcomes,
        failures,
    })
}

/// What [`bless`] rewrote: the pinned cells, and how many of them moved
/// in each store against the stores it replaced (a cell new to a store
/// counts as moved).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlessReport {
    pub cells: usize,
    pub digests_moved: usize,
    pub records_moved: usize,
}

/// Re-run every pinned cell in `dir` and rewrite both golden stores
/// wholesale.
pub fn bless(dir: &Path) -> Result<BlessReport, SpecError> {
    let scenarios = load_dir(dir)?;
    let old = load_goldens(dir)?;
    let outcomes = run_grid(&scenarios);
    let mut new = Goldens::default();
    for out in &outcomes {
        let spec = &scenarios[out.scenario];
        if spec.pin_digests {
            let key = spec.digest_key(out.lb_idx, out.seed);
            new.digests.insert(key.clone(), out.result.digest);
            new.records.insert(key, records_hash(&out.result.records));
        }
    }
    write_store(dir, DIGESTS_STORE, &new.digests)?;
    write_store(dir, RECORDS_STORE, &new.records)?;
    let moved = |new: &BTreeMap<String, u64>, old: &BTreeMap<String, u64>| {
        new.iter().filter(|&(k, v)| old.get(k) != Some(v)).count()
    };
    Ok(BlessReport {
        cells: new.digests.len(),
        digests_moved: moved(&new.digests, &old.digests),
        records_moved: moved(&new.records, &old.records),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

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
        let report = run_conformance(&dir).expect("runs");
        assert!(report.passed(), "{report}");
        // Pinned but unblessed: digest checker demands a bless.
        fs::write(dir.join("smoke.toml"), SCENARIO).expect("write scenario");
        let report = run_conformance(&dir).expect("runs");
        assert!(!report.passed());
        assert!(report.failures.iter().all(|f| f.detail.contains("bless")));
        // Bless, then the same grid passes.
        let blessed = bless(&dir).expect("blesses");
        assert_eq!(
            blessed,
            BlessReport {
                cells: 2,
                digests_moved: 2,
                records_moved: 2
            }
        );
        assert!(dir.join(DIGESTS_FILE).exists() && dir.join(RECORDS_FILE).exists());
        let report = run_conformance(&dir).expect("runs");
        assert!(report.passed(), "{report}");
        // Re-blessing an unchanged tree moves nothing.
        let again = bless(&dir).expect("blesses");
        assert_eq!((again.digests_moved, again.records_moved), (0, 0));
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
