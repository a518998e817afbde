//! The committed counterexample corpus.
//!
//! Every plan the chaos campaign ever shrank to a minimal
//! counterexample is committed under `tests/chaos/corpus/` as a small
//! TOML file — the plan itself plus the seed, the SLO class it
//! originally tripped, and a human description of what it caught.
//! CI replays the whole corpus on every push: each entry must run
//! *green* under the current SLO defaults, turning yesterday's
//! failures into tomorrow's regression tests (entries are mined with
//! deliberately strict thresholds or against since-fixed bugs; see
//! DESIGN.md §14).
//!
//! The format round-trips exactly — `entry_from_toml(plan_to_toml(e))`
//! reproduces the same [`FaultPlan`] value — which the property tests
//! in `tests/properties.rs` pin down across the whole sampled grammar.

use std::fs;
use std::path::Path;

use hermes_net::{Blackhole, FaultAction, FaultPlan, LeafId, SpineFailure, SpineId};
use hermes_sim::Time;

use super::slo::{check_cell, SloCfg, SloViolation};
use crate::toml::{self, Table, Value};

/// One corpus file: a shrunk plan plus its provenance.
#[derive(Clone, Debug, PartialEq)]
pub struct CorpusEntry {
    /// What this counterexample caught, in one sentence.
    pub description: String,
    /// Workload seed the violation reproduced under.
    pub seed: u64,
    /// SLO class originally tripped (stable name, see
    /// [`super::slo::SloClass::as_str`]).
    pub slo: String,
    /// Cell the violation was observed in (`hermes`, `conga`, `ecmp`,
    /// or `cross` for cross-LB checks).
    pub lb: String,
    pub plan: FaultPlan,
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Serialize one entry to the corpus TOML format.
pub fn plan_to_toml(entry: &CorpusEntry) -> String {
    let mut out = String::new();
    out.push_str("# Shrunk chaos counterexample; replayed by `xtask chaos` and CI.\n");
    out.push_str(&format!("description = \"{}\"\n", esc(&entry.description)));
    out.push_str(&format!("seed = {}\n", entry.seed));
    out.push_str(&format!("slo = \"{}\"\n", esc(&entry.slo)));
    out.push_str(&format!("lb = \"{}\"\n", esc(&entry.lb)));
    for ev in entry.plan.events() {
        out.push_str("\n[[event]]\n");
        out.push_str(&format!("at_ns = {}\n", ev.at.as_ns()));
        out.push_str(&action_to_toml(&ev.action));
    }
    out
}

fn action_to_toml(a: &FaultAction) -> String {
    let mut s = format!("kind = \"{}\"\n", a.kind());
    match *a {
        FaultAction::SetSpineFailure { spine, failure } => {
            s.push_str(&format!(
                "spine = {}\nrandom_drop = {:?}\n",
                spine.0, failure.random_drop
            ));
            if let Some(bh) = failure.blackhole {
                s.push_str(&format!(
                    "bh_src_leaf = {}\nbh_dst_leaf = {}\nbh_pair_fraction = {:?}\n",
                    bh.src_leaf.0, bh.dst_leaf.0, bh.pair_fraction
                ));
            }
            if let Some(fb) = failure.flow_blackhole {
                s.push_str(&format!("victim_fraction = {:?}\n", fb.victim_fraction));
            }
            if failure.ecn_mute {
                s.push_str("ecn_mute = true\n");
            }
        }
        FaultAction::FlowBlackhole {
            spine,
            victim_fraction,
        } => s.push_str(&format!(
            "spine = {}\nvictim_fraction = {:?}\n",
            spine.0, victim_fraction
        )),
        FaultAction::ClearSpineFailure { spine }
        | FaultAction::EcnMute { spine }
        | FaultAction::EcnUnmute { spine }
        | FaultAction::SpineDown { spine }
        | FaultAction::SpineUp { spine } => s.push_str(&format!("spine = {}\n", spine.0)),
        FaultAction::LinkDown { leaf, spine }
        | FaultAction::LinkUp { leaf, spine }
        | FaultAction::RestoreLinkRate { leaf, spine } => {
            s.push_str(&format!("leaf = {}\nspine = {}\n", leaf.0, spine.0));
        }
        FaultAction::SetLinkRate {
            leaf,
            spine,
            rate_bps,
        } => s.push_str(&format!(
            "leaf = {}\nspine = {}\nrate_bps = {}\n",
            leaf.0, spine.0, rate_bps
        )),
    }
    s
}

fn str_field(t: &Table, key: &str) -> Result<String, String> {
    t.get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

fn int_field(t: &Table, key: &str) -> Result<i64, String> {
    t.get(key)
        .and_then(Value::as_int)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

fn float_field(t: &Table, key: &str) -> Result<f64, String> {
    t.get(key)
        .and_then(Value::as_float)
        .ok_or_else(|| format!("missing or non-float `{key}`"))
}

/// An integer key narrowed to the unsigned type its field has; a
/// negative or too-wide value is an error naming the key, never a wrap.
fn uint_field<T: TryFrom<i64>>(t: &Table, key: &str) -> Result<T, String> {
    let v = int_field(t, key)?;
    T::try_from(v).map_err(|_| format!("`{key}` = {v} is out of range"))
}

fn action_from_table(t: &Table) -> Result<FaultAction, String> {
    let kind = str_field(t, "kind")?;
    // Every kind names a spine; the link-level ones a leaf as well.
    let spine = SpineId(uint_field(t, "spine")?);
    let leaf = || uint_field(t, "leaf").map(LeafId);
    Ok(match kind.as_str() {
        "set_spine_failure" => {
            let mut failure = SpineFailure {
                random_drop: float_field(t, "random_drop")?,
                ..SpineFailure::default()
            };
            if t.contains_key("bh_src_leaf") {
                failure.blackhole = Some(Blackhole {
                    src_leaf: LeafId(uint_field(t, "bh_src_leaf")?),
                    dst_leaf: LeafId(uint_field(t, "bh_dst_leaf")?),
                    pair_fraction: float_field(t, "bh_pair_fraction")?,
                });
            }
            if t.contains_key("victim_fraction") {
                failure = failure.with_flow_blackhole(float_field(t, "victim_fraction")?);
            }
            if let Some(m) = t.get("ecn_mute").and_then(Value::as_bool) {
                failure = failure.with_ecn_mute(m);
            }
            FaultAction::SetSpineFailure { spine, failure }
        }
        "clear_spine_failure" => FaultAction::ClearSpineFailure { spine },
        "flow_blackhole" => FaultAction::FlowBlackhole {
            spine,
            victim_fraction: float_field(t, "victim_fraction")?,
        },
        "ecn_mute" => FaultAction::EcnMute { spine },
        "ecn_unmute" => FaultAction::EcnUnmute { spine },
        "link_down" => FaultAction::LinkDown {
            leaf: leaf()?,
            spine,
        },
        "link_up" => FaultAction::LinkUp {
            leaf: leaf()?,
            spine,
        },
        "set_link_rate" => FaultAction::SetLinkRate {
            leaf: leaf()?,
            spine,
            rate_bps: uint_field(t, "rate_bps")?,
        },
        "restore_link_rate" => FaultAction::RestoreLinkRate {
            leaf: leaf()?,
            spine,
        },
        "spine_down" => FaultAction::SpineDown { spine },
        "spine_up" => FaultAction::SpineUp { spine },
        other => return Err(format!("unknown event kind `{other}`")),
    })
}

fn event_from_table(t: &Table) -> Result<(Time, FaultAction), String> {
    Ok((
        Time::from_ns(uint_field(t, "at_ns")?),
        action_from_table(t)?,
    ))
}

/// Parse one corpus file. The embedded plan must validate.
pub fn entry_from_toml(src: &str) -> Result<CorpusEntry, String> {
    let table = toml::parse(src).map_err(|e| format!("corpus TOML: {e}"))?;
    let mut plan = FaultPlan::new();
    if let Some(events) = table.get("event") {
        let list = events
            .as_array()
            .ok_or_else(|| "`event` must be an array of tables".to_string())?;
        for (i, ev) in list.iter().enumerate() {
            let t = ev
                .as_table()
                .ok_or_else(|| format!("event #{i} is not a table"))?;
            let (at, action) = event_from_table(t).map_err(|e| format!("event #{i}: {e}"))?;
            plan = plan.at(at, action);
        }
    }
    plan.validate()
        .map_err(|e| format!("corpus plan invalid: {e}"))?;
    Ok(CorpusEntry {
        description: str_field(&table, "description")?,
        seed: uint_field(&table, "seed")?,
        slo: str_field(&table, "slo")?,
        lb: str_field(&table, "lb")?,
        plan,
    })
}

/// Load every `*.toml` under `dir`, sorted by file name (the replay
/// order, and hence the report, is independent of directory order).
pub fn load_corpus(dir: &Path) -> Result<Vec<(String, CorpusEntry)>, String> {
    let mut names: Vec<String> = Vec::new();
    let iter = fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
    for de in iter {
        let de = de.map_err(|e| format!("read {}: {e}", dir.display()))?;
        let name = de.file_name().to_string_lossy().into_owned();
        if name.ends_with(".toml") {
            names.push(name);
        }
    }
    names.sort();
    let mut out = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let src = fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let entry = entry_from_toml(&src).map_err(|e| format!("{name}: {e}"))?;
        out.push((name, entry));
    }
    Ok(out)
}

/// Outcome of replaying the committed corpus.
#[derive(Clone, Debug)]
pub struct CorpusReplay {
    /// Files replayed, in order.
    pub files: Vec<String>,
    /// Violations under the *current* SLO defaults — must be empty;
    /// corpus entries are regressions that stay fixed.
    pub violations: Vec<SloViolation>,
}

/// Replay every corpus entry under the current SLO config. Green means
/// the behaviors those counterexamples once caught are still fixed. An
/// entry whose plan does not fit the campaign fabric is an `Err` naming
/// the file and the event, found before any cell runs; then every
/// entry runs in one pool call.
pub fn replay_corpus(dir: &Path, slo: &SloCfg, quick: bool) -> Result<CorpusReplay, String> {
    let entries = load_corpus(dir)?;
    let topo = super::topology();
    for (name, entry) in &entries {
        let fits = entry.plan.validate_on(&topo);
        fits.map_err(|e| format!("{name}: {e}"))?;
    }
    let jobs: Vec<_> = entries.iter().map(|(_, e)| (&e.plan, e.seed)).collect();
    let all_runs = super::run_plans(&jobs, quick);
    let mut violations = Vec::new();
    for ((name, entry), runs) in entries.iter().zip(all_runs.chunks(super::LBS.len())) {
        let label = format!("corpus/{}", name.trim_end_matches(".toml"));
        violations.extend(check_cell(&label, runs, entry.plan.end_time(), slo));
    }
    let files = entries.into_iter().map(|(name, _)| name).collect();
    Ok(CorpusReplay { files, violations })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry() -> CorpusEntry {
        CorpusEntry {
            description: "two overlapping gray failures".to_string(),
            seed: 11,
            slo: "recovery".to_string(),
            lb: "hermes".to_string(),
            plan: FaultPlan::new()
                .flow_blackhole_window(SpineId(1), 0.37, Time::from_ms(3), Time::from_ms(18))
                .ecn_mute_window(SpineId(2), Time::from_ms(5), Time::from_ms(25))
                .at(
                    Time::from_ms(4),
                    FaultAction::SetSpineFailure {
                        spine: SpineId(0),
                        failure: SpineFailure::blackhole(LeafId(0), LeafId(1), 0.75)
                            .with_ecn_mute(true),
                    },
                )
                .at(
                    Time::from_ms(9),
                    FaultAction::ClearSpineFailure { spine: SpineId(0) },
                ),
        }
    }

    #[test]
    fn corpus_format_round_trips_exactly() {
        let entry = sample_entry();
        let text = plan_to_toml(&entry);
        let back = entry_from_toml(&text).expect("round-trip parse");
        assert_eq!(back, entry);
        // And a second serialization is byte-identical.
        assert_eq!(plan_to_toml(&back), text);
    }

    #[test]
    fn every_action_kind_round_trips() {
        let plan = FaultPlan::new()
            .blackhole_window(
                SpineId(0),
                LeafId(0),
                LeafId(1),
                0.5,
                Time::from_ms(1),
                Time::from_ms(2),
            )
            .random_drop_window(SpineId(1), 0.0625, Time::from_ms(1), Time::from_ms(2))
            .link_flap(
                LeafId(0),
                SpineId(2),
                Time::from_ms(1),
                Time::from_us(200),
                Time::from_ms(1),
                Time::from_ms(3),
            )
            .link_degrade_window(
                LeafId(1),
                SpineId(3),
                250_000_000,
                Time::from_ms(1),
                Time::from_ms(2),
            )
            .spine_outage(SpineId(1), Time::from_ms(5), Time::from_ms(6))
            .flow_blackhole_window(SpineId(2), 0.33, Time::from_ms(7), Time::from_ms(8))
            .ecn_mute_window(SpineId(3), Time::from_ms(7), Time::from_ms(8));
        let entry = CorpusEntry {
            description: "grammar coverage".to_string(),
            seed: 1,
            slo: "drain".to_string(),
            lb: "ecmp".to_string(),
            plan,
        };
        let back = entry_from_toml(&plan_to_toml(&entry)).expect("parse");
        assert_eq!(back, entry);
        // One name table: each variant's `kind()` is what the writer
        // emits and what the parser maps back to the same variant.
        let mut kinds = std::collections::BTreeSet::new();
        for ev in entry.plan.events() {
            let text = action_to_toml(&ev.action);
            let kind = ev.action.kind();
            assert!(text.starts_with(&format!("kind = \"{kind}\"\n")), "{text}");
            let parsed = action_from_table(&toml::parse(&text).expect("toml")).expect("action");
            assert_eq!(parsed, ev.action);
            kinds.insert(kind);
        }
        assert_eq!(kinds.len(), 11, "every FaultAction variant: {kinds:?}");
    }

    const HEADER: &str = "description = \"x\"\nseed = 1\nslo = \"drain\"\nlb = \"ecmp\"\n";

    #[test]
    fn out_of_range_integers_are_errors_naming_the_key_not_wraps() {
        let event = |body: &str| format!("{HEADER}\n[[event]]\n{body}");
        // (corpus file, the key its error must name)
        let rows = [
            // 65536 used to narrow to spine 0.
            (
                event("at_ns = 5\nkind = \"spine_down\"\nspine = 65536\n"),
                "`spine`",
            ),
            (
                event("at_ns = 5\nkind = \"link_down\"\nleaf = -1\nspine = 0\n"),
                "`leaf`",
            ),
            (
                event("at_ns = -5\nkind = \"spine_down\"\nspine = 0\n"),
                "`at_ns`",
            ),
            (
                event("at_ns = 5\nkind = \"set_link_rate\"\nleaf = 0\nspine = 0\nrate_bps = -1\n"),
                "`rate_bps`",
            ),
            (
                event(
                    "at_ns = 5\nkind = \"set_spine_failure\"\nspine = 0\nrandom_drop = 0.0\n\
                     bh_src_leaf = 70000\nbh_dst_leaf = 1\nbh_pair_fraction = 1.0\n",
                ),
                "`bh_src_leaf`",
            ),
            (HEADER.replace("seed = 1", "seed = -1"), "`seed`"),
        ];
        for (src, key) in &rows {
            let err = entry_from_toml(src).expect_err(key);
            assert!(err.contains(key), "{key}: got `{err}`");
        }
        let err = entry_from_toml(&rows[0].0).expect_err("spine");
        assert!(err.contains("event #0") && err.contains("65536"), "{err}");
    }

    #[test]
    fn replay_refuses_a_plan_that_does_not_fit_the_fabric() {
        // Leaf 9 validates against *some* fabric and parses; the campaign
        // fabric has two leaves.
        let src = format!(
            "{HEADER}\n[[event]]\nat_ns = 5000000\nkind = \"link_down\"\nleaf = 9\nspine = 0\n\
             \n[[event]]\nat_ns = 6000000\nkind = \"link_up\"\nleaf = 9\nspine = 0\n"
        );
        entry_from_toml(&src).expect("parses: the loader knows no topology");
        let dir = std::env::temp_dir().join(format!("hermes-corpus-{}", std::process::id()));
        fs::create_dir_all(&dir).expect("temp corpus dir");
        fs::write(dir.join("leaf9.toml"), src).expect("write corpus file");
        let res = replay_corpus(&dir, &SloCfg::default(), true);
        fs::remove_dir_all(&dir).expect("remove temp corpus dir");
        let err = res.expect_err("leaf 9 of 2 must be refused before any cell runs");
        assert!(
            err.contains("leaf9.toml") && err.contains("link_down at 5.000ms"),
            "{err}"
        );
    }

    #[test]
    fn invalid_plans_and_unknown_kinds_are_rejected() {
        let orphan = "description = \"x\"\nseed = 1\nslo = \"drain\"\nlb = \"ecmp\"\n\n\
                      [[event]]\nat_ns = 5\nkind = \"link_up\"\nleaf = 0\nspine = 0\n";
        let err = entry_from_toml(orphan).expect_err("orphan LinkUp must be rejected");
        assert!(err.contains("invalid"), "got: {err}");
        let unknown = "description = \"x\"\nseed = 1\nslo = \"drain\"\nlb = \"ecmp\"\n\n\
                       [[event]]\nat_ns = 5\nkind = \"meteor_strike\"\nspine = 0\n";
        let err = entry_from_toml(unknown).expect_err("unknown kind must be rejected");
        assert!(err.contains("meteor_strike"), "got: {err}");
    }

    #[test]
    fn descriptions_with_quotes_survive() {
        let mut entry = sample_entry();
        entry.description = "the \"gray\" case with a back\\slash".to_string();
        let back = entry_from_toml(&plan_to_toml(&entry)).expect("parse");
        assert_eq!(back.description, entry.description);
    }
}
