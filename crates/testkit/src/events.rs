//! The `[[event]]` fault syntax of a scenario file. Each event is one
//! [`FaultAction`] at `at_ns`: `kind` is [`FaultAction::kind`], every
//! kind names a `spine`, and the other keys are the kind's own
//! (`kind_keys`). The format round-trips exactly: reading
//! [`plan_to_toml`]'s output gives back the same [`FaultPlan`].

use hermes_net::{
    Blackhole, FaultAction, FaultPlan, LeafId, PlanError, SpineFailure, SpineId, Topology,
};
use hermes_sim::Time;

use crate::toml::{opt, req, uint, KeyLines, Table, Value};

/// The keys an event of `kind` reads besides `at_ns`, `kind` and
/// `spine`; `None` for an unknown kind.
fn kind_keys(kind: &str) -> Option<&'static [&'static str]> {
    Some(match kind {
        "set_spine_failure" => &[
            "random_drop",
            "bh_src_leaf",
            "bh_dst_leaf",
            "bh_pair_fraction",
            "victim_fraction",
            "ecn_mute",
        ],
        "flow_blackhole" => &["victim_fraction"],
        "link_down" | "link_up" | "restore_link_rate" => &["leaf"],
        "set_link_rate" => &["leaf", "rate_bps"],
        "clear_spine_failure" | "ecn_mute" | "ecn_unmute" | "spine_down" | "spine_up" => &[],
        _ => return None,
    })
}

/// Write a plan as `[[event]]` tables, one per event in plan order.
pub fn plan_to_toml(plan: &FaultPlan) -> String {
    let mut out = String::new();
    for ev in plan.events() {
        out.push_str(&format!("\n[[event]]\nat_ns = {}\n", ev.at.as_ns()));
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

fn action_from_table(kind: &str, t: &Table) -> Result<FaultAction, String> {
    let spine = SpineId(uint(t, "spine")?);
    let leaf = || uint(t, "leaf").map(LeafId);
    Ok(match kind {
        "set_spine_failure" => {
            let mut failure = SpineFailure {
                random_drop: req(t, "random_drop", "a number", Value::as_float)?,
                ..SpineFailure::default()
            };
            if ["bh_src_leaf", "bh_dst_leaf", "bh_pair_fraction"]
                .iter()
                .any(|k| t.contains_key(*k))
            {
                failure.blackhole = Some(Blackhole {
                    src_leaf: LeafId(uint(t, "bh_src_leaf")?),
                    dst_leaf: LeafId(uint(t, "bh_dst_leaf")?),
                    pair_fraction: req(t, "bh_pair_fraction", "a number", Value::as_float)?,
                });
            }
            if t.contains_key("victim_fraction") {
                failure = failure.with_flow_blackhole(req(
                    t,
                    "victim_fraction",
                    "a number",
                    Value::as_float,
                )?);
            }
            if let Some(m) = opt(t, "ecn_mute", "a boolean", Value::as_bool)? {
                failure = failure.with_ecn_mute(m);
            }
            FaultAction::SetSpineFailure { spine, failure }
        }
        "clear_spine_failure" => FaultAction::ClearSpineFailure { spine },
        "flow_blackhole" => FaultAction::FlowBlackhole {
            spine,
            victim_fraction: req(t, "victim_fraction", "a number", Value::as_float)?,
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
            rate_bps: uint(t, "rate_bps")?,
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

/// Read the document's `[[event]]` list (none: the empty plan). A key
/// the event's `kind` does not read is an error naming its line; every
/// other error names the event by its 0-based index.
pub fn plan_from_toml(root: &Table, key_lines: &KeyLines) -> Result<FaultPlan, String> {
    let Some(events) = root.get("event") else {
        return Ok(FaultPlan::new());
    };
    let list = events
        .as_array()
        .ok_or("`event` must be an array of tables")?;
    let mut plan = FaultPlan::new();
    for (i, ev) in list.iter().enumerate() {
        let at = |e: String| format!("[[event]] #{i}: {e}");
        let t = ev.as_table().ok_or_else(|| at("not a table".into()))?;
        let kind = req(t, "kind", "a string", Value::as_str).map_err(at)?;
        let keys = kind_keys(kind).ok_or_else(|| at(format!("unknown event kind `{kind}`")))?;
        for key in t.keys() {
            if !["at_ns", "kind", "spine"].contains(&key.as_str()) && !keys.contains(&key.as_str())
            {
                let line = key_lines
                    .get(&format!("event.{i}.{key}"))
                    .copied()
                    .unwrap_or(0);
                return Err(format!(
                    "line {line}: unknown key `{key}` in [[event]] #{i} (kind `{kind}`)"
                ));
            }
        }
        let time = Time::from_ns(uint(t, "at_ns").map_err(at)?);
        plan = plan.at(time, action_from_table(kind, t).map_err(at)?);
    }
    Ok(plan)
}

/// Why `plan` does not fit `topo`, naming the event: the first event
/// whose addition (in file order) makes the plan fail, and the key the
/// error is about when one key is.
pub fn plan_error(plan: &FaultPlan, topo: &Topology, err: &PlanError) -> String {
    let events = plan.events();
    let i = (1..=events.len())
        .find(|&n| {
            let prefix = events[..n]
                .iter()
                .fold(FaultPlan::new(), |p, e| p.at(e.at, e.action));
            prefix.validate_on(topo).is_err()
        })
        .map_or(0, |n| n - 1);
    use PlanError::{FractionOutOfRange as Frac, NotInTopology as Absent};
    let action = events.get(i).map(|e| e.action);
    let kind = action.map_or("?", |a| a.kind());
    let bh = match action {
        Some(FaultAction::SetSpineFailure { failure, .. }) => failure.blackhole,
        _ => None,
    };
    let key = match *err {
        Frac {
            what: "pair_fraction",
            ..
        } => "bh_pair_fraction",
        Frac { what, .. } => what,
        PlanError::ZeroLinkRate { .. } => "rate_bps",
        Absent { spine, .. } if usize::from(spine.0) >= topo.n_spines => "spine",
        Absent { leaf, .. } if bh.is_some_and(|b| Some(b.src_leaf) == leaf) => "bh_src_leaf",
        Absent { .. } if bh.is_some() => "bh_dst_leaf",
        Absent { .. } => "leaf",
        PlanError::IntraRackBlackhole { .. } => "bh_dst_leaf",
        _ => return format!("[[event]] #{i} (`{kind}`): {err}"),
    };
    format!("[[event]] #{i} (`{kind}`) `{key}`: {err}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::toml;

    fn read(src: &str) -> Result<FaultPlan, String> {
        let (root, lines) = toml::parse_with_lines(src).map_err(|e| e.to_string())?;
        plan_from_toml(&root, &lines)
    }

    fn sample_plan() -> FaultPlan {
        FaultPlan::new()
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
            )
    }

    #[test]
    fn event_format_round_trips_exactly() {
        let plan = sample_plan();
        let text = plan_to_toml(&plan);
        let back = read(&text).expect("round-trip parse");
        assert_eq!(back, plan);
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
        assert_eq!(read(&plan_to_toml(&plan)).expect("parse"), plan);
        // One name table: each variant's `kind()` is what the writer
        // emits and what the reader maps back to the same variant.
        let mut kinds = std::collections::BTreeSet::new();
        for ev in plan.events() {
            let text = action_to_toml(&ev.action);
            let kind = ev.action.kind();
            assert!(text.starts_with(&format!("kind = \"{kind}\"\n")), "{text}");
            let table = toml::parse(&text).expect("toml");
            assert_eq!(action_from_table(kind, &table).expect("action"), ev.action);
            kinds.insert(kind);
        }
        assert_eq!(kinds.len(), 11, "every FaultAction variant: {kinds:?}");
    }

    #[test]
    fn out_of_range_integers_are_errors_naming_the_key_not_wraps() {
        let event = |body: &str| format!("[[event]]\n{body}");
        // (events, the key its error must name)
        let rows = [
            // 65536 used to narrow to spine 0.
            (event("at_ns = 5\nkind = \"spine_down\"\nspine = 65536\n"), "`spine`"),
            (
                event("at_ns = 5\nkind = \"link_down\"\nleaf = -1\nspine = 0\n"),
                "`leaf`",
            ),
            (event("at_ns = -5\nkind = \"spine_down\"\nspine = 0\n"), "`at_ns`"),
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
            // An optional key of the wrong type is an error, not a default.
            (
                event("at_ns = 5\nkind = \"set_spine_failure\"\nspine = 0\nrandom_drop = 0.0\necn_mute = \"yes\"\n"),
                "`ecn_mute`",
            ),
            // Half a pair blackhole is refused, not dropped.
            (
                event("at_ns = 5\nkind = \"set_spine_failure\"\nspine = 0\nrandom_drop = 0.0\nbh_dst_leaf = 1\n"),
                "`bh_src_leaf`",
            ),
        ];
        for (src, key) in &rows {
            let err = read(src).expect_err(key);
            assert!(err.contains(key), "{key}: got `{err}`");
        }
        let err = read(&rows[0].0).expect_err("spine");
        assert!(
            err.contains("[[event]] #0") && err.contains("65536"),
            "{err}"
        );
    }

    #[test]
    fn keys_the_kind_does_not_read_and_unknown_kinds_are_rejected() {
        let stray = "[[event]]\nat_ns = 5\nkind = \"spine_down\"\nspine = 0\nleaf = 1\n";
        let err = read(stray).expect_err("`leaf` is not a spine_down key");
        assert!(
            err.contains("line 5") && err.contains("unknown key `leaf`"),
            "{err}"
        );
        let unknown = "[[event]]\nat_ns = 5\nkind = \"meteor_strike\"\nspine = 0\n";
        let err = read(unknown).expect_err("unknown kind must be rejected");
        assert!(err.contains("meteor_strike"), "got: {err}");
    }

    #[test]
    fn the_loader_names_an_intra_rack_blackhole_event() {
        let src = r#"
            [topology]
            kind = "testbed"
            [workload]
            dist = "web_search"
            load = 0.3
            flows = 10
            [run]
            seeds = [1]
            lbs = ["hermes"]
            [[event]]
            at_ns = 0
            kind = "set_spine_failure"
            spine = 0
            random_drop = 0.0
            bh_src_leaf = 1
            bh_dst_leaf = 1
            bh_pair_fraction = 1.0
        "#;
        let err = crate::spec::parse_scenario(src, "mem.toml", "mem").expect_err("src == dst");
        let msg = err.to_string();
        assert!(
            msg.contains("[[event]] #0 (`set_spine_failure`) `bh_dst_leaf`")
                && msg.contains("spine 0 has leaf 1 as both source and destination"),
            "{msg}"
        );
    }

    #[test]
    fn a_refused_plan_names_the_event_and_the_key() {
        let topo = Topology::testbed();
        let plan = FaultPlan::new()
            .spine_outage(SpineId(0), Time::from_ms(1), Time::from_ms(2))
            .random_drop_window(SpineId(1), 0.5, Time::from_ms(1), Time::from_ms(2))
            .at(
                Time::from_ms(3),
                FaultAction::SetSpineFailure {
                    spine: SpineId(2),
                    failure: SpineFailure {
                        blackhole: Some(Blackhole {
                            src_leaf: LeafId(0),
                            dst_leaf: LeafId(2),
                            pair_fraction: 1.0,
                        }),
                        ..SpineFailure::default()
                    },
                },
            );
        let err = plan.validate_on(&topo).expect_err("leaf 2 of 2");
        let msg = plan_error(&plan, &topo, &err);
        assert!(
            msg.starts_with("[[event]] #4 (`set_spine_failure`) `bh_dst_leaf`"),
            "{msg}"
        );
        // An orphaned link_up names the event and no key.
        let orphan = FaultPlan::new().at(
            Time::from_ms(5),
            FaultAction::LinkUp {
                leaf: LeafId(0),
                spine: SpineId(0),
            },
        );
        let err = orphan.validate_on(&topo).expect_err("orphan");
        let msg = plan_error(&orphan, &topo, &err);
        assert!(msg.starts_with("[[event]] #0 (`link_up`): LinkUp"), "{msg}");
    }
}
