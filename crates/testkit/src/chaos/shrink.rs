//! Counterexample shrinking: delta-debugging over fault events, then
//! severity narrowing.
//!
//! A sampled plan that fails a check usually carries events that have
//! nothing to do with the failure (the sampler composes up to three
//! primitives, and flaps/ramps expand into many events). Before a plan
//! is worth committing to the corpus it is shrunk to a minimal
//! counterexample:
//!
//! 1. **ddmin over events** — classic delta debugging: try dropping
//!    halves, then quarters, … of the event list, keeping any subset
//!    that still fails. Candidates that no longer pass
//!    [`FaultPlan::validate`] (e.g. an orphaned `LinkUp`) are skipped,
//!    not evaluated.
//! 2. **Narrowing** — with the event set minimal, shave severity:
//!    halve drop rates and victim fractions, and pull event times
//!    toward the earliest one (shortening windows), as long as the
//!    plan keeps failing.
//!
//! The failure predicate is caller-supplied — typically "re-run the
//! campaign cell and check a failure of the same
//! [`crate::CheckClass`] still turns up" — and every predicate call is
//! an expensive simulation, so the whole search is budgeted by
//! `max_evals`.

use hermes_net::{FaultAction, FaultEvent, FaultPlan, SpineFailure};

/// What shrinking achieved, plus its cost.
#[derive(Clone, Debug)]
pub struct ShrinkOutcome {
    /// The minimal still-failing plan found within budget.
    pub plan: FaultPlan,
    /// Predicate evaluations spent.
    pub evals: usize,
    /// Event count of the original plan.
    pub from_events: usize,
}

fn rebuild(events: &[FaultEvent]) -> FaultPlan {
    events
        .iter()
        .fold(FaultPlan::new(), |p, e| p.at(e.at, e.action))
}

/// Shrink `plan` to a smaller plan for which `fails` still returns
/// true, spending at most `max_evals` predicate calls. The input plan
/// is assumed to fail (callers establish that before shrinking); if
/// nothing smaller fails, the original is returned unchanged.
pub fn shrink_plan<F>(plan: &FaultPlan, mut fails: F, max_evals: usize) -> ShrinkOutcome
where
    F: FnMut(&FaultPlan) -> bool,
{
    let from_events = plan.len();
    let mut events: Vec<FaultEvent> = plan.events().to_vec();
    let mut evals = 0usize;
    let mut check = |cand: &[FaultEvent], evals: &mut usize| -> Option<FaultPlan> {
        let p = rebuild(cand);
        if p.is_empty() || p.validate().is_err() || *evals >= max_evals {
            return None;
        }
        *evals += 1;
        if fails(&p) {
            Some(p)
        } else {
            None
        }
    };

    // Phase 1: ddmin over the event list.
    let mut granularity = 2usize;
    while events.len() >= 2 && granularity <= events.len() && evals < max_evals {
        let chunk = events.len().div_ceil(granularity);
        let mut reduced = false;
        let mut start = 0;
        while start < events.len() && evals < max_evals {
            // Complement: everything except events[start..start+chunk].
            let cand: Vec<FaultEvent> = events
                .iter()
                .enumerate()
                .filter(|&(i, _)| i < start || i >= start + chunk)
                .map(|(_, e)| *e)
                .collect();
            if !cand.is_empty() && check(&cand, &mut evals).is_some() {
                events = cand;
                granularity = 2;
                reduced = true;
                // Restart the sweep on the smaller list.
                start = 0;
            } else {
                start += chunk;
            }
        }
        if !reduced {
            if granularity >= events.len() {
                break;
            }
            granularity = (granularity * 2).min(events.len());
        }
    }

    // Phase 2: narrow severity on the surviving events.
    let mut changed = true;
    while changed && evals < max_evals {
        changed = false;
        for i in 0..events.len() {
            if evals >= max_evals {
                break;
            }
            for cand_ev in narrow_event(&events[i]) {
                let mut cand = events.clone();
                cand[i] = cand_ev;
                if check(&cand, &mut evals).is_some() {
                    events = cand;
                    changed = true;
                    break;
                }
            }
        }
        // Pull the whole schedule toward its earliest instant,
        // shortening every window at once.
        if evals < max_evals {
            if let Some(t0) = events.iter().map(|e| e.at).min() {
                let cand: Vec<FaultEvent> = events
                    .iter()
                    .map(|e| FaultEvent {
                        at: t0 + (e.at.saturating_sub(t0)).mul_f64(0.5),
                        action: e.action,
                    })
                    .collect();
                if cand != events && check(&cand, &mut evals).is_some() {
                    events = cand;
                    changed = true;
                }
            }
        }
    }

    ShrinkOutcome {
        plan: rebuild(&events),
        evals,
        from_events,
    }
}

/// Candidate lower-severity versions of one event (empty if the
/// action has no tunable severity).
fn narrow_event(ev: &FaultEvent) -> Vec<FaultEvent> {
    let mut out = Vec::new();
    let mut push = |action: FaultAction| {
        out.push(FaultEvent { at: ev.at, action });
    };
    match ev.action {
        FaultAction::SetSpineFailure { spine, failure } if failure.random_drop > 0.005 => {
            push(FaultAction::SetSpineFailure {
                spine,
                failure: SpineFailure {
                    random_drop: failure.random_drop * 0.5,
                    ..failure
                },
            });
        }
        FaultAction::FlowBlackhole {
            spine,
            victim_fraction,
        } if victim_fraction > 0.01 => {
            push(FaultAction::FlowBlackhole {
                spine,
                victim_fraction: victim_fraction * 0.5,
            });
        }
        FaultAction::SetLinkRate {
            leaf,
            spine,
            rate_bps,
        } => {
            // Less degraded = closer to healthy; doubling the rate is
            // the "milder fault" direction.
            push(FaultAction::SetLinkRate {
                leaf,
                spine,
                rate_bps: rate_bps.saturating_mul(2),
            });
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::{LeafId, SpineId};
    use hermes_sim::Time;

    fn noisy_plan() -> FaultPlan {
        FaultPlan::new()
            .link_flap(
                LeafId(0),
                SpineId(0),
                Time::from_ms(2),
                Time::from_ms(1),
                Time::from_ms(4),
                Time::from_ms(14),
            )
            .spine_outage(SpineId(1), Time::from_ms(3), Time::from_ms(9))
            .random_drop_window(SpineId(2), 0.08, Time::from_ms(1), Time::from_ms(6))
    }

    #[test]
    fn ddmin_reduces_to_the_relevant_events() {
        let plan = noisy_plan();
        assert_eq!(plan.len(), 10);
        let wants_down = |p: &FaultPlan| {
            p.events().iter().any(|e| {
                matches!(
                    e.action,
                    FaultAction::LinkDown {
                        leaf: LeafId(0),
                        spine: SpineId(0),
                    }
                )
            })
        };
        let out = shrink_plan(&plan, wants_down, 500);
        assert!(wants_down(&out.plan), "shrunk plan must still fail");
        assert_eq!(out.plan.validate(), Ok(()));
        assert!(
            out.plan.len() <= 2,
            "one LinkDown (± its LinkUp) suffices, got {} events",
            out.plan.len()
        );
        assert_eq!(out.from_events, 10);
    }

    #[test]
    fn shrinking_never_emits_invalid_plans() {
        // Predicate records every candidate it is shown; all of them
        // must validate (orphaned LinkUps filtered out, not evaluated).
        let plan = noisy_plan();
        let mut seen = 0u32;
        let out = shrink_plan(
            &plan,
            |p| {
                assert_eq!(p.validate(), Ok(()), "shrinker leaked an invalid candidate");
                seen += 1;
                p.len() >= 4
            },
            200,
        );
        assert!(seen > 0);
        assert_eq!(out.plan.validate(), Ok(()));
        assert!(out.plan.len() >= 4, "predicate held on the result");
    }

    #[test]
    fn narrowing_halves_rates_while_failing() {
        let plan = FaultPlan::new().random_drop_window(
            SpineId(0),
            0.64,
            Time::from_ms(2),
            Time::from_ms(10),
        );
        // "Fails" as long as some drop rate >= 0.04: narrowing should
        // walk the rate down to just above the threshold.
        let out = shrink_plan(
            &plan,
            |p| {
                p.events().iter().any(|e| {
                    matches!(
                        e.action,
                        FaultAction::SetSpineFailure { failure, .. } if failure.random_drop >= 0.04
                    )
                })
            },
            500,
        );
        let rate = out
            .plan
            .events()
            .iter()
            .find_map(|e| match e.action {
                FaultAction::SetSpineFailure { failure, .. } => Some(failure.random_drop),
                _ => None,
            })
            .unwrap_or(0.0);
        assert!(
            (0.04..0.08).contains(&rate),
            "expected the rate narrowed toward the threshold, got {rate}"
        );
    }

    #[test]
    fn budget_bounds_predicate_calls() {
        let plan = noisy_plan();
        let mut calls = 0usize;
        let _ = shrink_plan(
            &plan,
            |_| {
                calls += 1;
                true
            },
            7,
        );
        assert!(calls <= 7, "budget exceeded: {calls}");
    }
}
