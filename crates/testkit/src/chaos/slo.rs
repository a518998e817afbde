//! Graceful-degradation SLOs for chaos campaigns.
//!
//! A sampled fault plan is not judged on exact FCTs — those vary with
//! the plan — but on four *degradation contracts* that must hold for
//! every plan whose faults all clear before the drain horizon:
//!
//! 1. **Conservation** — packet conservation balances with faults
//!    active (every injected packet is delivered, accounted as a
//!    classified drop, or still in flight).
//! 2. **Drain** — no stuck flows: once every fault has cleared, all
//!    flows eventually finish within the drain window.
//! 3. **Recovery** — cumulative goodput under faults reaches a fixed
//!    fraction of the fault-free run's total within the fault-free
//!    time-to-target plus the plan span plus a slack budget.
//! 4. **Cross-LB** — Hermes is never meaningfully worse than ECMP on
//!    the same plan: not more unfinished flows, and not more stranded
//!    flow-time past the last fault event (beyond a tolerance band).
//!
//! Checkers never panic; they return [`SloViolation`]s so a campaign
//! can keep running and report everything it found. A scenario with
//! `[slo]` is judged by all four at their defaults as the conformance
//! checker class [`crate::CheckClass::Slo`].

use hermes_bench::RunReport;
use hermes_sim::Time;

use crate::run::RunOutcome;
use crate::spec::ScenarioSpec;

/// Which degradation contract a violation falls under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SloClass {
    Conservation,
    Drain,
    Recovery,
    CrossLb,
}

impl SloClass {
    /// Stable lowercase name used in reports and `[slo]` tables.
    pub fn as_str(self) -> &'static str {
        match self {
            SloClass::Conservation => "conservation",
            SloClass::Drain => "drain",
            SloClass::Recovery => "recovery",
            SloClass::CrossLb => "cross_lb",
        }
    }

    /// Parse the stable name back (`[slo]` tables carry it).
    pub fn parse(s: &str) -> Option<SloClass> {
        match s {
            "conservation" => Some(SloClass::Conservation),
            "drain" => Some(SloClass::Drain),
            "recovery" => Some(SloClass::Recovery),
            "cross_lb" => Some(SloClass::CrossLb),
            _ => None,
        }
    }
}

/// One SLO breach in one cell.
#[derive(Clone, Debug)]
pub struct SloViolation {
    pub class: SloClass,
    /// The cell as its judge labelled it: per LB, or cross-LB.
    pub cell: String,
    pub detail: String,
}

/// Thresholds for the recovery and cross-LB contracts.
///
/// The defaults are tuned so a healthy tree (`main`) passes a
/// 32-seed quick campaign with zero violations; a *stricter* config
/// (higher `recovery_frac`, smaller slacks) is how new corpus
/// counterexamples are mined — see `tests/README.md` and DESIGN.md §14.
#[derive(Clone, Copy, Debug)]
pub struct SloCfg {
    /// Fault-run cumulative goodput must reach this fraction of the
    /// fault-free run's final total...
    pub recovery_frac: f64,
    /// ...no later than the fault-free time-to-target, plus the plan
    /// span (faults legitimately stall progress while active), plus
    /// this slack (timeout/backoff tails after the last fault clears).
    pub recovery_slack: Time,
    /// Hermes' stranded flow-time may exceed ECMP's by at most this
    /// factor...
    pub stranded_factor: f64,
    /// ...plus this additive slack (absorbs per-seed noise when both
    /// stranded durations are near zero).
    pub stranded_slack: Time,
}

impl Default for SloCfg {
    fn default() -> SloCfg {
        SloCfg {
            recovery_frac: 0.85,
            recovery_slack: Time::from_ms(500),
            stranded_factor: 1.5,
            stranded_slack: Time::from_ms(250),
        }
    }
}

/// SLO 1: packet conservation balanced at end of run.
pub fn check_conservation(cell: &str, r: &RunReport) -> Option<SloViolation> {
    if r.conservation.balanced() {
        None
    } else {
        Some(SloViolation {
            class: SloClass::Conservation,
            cell: cell.to_string(),
            detail: format!("conservation broken under faults: {}", r.conservation),
        })
    }
}

/// SLO 2: every flow finished — nothing stays stuck once the plan's
/// faults have all cleared. Callers guarantee the plan end precedes
/// the drain horizon by a comfortable margin (the generator does).
pub fn check_drain(cell: &str, r: &RunReport) -> Option<SloViolation> {
    let stuck: Vec<u64> = r
        .records
        .iter()
        .filter(|rec| rec.finish.is_none())
        .map(|rec| rec.id.0)
        .collect();
    if stuck.is_empty() {
        None
    } else {
        Some(SloViolation {
            class: SloClass::Drain,
            cell: cell.to_string(),
            detail: format!(
                "{} flow(s) never finished after all faults cleared (first: flow {})",
                stuck.len(),
                stuck[0]
            ),
        })
    }
}

/// SLO 3: goodput recovers — the faulted run reaches
/// `recovery_frac × (fault-free final goodput)` within the fault-free
/// time-to-target + plan span + slack.
///
/// Skipped (returns `None`) when the fault-free run moved no goodput
/// or never reached the target itself — there is no baseline to
/// recover *to*, which a degenerate sampled workload can produce.
pub fn check_recovery(
    cell: &str,
    fault: &RunReport,
    base: &RunReport,
    plan_end: Time,
    cfg: &SloCfg,
) -> Option<SloViolation> {
    let total = base.goodput.last().map_or(0, |&(_, b)| b);
    if total == 0 {
        return None;
    }
    let target = ((total as f64 * cfg.recovery_frac).ceil() as u64).max(1);
    let reach = |series: &[(Time, u64)]| {
        series
            .iter()
            .find(|&&(_, bytes)| bytes >= target)
            .map(|&(t, _)| t)
    };
    let t_base = reach(&base.goodput)?;
    let budget = t_base + plan_end + cfg.recovery_slack;
    match reach(&fault.goodput) {
        Some(t) if t <= budget => None,
        Some(t) => Some(SloViolation {
            class: SloClass::Recovery,
            cell: cell.to_string(),
            detail: format!(
                "goodput reached {target} B at {t}, past the budget {budget} \
                 (fault-free target time {t_base} + plan span {plan_end} + slack)"
            ),
        }),
        None => Some(SloViolation {
            class: SloClass::Recovery,
            cell: cell.to_string(),
            detail: format!(
                "goodput never reached {target} B ({:?} of the fault-free total {total} B)",
                cfg.recovery_frac
            ),
        }),
    }
}

/// Flow-time stranded past `clear`: for every flow that started before
/// the last fault event, the time it remained unfinished after it
/// (unfinished flows charged to the horizon). This is the paper's
/// "how long did traffic stay hurt" lens — a scheme that evacuates
/// faulty paths strands less flow-time than one that cannot.
pub fn stranded_duration(r: &RunReport, clear: Time) -> Time {
    r.records
        .iter()
        .filter(|rec| rec.start < clear)
        .map(|rec| rec.finish.unwrap_or(r.horizon).saturating_sub(clear))
        .fold(Time::ZERO, |acc, d| acc + d)
}

/// SLO 4: Hermes never meaningfully worse than ECMP on the same plan —
/// not more unfinished flows, and stranded flow-time within
/// `stranded_factor × ECMP + stranded_slack`.
pub fn check_cross_lb(
    seed_label: &str,
    hermes: &RunReport,
    ecmp: &RunReport,
    plan_end: Time,
    cfg: &SloCfg,
) -> Vec<SloViolation> {
    let mut out = Vec::new();
    if hermes.fct.unfinished > ecmp.fct.unfinished {
        out.push(SloViolation {
            class: SloClass::CrossLb,
            cell: seed_label.to_string(),
            detail: format!(
                "hermes stranded {} flow(s) vs ecmp {} on the same plan",
                hermes.fct.unfinished, ecmp.fct.unfinished
            ),
        });
    }
    let sh = stranded_duration(hermes, plan_end);
    let se = stranded_duration(ecmp, plan_end);
    let bound = se.mul_f64(cfg.stranded_factor) + cfg.stranded_slack;
    if sh > bound {
        out.push(SloViolation {
            class: SloClass::CrossLb,
            cell: seed_label.to_string(),
            detail: format!(
                "hermes stranded flow-time {sh} exceeds bound {bound} \
                 ({:?} x ecmp's {se} + slack)",
                cfg.stranded_factor
            ),
        });
    }
    out
}

/// Run every SLO over one seed of an `[slo]` scenario's outcomes, each
/// cell against its fault-free twin and the scenario's fault plan.
/// `label(Some(lb))` names a per-LB cell, `label(None)` the cross-LB one.
pub fn check_seed<'a>(
    spec: &'a ScenarioSpec,
    outs: impl IntoIterator<Item = &'a RunOutcome>,
    seed: u64,
    cfg: &SloCfg,
    label: impl Fn(Option<&str>) -> String,
) -> Vec<SloViolation> {
    let plan_end = spec.base.sim.fault_plan.end_time();
    let mut out = Vec::new();
    let (mut hermes, mut ecmp) = (None, None);
    for o in outs.into_iter().filter(|o| o.seed == seed) {
        let (lb, fault) = (spec.lbs[o.lb_idx].0.as_str(), &o.result);
        let cell = label(Some(lb));
        out.extend(check_conservation(&cell, fault));
        out.extend(check_drain(&cell, fault));
        if let Some(base) = &o.baseline {
            out.extend(check_recovery(&cell, fault, base, plan_end, cfg));
        }
        match lb {
            "hermes" => hermes = Some(fault),
            "ecmp" => ecmp = Some(fault),
            _ => {}
        }
    }
    if let (Some(h), Some(e)) = (hermes, ecmp) {
        out.extend(check_cross_lb(&label(None), h, e, plan_end, cfg));
    }
    out
}
