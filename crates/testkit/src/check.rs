//! The checker classes: invariants, golden digests and flow records,
//! envelopes, ring-step conservation, the incast goodput floor, and the
//! degradation SLOs; [`check_scenario`] applies all of them to one
//! scenario's outcomes, for the conformance suite and the chaos
//! campaign alike.
//!
//! Every check produces [`Failure`]s rather than panicking, so one
//! broken cell doesn't mask the rest of the grid and the self-test can
//! assert that a deliberately-broken fixture trips exactly the class
//! it was built to trip.

use std::collections::BTreeMap;
use std::fmt;

use hermes_sim::Time;
use hermes_workload::{records_hash, WorkloadKind};

use crate::chaos::slo::{check_cross_lb, check_recovery, SloCfg, SloClass};
use crate::run::RunOutcome;
use crate::spec::{Metric, ScenarioSpec};

/// Which checker found the problem.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckClass {
    /// Per-run physical invariants (conservation, monotonicity, FCT
    /// sanity, causality, unfinished bound).
    Invariant,
    /// Golden event-trace digest mismatch or missing pin: the event
    /// stream moved.
    Digest,
    /// Golden flow-record hash mismatch: the behaviour moved (a flow
    /// started or finished at another instant).
    Records,
    /// Statistical FCT-ratio envelope between LBs.
    Envelope,
    /// Ring-allreduce step conservation: every rank exactly once per
    /// step, no step released before its predecessor closed ring-wide,
    /// total bytes = ranks × steps × chunk.
    RingStep,
    /// Incast burst-drain goodput stayed above the configured fraction
    /// of the aggregator's line rate (and below the line rate itself).
    IncastFloor,
    /// `[slo]` scenarios only: a degradation SLO (recovery, cross-LB)
    /// broke against the cell's fault-free twin. Displays as the SLO's
    /// own name.
    Slo(SloClass),
}

impl fmt::Display for CheckClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckClass::Invariant => write!(f, "invariant"),
            CheckClass::Digest => write!(f, "digest"),
            CheckClass::Records => write!(f, "records"),
            CheckClass::Envelope => write!(f, "envelope"),
            CheckClass::RingStep => write!(f, "ring_step"),
            CheckClass::IncastFloor => write!(f, "incast_floor"),
            CheckClass::Slo(slo) => write!(f, "{}", slo.as_str()),
        }
    }
}

/// One conformance failure, attributed to a scenario cell.
#[derive(Clone, Debug)]
pub struct Failure {
    pub class: CheckClass,
    /// `scenario/lb/seed` (or `scenario` for grid-level checks).
    pub cell: String,
    pub detail: String,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.class, self.cell, self.detail)
    }
}

/// Check the per-run physical invariants of one outcome.
pub fn check_invariants(spec: &ScenarioSpec, out: &RunOutcome) -> Vec<Failure> {
    let mut fails = Vec::new();
    let cell = spec.digest_key(out.lb_idx, out.seed);
    let fail = |fails: &mut Vec<Failure>, detail: String| {
        fails.push(Failure {
            class: CheckClass::Invariant,
            cell: cell.clone(),
            detail,
        });
    };
    let r = &out.result;

    // (a) Packet conservation: injected = delivered + dropped + in-flight.
    if !r.conservation.balanced() {
        fail(
            &mut fails,
            format!("packet conservation violated: {:?}", r.conservation),
        );
    }

    // (b) Monotonic sim time, observed through the goodput timeline:
    // sample times strictly increase, cumulative bytes never decrease,
    // and no sample postdates the final clock.
    for w in r.goodput.windows(2) {
        if w[1].0 <= w[0].0 {
            fail(
                &mut fails,
                format!("goodput sample times not increasing at {:?}", w[1].0),
            );
            break;
        }
        if w[1].1 < w[0].1 {
            fail(
                &mut fails,
                format!("cumulative goodput decreased at {:?}", w[1].0),
            );
            break;
        }
    }
    if let Some(last) = r.goodput.last() {
        if last.0 > r.sim_time {
            fail(
                &mut fails,
                format!(
                    "sample at {:?} postdates final clock {:?}",
                    last.0, r.sim_time
                ),
            );
        }
    }

    // (c) Unfinished-flow bound, over the records with no finish.
    let mut unfinished = r.records.iter().filter(|rec| rec.finish.is_none());
    if let Some(first) = unfinished.next() {
        let frac = (1 + unfinished.count()) as f64 / r.records.len() as f64;
        let bound = spec.invariants.max_unfinished_frac;
        if frac > bound {
            fail(
                &mut fails,
                format!(
                    "unfinished fraction {frac:.3} exceeds bound {bound:.3} (first: flow {})",
                    first.id.0
                ),
            );
        }
    }

    // (d) FCT sanity: a finished flow can never beat its own
    // serialization time on the host link (ideal lower bound; see
    // tests/properties.rs for the single-flow version).
    let rate = spec.base.sim.topo.host_link.rate_bps;
    for rec in &r.records {
        let Some(finish) = rec.finish else { continue };
        if finish < rec.start {
            fail(
                &mut fails,
                format!("flow {:?} finished before it started", rec.id),
            );
            continue;
        }
        let lower = Time::tx_time(rec.size, rate);
        if finish - rec.start < lower {
            fail(
                &mut fails,
                format!(
                    "flow {:?} ({} B) finished in {:?}, below ideal {:?}",
                    rec.id,
                    rec.size,
                    finish - rec.start,
                    lower
                ),
            );
        }
    }

    // (e) Causality: the engine must never clamp a past-time schedule.
    // A nonzero count means a handler scheduled into the past and
    // release builds papered over it by snapping the timestamp forward.
    if r.queue_clamps > 0 {
        fail(
            &mut fails,
            format!(
                "event queue clamped {} past-time schedule(s): causality violated",
                r.queue_clamps
            ),
        );
    }
    fails
}

/// Check ring-step conservation on a ring-allreduce outcome: a no-op
/// for every other workload kind.
///
/// Everything is reconstructed from the flow records alone (flow id =
/// `step × ranks + rank`, see `hermes_workload::RingCfg::flow_id`), so
/// the checker is independent of the driver that produced the run:
/// * every `(step, rank)` flow exists exactly once, with `chunk` bytes;
/// * every flow finished (a stalled collective is a failure — drain
///   budgets must cover the worst tolerated stall);
/// * no step-`k+1` flow starts before step `k` closed ring-wide;
/// * total payload = ranks × steps × chunk.
pub fn check_ring_steps(spec: &ScenarioSpec, out: &RunOutcome) -> Vec<Failure> {
    let WorkloadKind::RingAllreduce(ring) = spec.base.workload else {
        return Vec::new();
    };
    let mut fails = Vec::new();
    let cell = spec.digest_key(out.lb_idx, out.seed);
    let fail = |fails: &mut Vec<Failure>, detail: String| {
        fails.push(Failure {
            class: CheckClass::RingStep,
            cell: cell.clone(),
            detail,
        });
    };
    let r = &out.result;

    // Index records by decoded (step, rank); surface duplicates,
    // aliens, and wrong sizes as we go.
    let mut by_step: Vec<Vec<Option<&hermes_workload::FlowRecord>>> =
        vec![vec![None; ring.ranks]; ring.steps];
    for rec in &r.records {
        if rec.id.0 >= (ring.ranks * ring.steps) as u64 {
            fail(
                &mut fails,
                format!("flow {:?} outside the ring's id space", rec.id),
            );
            continue;
        }
        let (step, rank) = ring.decode(rec.id);
        if by_step[step][rank].replace(rec).is_some() {
            fail(
                &mut fails,
                format!("rank {rank} appears twice in step {step}"),
            );
        }
        if rec.size != ring.chunk_bytes {
            fail(
                &mut fails,
                format!(
                    "flow {:?} carries {} B, chunk is {} B",
                    rec.id, rec.size, ring.chunk_bytes
                ),
            );
        }
    }

    // Completeness + barrier ordering, step by step.
    let mut prev_close: Option<Time> = None;
    for (step, slots) in by_step.iter().enumerate() {
        let mut close: Option<Time> = None;
        for (rank, slot) in slots.iter().enumerate() {
            let Some(rec) = slot else {
                fail(&mut fails, format!("rank {rank} never ran step {step}"));
                continue;
            };
            if let Some(close_k) = prev_close {
                if rec.start < close_k {
                    fail(
                        &mut fails,
                        format!(
                            "rank {rank} started step {step} at {:?}, before step {} \
                             closed ring-wide at {close_k:?}",
                            rec.start,
                            step - 1
                        ),
                    );
                }
            }
            match rec.finish {
                Some(f) => close = Some(close.map_or(f, |c: Time| c.max(f))),
                None => fail(
                    &mut fails,
                    format!("rank {rank} never finished step {step}: collective stalled"),
                ),
            }
        }
        // A step with unfinished flows has no close; suppress cascading
        // barrier noise and keep the stall failure as the signal.
        prev_close = close;
        if close.is_none() {
            break;
        }
    }

    let total: u64 = r.records.iter().map(|rec| rec.size).sum();
    if total != ring.total_bytes() {
        fail(
            &mut fails,
            format!(
                "total workload bytes {} != ranks × steps × chunk = {}",
                total,
                ring.total_bytes()
            ),
        );
    }
    fails
}

/// The incast floor: every drained burst's aggregate goodput must stay
/// at or above this fraction of the aggregator's line rate, which
/// leaves generous headroom for slow-start and synchronized-loss
/// recovery.
const INCAST_FLOOR_FRAC: f64 = 0.25;

/// Check the incast goodput floor on an incast outcome: a no-op for
/// every other workload kind.
///
/// Per burst (flow id = `burst × fanout + i`): all replies exist, were
/// released at the same instant, and finished; the burst's aggregate
/// goodput `fanout × reply_bytes × 8 / (last finish − release)` must
/// sit within `[INCAST_FLOOR_FRAC × line rate, line rate]` of the
/// aggregator's host link — below the floor means a starved responder
/// or collapsed drain, above the ceiling means broken accounting.
pub fn check_incast_floor(spec: &ScenarioSpec, out: &RunOutcome) -> Vec<Failure> {
    let WorkloadKind::Incast(cfg) = spec.base.workload else {
        return Vec::new();
    };
    let mut fails = Vec::new();
    let cell = spec.digest_key(out.lb_idx, out.seed);
    let fail = |fails: &mut Vec<Failure>, detail: String| {
        fails.push(Failure {
            class: CheckClass::IncastFloor,
            cell: cell.clone(),
            detail,
        });
    };
    let r = &out.result;
    let line_rate = spec.base.sim.topo.host_link.rate_bps as f64;
    let floor = INCAST_FLOOR_FRAC * line_rate;

    let mut by_burst: Vec<Vec<&hermes_workload::FlowRecord>> = vec![Vec::new(); cfg.bursts];
    for rec in &r.records {
        if rec.id.0 >= (cfg.fanout * cfg.bursts) as u64 {
            fail(
                &mut fails,
                format!("flow {:?} outside the incast id space", rec.id),
            );
            continue;
        }
        let (burst, _) = cfg.decode(rec.id);
        by_burst[burst].push(rec);
    }

    for (burst, recs) in by_burst.iter().enumerate() {
        if recs.len() != cfg.fanout {
            fail(
                &mut fails,
                format!(
                    "burst {burst} has {} of {} replies: incast never drained",
                    recs.len(),
                    cfg.fanout
                ),
            );
            continue;
        }
        let release = recs[0].start;
        if recs.iter().any(|rec| rec.start != release) {
            fail(
                &mut fails,
                format!("burst {burst} replies not released synchronously"),
            );
        }
        let mut last_finish = release;
        let mut starved = false;
        for rec in recs {
            match rec.finish {
                Some(f) => last_finish = last_finish.max(f),
                None => {
                    starved = true;
                    fail(
                        &mut fails,
                        format!("burst {burst}: reply {:?} never finished", rec.id),
                    );
                }
            }
        }
        if starved || last_finish <= release {
            continue;
        }
        let drain_s = (last_finish - release).as_secs_f64();
        let goodput = (cfg.fanout as u64 * cfg.reply_bytes * 8) as f64 / drain_s;
        if goodput < floor {
            fail(
                &mut fails,
                format!(
                    "burst {burst} drained at {:.3e} bps, below the floor {:.3e} \
                     ({:.0}% of line rate)",
                    goodput,
                    floor,
                    100.0 * INCAST_FLOOR_FRAC
                ),
            );
        }
        if goodput > line_rate {
            fail(
                &mut fails,
                format!(
                    "burst {burst} drained at {:.3e} bps, above the aggregator's \
                     line rate {line_rate:.3e}",
                    goodput
                ),
            );
        }
    }
    fails
}

/// Judge an `[slo]` scenario seed by seed by both degradation SLOs at
/// `cfg`, each cell against its twin: a no-op for every other scenario.
/// Recovery failures are named like digest keys, cross-LB ones
/// `scenario/cross/seed`.
pub fn check_slos(spec: &ScenarioSpec, outs: &[&RunOutcome], cfg: &SloCfg) -> Vec<Failure> {
    if spec.slo.is_none() {
        return Vec::new();
    }
    let plan_end = spec.base.sim.fault_plan.end_time();
    let mut fails = Vec::new();
    for &seed in &spec.seeds {
        let (mut hermes, mut ecmp) = (None, None);
        for o in outs.iter().filter(|o| o.seed == seed) {
            let cell = spec.digest_key(o.lb_idx, seed);
            if let Some(base) = &o.baseline {
                fails.extend(check_recovery(&cell, &o.result, base, plan_end, cfg));
            }
            match spec.lbs[o.lb_idx].0.as_str() {
                "hermes" => hermes = Some(&o.result),
                "ecmp" => ecmp = Some(&o.result),
                _ => {}
            }
        }
        if let (Some(h), Some(e)) = (hermes, ecmp) {
            let cell = format!("{}/cross/{seed}", spec.name);
            fails.extend(check_cross_lb(&cell, h, e, plan_end, cfg));
        }
    }
    fails
}

/// Check pinned cells against both golden stores. A moved flow-record
/// hash is a behaviour change ([`CheckClass::Records`]); a moved digest
/// whose records held is an event-stream change only
/// ([`CheckClass::Digest`]). A pinned cell missing from either store is
/// a digest failure (run `cargo run -p xtask -- bless`).
pub fn check_digests(spec: &ScenarioSpec, outs: &[&RunOutcome], goldens: &Goldens) -> Vec<Failure> {
    if !spec.pin_digests {
        return Vec::new();
    }
    let mut fails = Vec::new();
    for out in outs {
        let key = spec.digest_key(out.lb_idx, out.seed);
        let (Some(&want_digest), Some(&want_records)) =
            (goldens.digests.get(&key), goldens.records.get(&key))
        else {
            fails.push(Failure {
                class: CheckClass::Digest,
                cell: key,
                detail: "no golden digest or record hash pinned; run `cargo run -p xtask -- bless`"
                    .to_string(),
            });
            continue;
        };
        let records = records_hash(&out.result.records);
        if records != want_records {
            fails.push(Failure {
                class: CheckClass::Records,
                cell: key.clone(),
                detail: format!(
                    "behaviour moved: flow-record hash {records:#018x} != golden \
                     {want_records:#018x}; some flow started or finished at another \
                     instant — re-bless only if the change is meant to alter behaviour"
                ),
            });
        }
        if out.result.digest != want_digest {
            fails.push(Failure {
                class: CheckClass::Digest,
                cell: key,
                detail: format!(
                    "event stream moved: digest {:#018x} != golden {want_digest:#018x}; \
                     if the change is intended, re-bless",
                    out.result.digest
                ),
            });
        }
    }
    fails
}

/// Mean of an FCT metric over a scenario's seeds for one LB.
fn mean_metric(outs: &[&RunOutcome], lb_idx: usize, metric: Metric) -> Option<f64> {
    let vals: Vec<f64> = outs
        .iter()
        .filter(|o| o.lb_idx == lb_idx)
        .map(|o| match metric {
            Metric::Avg => o.result.fct.avg,
            Metric::P99 => o.result.fct.p99,
        })
        .collect();
    if vals.is_empty() {
        None
    } else {
        Some(vals.iter().sum::<f64>() / vals.len() as f64)
    }
}

/// Check the scenario's statistical envelopes over all its outcomes.
pub fn check_envelopes(spec: &ScenarioSpec, outs: &[&RunOutcome]) -> Vec<Failure> {
    let mut fails = Vec::new();
    for env in &spec.envelopes {
        let find = |name: &str| spec.lbs.iter().position(|(n, _)| n == name);
        let (Some(li), Some(bi)) = (find(&env.lb), find(&env.baseline)) else {
            // Unreachable for disk-loaded specs (the loader validates),
            // but hand-built specs deserve a failure, not a panic.
            fails.push(Failure {
                class: CheckClass::Envelope,
                cell: spec.name.clone(),
                detail: format!(
                    "envelope references unknown lb `{}`/`{}`",
                    env.lb, env.baseline
                ),
            });
            continue;
        };
        let (Some(lhs), Some(rhs)) = (
            mean_metric(outs, li, env.metric),
            mean_metric(outs, bi, env.metric),
        ) else {
            fails.push(Failure {
                class: CheckClass::Envelope,
                cell: spec.name.clone(),
                detail: "envelope has no outcomes to compare".to_string(),
            });
            continue;
        };
        let bound = env.max_ratio * rhs;
        if lhs > bound {
            fails.push(Failure {
                class: CheckClass::Envelope,
                cell: spec.name.clone(),
                detail: format!(
                    "{} {}: {:.6}s > {:.2} x {} ({:.6}s); ratio {:.3}",
                    env.lb,
                    env.metric,
                    lhs,
                    env.max_ratio,
                    env.baseline,
                    rhs,
                    if rhs > 0.0 { lhs / rhs } else { f64::INFINITY }
                ),
            });
        }
    }
    fails
}

/// Every checker class over one scenario's outcomes: the per-run
/// invariants, ring steps and incast floor of each outcome, then the
/// pinned goldens, the envelopes and, under `[slo]`, the SLOs at `slo`.
/// The one judge of a scenario: `run_conformance` applies it to each
/// scenario of a directory, the chaos campaign to each sampled cell.
pub fn check_scenario(
    spec: &ScenarioSpec,
    outs: &[&RunOutcome],
    goldens: &Goldens,
    slo: &SloCfg,
) -> Vec<Failure> {
    let mut fails = Vec::new();
    for out in outs {
        fails.extend(check_invariants(spec, out));
        fails.extend(check_ring_steps(spec, out));
        fails.extend(check_incast_floor(spec, out));
    }
    fails.extend(check_digests(spec, outs, goldens));
    fails.extend(check_envelopes(spec, outs));
    fails.extend(check_slos(spec, outs, slo));
    fails
}

// ---- golden stores --------------------------------------------------

/// The two golden stores of a scenario directory, each keyed by
/// `"scenario/lb/seed"`.
#[derive(Debug, Default)]
pub struct Goldens {
    /// Event-trace digest per pinned cell (`digests.toml`).
    pub digests: BTreeMap<String, u64>,
    /// [`records_hash`] per pinned cell (`records.toml`).
    pub records: BTreeMap<String, u64>,
}

/// Parse a golden store: a single `[<table>]` table of
/// `"scenario/lb/seed" = "0x..."` entries.
pub fn parse_store(src: &str, table: &str) -> Result<BTreeMap<String, u64>, String> {
    let root = crate::toml::parse(src).map_err(|e| e.to_string())?;
    let table = root
        .get(table)
        .and_then(crate::toml::Value::as_table)
        .ok_or_else(|| format!("missing [{table}] table"))?;
    let mut out = BTreeMap::new();
    for (k, v) in table {
        let s = v.as_str().ok_or_else(|| format!("`{k}` is not a string"))?;
        let hex = s
            .strip_prefix("0x")
            .ok_or_else(|| format!("`{k}` value must start with 0x"))?;
        let d = u64::from_str_radix(hex, 16).map_err(|e| format!("`{k}`: {e}"))?;
        out.insert(k.clone(), d);
    }
    Ok(out)
}

/// Render a golden store in `parse_store` form (sorted, stable) under
/// `header`, whose last line names the table.
pub fn format_store(header: &str, store: &BTreeMap<String, u64>) -> String {
    let mut out = String::from(header);
    for (k, v) in store {
        out.push_str(&format!("\"{k}\" = \"{v:#018x}\"\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run_grid;
    use crate::spec::parse_scenario;

    fn smoke_outcomes() -> (ScenarioSpec, Vec<RunOutcome>) {
        let spec = parse_scenario(
            r#"
            pin_digests = true
            [topology]
            kind = "testbed"
            [workload]
            dist = "web_search"
            load = 0.3
            flows = 25
            [run]
            seeds = [1]
            lbs = ["ecmp"]
            drain_ms = 1000
            [[envelope]]
            metric = "avg"
            lb = "ecmp"
            baseline = "ecmp"
            max_ratio = 1.0
            "#,
            "mem",
            "smoke",
        )
        .expect("parses");
        let outs = run_grid(std::slice::from_ref(&spec));
        (spec, outs)
    }

    #[test]
    fn healthy_run_passes_all_checkers() {
        let (spec, outs) = smoke_outcomes();
        let refs: Vec<&RunOutcome> = outs.iter().collect();
        assert!(check_invariants(&spec, &outs[0]).is_empty());
        // Self-vs-self at ratio 1.0 always holds (lhs == rhs).
        assert!(check_envelopes(&spec, &refs).is_empty());
        assert!(check_digests(&spec, &refs, &goldens_of(&spec, &outs[0])).is_empty());
    }

    /// Both stores pinned at exactly what `out` produced.
    fn goldens_of(spec: &ScenarioSpec, out: &RunOutcome) -> Goldens {
        let key = spec.digest_key(out.lb_idx, out.seed);
        Goldens {
            digests: [(key.clone(), out.result.digest)].into(),
            records: [(key, records_hash(&out.result.records))].into(),
        }
    }

    #[test]
    fn tampered_evidence_trips_the_invariant_class() {
        let (spec, mut outs) = smoke_outcomes();
        // Conservation: claim one more injected packet than retired.
        outs[0].result.conservation.injected += 1;
        let fails = check_invariants(&spec, &outs[0]);
        assert!(fails
            .iter()
            .any(|f| f.class == CheckClass::Invariant && f.detail.contains("conservation")));
        // FCT sanity: a flow that finished instantly.
        let (spec2, mut outs2) = smoke_outcomes();
        outs2[0].result.records[0].finish = Some(outs2[0].result.records[0].start);
        let fails2 = check_invariants(&spec2, &outs2[0]);
        assert!(fails2.iter().any(|f| f.detail.contains("below ideal")));
    }

    #[test]
    fn wrong_or_missing_goldens_trip_their_class() {
        let (spec, outs) = smoke_outcomes();
        let refs: Vec<&RunOutcome> = outs.iter().collect();
        let mut wrong = goldens_of(&spec, &outs[0]);
        wrong.digests.values_mut().for_each(|d| *d = 0xdead_beef);
        let fails = check_digests(&spec, &refs, &wrong);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].class, CheckClass::Digest);
        assert!(fails[0].detail.contains("event stream moved"));
        // A wrong records golden alone is a behaviour change, reported once.
        let mut wrong = goldens_of(&spec, &outs[0]);
        wrong.records.values_mut().for_each(|r| *r ^= 1);
        let fails = check_digests(&spec, &refs, &wrong);
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].class, CheckClass::Records);
        assert!(fails[0].detail.contains("behaviour moved"));
        let fails = check_digests(&spec, &refs, &Goldens::default());
        assert!(fails[0].detail.contains("bless"));
    }

    #[test]
    fn golden_store_roundtrips() {
        let goldens: BTreeMap<String, u64> = [
            ("sym/hermes/1".to_string(), 0x1234_5678_9abc_def0_u64),
            ("sym/ecmp/2".to_string(), 7),
        ]
        .into();
        let text = format_store("# a store\n\n[records]\n", &goldens);
        let back = parse_store(&text, "records").expect("parses");
        assert_eq!(back, goldens);
        assert!(parse_store(&text, "digests").is_err());
    }
}
