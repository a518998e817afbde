//! What one child process does: one run of one variant, untraced or
//! traced, reported to the parent as one JSON line on stdout.
//!
//! Every (workload, rep) gets a fresh process so `VmHWM` and allocator
//! state are per run.

use std::time::Instant;

use hermes_net::FnvDigest;
use hermes_runtime::Simulation;
use hermes_sim::Time;
use hermes_workload::{summarize, FlowRecord};

use crate::json::Json;
use crate::stats;
use crate::trace::Recorder;
use crate::workloads::{self, Variant};

/// Simulated time per traced slice.
const SLICE: Time = Time::from_ms(1);

/// Exact counters readable from the public stats, in a fixed order.
/// The traced run reads them at every slice boundary.
fn counters(sim: &Simulation) -> Vec<(&'static str, f64)> {
    let c = sim.conservation();
    let pool = sim.fabric().pool_stats();
    let s = &sim.stats;
    vec![
        ("events", s.events as f64),
        ("flows_started", s.flows_started as f64),
        ("flows_completed", s.flows_completed as f64),
        ("pkts_injected", c.injected as f64),
        ("pkts_delivered", c.delivered as f64),
        ("drops_full", sim.fabric().total_drops_full() as f64),
        ("drops_failure", c.drops_failure as f64),
        ("ecn_marks", sim.fabric().total_ecn_marks() as f64),
        ("probes_sent", s.probes_sent as f64),
        ("probe_responses", s.probe_responses as f64),
        ("probe_timeouts", s.probe_timeouts as f64),
        ("path_changes", s.path_changes as f64),
        ("ooo_packets", s.ooo_packets as f64),
        ("trains_inlined", sim.trains_inlined() as f64),
        ("pool_fresh", pool.fresh as f64),
        ("pool_reused", pool.reused as f64),
        ("pool_trimmed", pool.trimmed as f64),
    ]
}

fn delta(
    before: &[(&'static str, f64)],
    after: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    before
        .iter()
        .zip(after)
        .map(|((k, a), (_, b))| (*k, b - a))
        .collect()
}

/// Fingerprint of the flow records: equal exactly when two runs
/// released the same flows and finished each at the same instant.
fn records_hash(records: &[FlowRecord]) -> u64 {
    let mut d = FnvDigest::new();
    for r in records {
        d.push(r.id.0);
        d.push(u64::from(r.src.0));
        d.push(u64::from(r.dst.0));
        d.push(r.size);
        d.push(r.start.as_ns());
        d.push(r.finish.map_or(u64::MAX, Time::as_ns));
    }
    d.value()
}

/// The model-side outputs of a finished run.
fn summary(sim: &Simulation, horizon: Time) -> Vec<(&'static str, Json)> {
    let records = sim.records();
    let fct = summarize(records, horizon);
    let makespan = records
        .iter()
        .filter_map(|r| r.finish)
        .max()
        .unwrap_or(Time::ZERO);
    let mut out: Vec<(&'static str, Json)> = counters(sim)
        .into_iter()
        .map(|(k, v)| (k, Json::Num(v)))
        .collect();
    out.extend([
        ("flows", Json::Num(fct.n as f64)),
        ("flows_unfinished", Json::Num(fct.unfinished as f64)),
        ("flows_small", Json::Num(fct.n_small as f64)),
        ("fct_mean_ms", Json::Num(fct.avg * 1e3)),
        ("fct_p99_ms", Json::Num(fct.p99 * 1e3)),
        ("fct_small_p99_ms", Json::Num(fct.p99_small * 1e3)),
        ("sim_makespan_ms", Json::Num(makespan.as_millis_f64())),
    ]);
    out
}

/// The correctness evidence the parent's gate reads.
fn evidence(sim: &Simulation, v: Variant) -> Vec<(&'static str, Json)> {
    let line_rate_bps = v.topology().host_link.rate_bps;
    let faster_than_line_rate = sim
        .records()
        .iter()
        .filter(|r| {
            r.finish
                .is_some_and(|f| f - r.start < Time::tx_time(r.size, line_rate_bps))
        })
        .count();
    vec![
        ("flows_expected", Json::Num(v.flows() as f64)),
        ("queue_clamps", Json::Num(sim.queue_clamps() as f64)),
        ("balanced", Json::Bool(sim.conservation().balanced())),
        (
            "faster_than_line_rate",
            Json::Num(faster_than_line_rate as f64),
        ),
        ("digest", Json::hex(sim.trace_digest())),
        ("records_hash", Json::hex(records_hash(sim.records()))),
    ]
}

fn host_readings(calib_start: f64) -> Vec<(&'static str, Json)> {
    vec![
        (
            "peak_rss_mb",
            stats::peak_rss_mb().map_or(Json::Null, Json::Num),
        ),
        ("calib_start_ns", Json::Num(calib_start)),
        ("calib_end_ns", Json::Num(stats::calib_ns_per_iter())),
    ]
}

/// Set-ups timed per child. One set-up is well under a millisecond, so
/// a single reading is mostly page faults and timer grain; the median
/// of several back-to-back ones is what `setup_s` reports.
const SETUP_REPS: usize = 31;

/// One untraced run: the source of every end-to-end number.
///
/// `setup_s` is the median of `SETUP_REPS` set-ups (topology,
/// `Simulation::new`, workload generation, `add_flows`/`set_driver`),
/// the last of which is the one that runs; `wall_s` brackets
/// `run_to_completion` only. The calibration loop runs before and
/// after, outside both.
pub fn run_untraced(v: Variant, seed: u64) -> Json {
    let calib_start = stats::calib_ns_per_iter();
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut b = None;
    for _ in 0..SETUP_REPS {
        drop(b.take());
        let start = Instant::now();
        b = Some(workloads::build(v, seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut b = b.expect("SETUP_REPS is at least 1");
    let setup_s = stats::median(&setups);

    let start = Instant::now();
    b.sim.run_to_completion(b.horizon);
    let wall_s = start.elapsed().as_secs_f64();

    let mut fields = vec![
        ("setup_s", Json::Num(setup_s)),
        ("wall_s", Json::Num(wall_s)),
    ];
    fields.extend(summary(&b.sim, b.horizon));
    fields.extend(evidence(&b.sim, v));
    fields.extend(host_readings(calib_start));
    Json::obj(fields)
}

/// One traced run: the harness drives `run_until` in 1 ms simulated
/// slices and records `run ⊃ {setup ⊃ {new_sim, generate, install},
/// slice…, summarize, verify}` with counter deltas per slice. Never
/// the source of an end-to-end number. Returns the report and the trace.
pub fn run_traced(v: Variant, seed: u64, run_id: String) -> (Json, Json) {
    let calib_start = stats::calib_ns_per_iter();
    let mut rec = Recorder::new(run_id);
    let run = rec.open("run");

    let setup = rec.open("setup");
    let s = rec.open("new_sim");
    let mut sim = workloads::new_sim(v, seed);
    rec.close(s, Vec::new());
    let s = rec.open("generate");
    let (input, horizon) = workloads::generate(v, seed);
    rec.close(s, Vec::new());
    let s = rec.open("install");
    workloads::install(&mut sim, input);
    rec.close(s, vec![("flows", v.flows() as f64)]);
    rec.close(setup, Vec::new());

    // `run_until` has no all-flows-done exit (that is
    // `run_to_completion`'s), so the slicer checks it at each boundary;
    // the last slice therefore dispatches a few timer events the
    // untraced run never reaches. Flow records are unaffected.
    let expected = v.flows();
    let start = Instant::now();
    let mut before = counters(&sim);
    let mut edge = Time::ZERO;
    while edge < horizon && sim.stats.flows_completed < expected {
        edge = (edge + SLICE).min(horizon);
        let s = rec.open("slice");
        sim.run_until(edge);
        let after = counters(&sim);
        rec.close(s, delta(&before, &after));
        before = after;
    }
    let wall_s = start.elapsed().as_secs_f64();

    let mut fields = vec![("wall_s", Json::Num(wall_s))];
    let s = rec.open("summarize");
    fields.extend(summary(&sim, horizon));
    rec.close(s, Vec::new());
    let s = rec.open("verify");
    fields.extend(evidence(&sim, v));
    rec.close(s, Vec::new());
    rec.close(run, Vec::new());

    // Per-slice ns/event, for the p50/p90 that localise bursts.
    let mut slice_ns_per_event = Vec::new();
    let mut install_ns = 0.0;
    for sp in rec.spans() {
        let dur = (sp.end_ns - sp.start_ns) as f64;
        match sp.name {
            "slice" => {
                let events = sp
                    .counts
                    .iter()
                    .find(|(k, _)| *k == "events")
                    .map_or(0.0, |c| c.1);
                if events > 0.0 {
                    slice_ns_per_event.push(dur / events);
                }
            }
            "install" => install_ns = dur,
            _ => {}
        }
    }
    fields.extend([
        ("slices", Json::Num(slice_ns_per_event.len() as f64)),
        (
            "slice_ns_per_event_p50",
            Json::Num(stats::quantile(&slice_ns_per_event, 0.5)),
        ),
        (
            "slice_ns_per_event_p90",
            Json::Num(stats::quantile(&slice_ns_per_event, 0.9)),
        ),
        ("install_ns", Json::Num(install_ns)),
    ]);
    fields.extend(host_readings(calib_start));
    (Json::obj(fields), rec.to_json())
}
