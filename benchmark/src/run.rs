//! The parent side of one measurement: runs children one at a time,
//! holds every run to the correctness gate and assembles the metrics.
//!
//! The parent never runs the simulator itself and starts no threads;
//! each (workload, rep), each traced run and the probes get a fresh
//! child (`current_exe() --child …`), at most one alive at a time.

use std::path::PathBuf;
use std::process::{Command, Stdio};

use crate::child;
use crate::cli::{Cli, Job, JobKind};
use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::probes;
use crate::stats::{highest_supported_percentile, median};
use crate::workloads::{Workload, WORKLOADS};

/// Where the traced runs and the report are written, from the root of
/// the checkout (`run.sh` changes into it).
pub const OUT_DIR: &str = "benchmark/out";

/// Rep `rep` of a measurement seeded `seed` runs this seed. Rep 0 is
/// the seed itself (so `--seed 1` names `fig12_baseline`'s arrivals);
/// later reps are far enough apart that neighbouring `--seed`s never
/// share one.
fn sub_seed(seed: u64, rep: u64) -> u64 {
    seed.wrapping_add(rep.wrapping_mul(1_000_003))
}

// ---- children -------------------------------------------------------

pub fn child_main(job: &Job) {
    let report = match job.kind {
        JobKind::Run => child::run_untraced(job.variant(), job.seed),
        JobKind::Probes => probes::run_all(),
        JobKind::Trace => {
            let run_id = format!("{}-seed{}", job.workload, job.seed);
            let (report, trace) = child::run_traced(job.variant(), job.seed, run_id);
            let path = PathBuf::from(OUT_DIR).join(format!("trace-{}.json", job.workload));
            std::fs::create_dir_all(OUT_DIR)
                .and_then(|()| std::fs::write(&path, format!("{trace}\n")))
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            report
        }
    };
    println!("{report}");
}

/// Runs children for one invocation and keeps their host readings.
pub struct Runner<'a> {
    pub cli: &'a Cli,
    /// Calibration readings of every child so far, start and end.
    pub calib: Vec<f64>,
}

impl<'a> Runner<'a> {
    pub fn new(cli: &'a Cli) -> Runner<'a> {
        Runner {
            cli,
            calib: Vec::new(),
        }
    }

    fn job(&self, kind: JobKind, w: &'static Workload, seed: u64) -> Job {
        Job {
            kind,
            workload: w.name,
            seed,
            no_core: false,
            no_faults: false,
            smoke: self.cli.smoke,
        }
    }

    /// Run one child to completion and parse its one-line report.
    fn run(&mut self, job: Job) -> Result<Json, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let out = Command::new(exe)
            .args(job.args())
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning child: {e}"))?;
        if !out.status.success() {
            return Err(format!("child {job:?} exited with {}", out.status));
        }
        let text = String::from_utf8_lossy(&out.stdout);
        let report = Json::parse(text.lines().last().unwrap_or_default())
            .map_err(|e| format!("child {job:?} report: {e}"))?;
        for k in ["calib_start_ns", "calib_end_ns"] {
            self.calib.extend(report.get(k).and_then(Json::as_f64));
        }
        Ok(report)
    }

    pub fn probes(&mut self) -> Result<Json, String> {
        // The probes touch no workload; any name fills the job's slot.
        self.run(self.job(JobKind::Probes, &WORKLOADS[0], 0))
    }
}

// ---- the correctness gate -------------------------------------------

fn num(report: &Json, key: &str) -> f64 {
    report
        .get(key)
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("child report lacks number {key:?}: {report}"))
}

fn text<'a>(report: &'a Json, key: &str) -> &'a str {
    report
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("child report lacks string {key:?}: {report}"))
}

/// What one finished run must satisfy on its own.
fn gate(what: &str, report: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    if report.get("balanced").and_then(Json::as_bool) != Some(true) {
        bad.push(format!("{what}: conservation ledger unbalanced"));
    }
    for (key, wrong) in [
        ("queue_clamps", "past-time schedules clamped"),
        (
            "faster_than_line_rate",
            "flows finished faster than their line-rate serialization",
        ),
    ] {
        if num(report, key) != 0.0 {
            bad.push(format!("{what}: {} {wrong}", num(report, key)));
        }
    }
    if num(report, "flows") != num(report, "flows_expected") {
        bad.push(format!(
            "{what}: released {} flows, expected {}",
            num(report, "flows"),
            num(report, "flows_expected")
        ));
    }
    bad
}

/// Flows a run attempted and failed: a run that trips the gate fails
/// them all, otherwise the unfinished and the never-released fail.
fn attempted_failed(report: &Json, gate_tripped: bool) -> (u64, u64) {
    let expected = num(report, "flows_expected");
    let failed = if gate_tripped {
        expected
    } else {
        num(report, "flows_unfinished") + (expected - num(report, "flows")).max(0.0)
    };
    (expected as u64, failed as u64)
}

/// Everything a same-seed rerun must reproduce exactly.
const EXACT: [&str; 7] = [
    "events",
    "pkts_injected",
    "fct_mean_ms",
    "fct_p99_ms",
    "fct_small_p99_ms",
    "sim_makespan_ms",
    "flows_unfinished",
];

fn same_run(what: &str, a: &Json, b: &Json) -> Vec<String> {
    let mut bad = Vec::new();
    for key in ["digest", "records_hash"] {
        if text(a, key) != text(b, key) {
            bad.push(format!(
                "{what}: {key} {} vs {}",
                text(a, key),
                text(b, key)
            ));
        }
    }
    for key in EXACT {
        if num(a, key) != num(b, key) {
            bad.push(format!("{what}: {key} {} vs {}", num(a, key), num(b, key)));
        }
    }
    bad
}

// ---- one measurement ------------------------------------------------

/// The outcome of one `(workload, trace)` measurement: the contract's
/// result object plus what the report keeps beside it.
pub struct Measurement {
    pub workload: &'static str,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Per-rep samples behind each end-to-end metric (empty for the
    /// per-layer pass).
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub digests: Vec<String>,
    /// Exact simulated readings printed and kept beside the metrics.
    pub notes: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
}

impl Measurement {
    pub fn correct(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .1
    }

    /// The one-line result object of the contract.
    pub fn line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        *name,
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }

    pub fn print(&self, title: &str) {
        println!("== {} · {title}", self.workload);
        for (name, value, unit) in &self.metrics {
            let n = self
                .samples
                .iter()
                .find(|s| s.0 == *name)
                .map_or(String::new(), |s| format!("  (n = {} reps)", s.1.len()));
            println!("{name:<36} {value:>18.6} {unit}{n}");
        }
        for note in &self.notes {
            println!("{note}");
        }
        println!(
            "attempted {} flows, failed {} (unfinished_frac {})",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for v in &self.violations {
            println!("VIOLATION {v}");
        }
    }
}

/// One rep's reading of an end-to-end metric (NaN where the child could
/// not take it, which the gate has then already flagged).
fn end_to_end_sample(report: &Json, metric: &str) -> f64 {
    match metric {
        "pkts_per_s" => num(report, "pkts_injected") / num(report, "wall_s"),
        "peak_rss_mb" => report
            .get(metric)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN),
        _ => num(report, metric),
    }
}

fn assemble_end_to_end(w: &'static Workload, reps: &[Json], smoke: bool) -> Measurement {
    let mut violations = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for (i, rep) in reps.iter().enumerate() {
        let mut bad = gate(&format!("rep {i}"), rep);
        if end_to_end_sample(rep, "peak_rss_mb").is_nan() {
            bad.push(format!("rep {i}: VmHWM unreadable, no peak_rss_mb"));
        }
        // A p99 needs ten flows beyond it; the smoke shape has too few,
        // one more reason its numbers are not comparable.
        let flows = num(rep, "flows") as usize;
        if !smoke && highest_supported_percentile(flows) < Some(0.99) {
            bad.push(format!("rep {i}: {flows} flows cannot support fct_p99_ms"));
        }
        let (a, f) = attempted_failed(rep, !bad.is_empty());
        attempted += a;
        failed += f;
        violations.extend(bad);
    }
    // Each rep has its own seed, and a seed must reach the program: two
    // reps with one digest mean it did not.
    let digests: Vec<String> = reps.iter().map(|r| text(r, "digest").to_string()).collect();
    for (i, d) in digests.iter().enumerate() {
        if digests[..i].contains(d) {
            violations.push(format!("rep {i}: digest {d} repeats under another seed"));
        }
    }
    let samples: Vec<(&'static str, Vec<f64>)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name,
                reps.iter().map(|r| end_to_end_sample(r, m.name)).collect(),
            )
        })
        .collect();
    Measurement {
        workload: w.name,
        metrics: END_TO_END
            .iter()
            .zip(&samples)
            .map(|(m, s)| {
                let value = if m.simulated {
                    s.1.iter().sum::<f64>() / s.1.len() as f64
                } else {
                    median(&s.1)
                };
                (m.name, value, m.unit)
            })
            .collect(),
        samples,
        digests,
        notes: Vec::new(),
        attempted,
        failed,
        violations,
    }
}

/// The untraced pass: `reps` fresh children per workload, each rep on
/// its own seed, interleaved round-robin across `workloads` so host
/// drift hits them alike. A host-time metric is the median over the
/// reps; a simulated-time metric, which has no host noise to shed, is
/// the mean over the reps' seeds.
pub fn measure_end_to_end(
    r: &mut Runner,
    workloads: &[&'static Workload],
) -> Result<Vec<Measurement>, String> {
    let mut reports: Vec<Vec<Json>> = vec![Vec::new(); workloads.len()];
    for rep in 0..r.cli.reps() {
        for (w, reports) in workloads.iter().zip(&mut reports) {
            let job = r.job(JobKind::Run, w, sub_seed(r.cli.seed, rep));
            reports.push(r.run(job)?);
        }
    }
    Ok(workloads
        .iter()
        .zip(&reports)
        .map(|(w, reps)| assemble_end_to_end(w, reps, r.cli.smoke))
        .collect())
}

/// The four runs of one workload's per-layer pass, all on one seed.
struct LayerRuns {
    /// Untraced: the base every share and marginal is taken of.
    base: Json,
    traced: Json,
    /// The ladder siblings. A sibling that would equal the workload (no
    /// such layer to take out) is a same-seed rerun instead, which must
    /// reproduce the base exactly and whose difference is the noise
    /// floor of the ladder.
    no_core: Json,
    no_faults: Json,
}

fn check_layers(w: &Workload, runs: &LayerRuns) -> Vec<String> {
    let mut bad = gate("untraced", &runs.base);
    bad.extend(gate("traced", &runs.traced));
    bad.extend(gate("no-core sibling", &runs.no_core));
    bad.extend(gate("no-faults sibling", &runs.no_faults));
    // Slicing changes where the run stops, never what the flows did.
    if text(&runs.traced, "records_hash") != text(&runs.base, "records_hash") {
        bad.push("traced run's flow records differ from the untraced run's".into());
    }
    if !w.variant.hermes {
        bad.extend(same_run("same-seed rerun", &runs.base, &runs.no_core));
    }
    if !w.variant.faults {
        bad.extend(same_run("same-seed rerun", &runs.base, &runs.no_faults));
    }
    bad
}

fn assemble_layers(
    w: &'static Workload,
    runs: &LayerRuns,
    probes: &Json,
    calib_ns: f64,
) -> Measurement {
    let LayerRuns {
        base,
        traced,
        no_core,
        no_faults,
    } = runs;
    let violations = check_layers(w, runs);
    let (attempted, failed) = attempted_failed(base, !violations.is_empty());

    let probe = |name: &str| num(probes, name);
    let wall_ns = num(base, "wall_s") * 1e9;
    let ns_per_event = |rep: &Json| num(rep, "wall_s") * 1e9 / num(rep, "events");
    let events = num(base, "events");
    let injected = num(base, "pkts_injected");
    let delivered = num(base, "pkts_delivered");
    let flows = num(base, "flows");
    let reused = num(base, "pool_reused");
    // Probe × exact count ÷ wall: what each layer's isolated cost would
    // add up to if nothing else were going on.
    let churn = probe(if w.variant.deep_queue() {
        "sim.queue_churn_ns_100k"
    } else {
        "sim.queue_churn_ns_1k"
    });
    let sim_share = events * churn / wall_ns;
    let port_share = events / 2.0 * probe("net.port_cycle_ns") / wall_ns;
    let pool_share = injected * probe("net.pool_cycle_ns") / wall_ns;
    let digest_share = events * probe("net.digest_ns_per_event") / wall_ns;
    let transport_share = delivered / 2.0
        * (probe("transport.sender_ack_ns") + probe("transport.receiver_data_ns"))
        / wall_ns;
    let cores = std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64);

    let value = |name: &str| -> f64 {
        match name {
            "runtime.ns_per_event" => ns_per_event(base),
            "runtime.slice_ns_per_event_p50" => num(traced, "slice_ns_per_event_p50"),
            "runtime.slice_ns_per_event_p90" => num(traced, "slice_ns_per_event_p90"),
            "runtime.events" => events,
            "runtime.events_per_pkt" => events / injected,
            "runtime.trace_overhead_frac" => num(traced, "wall_s") / num(base, "wall_s") - 1.0,
            "runtime.unattributed_share" => {
                1.0 - (sim_share + port_share + pool_share + digest_share + transport_share)
            }
            "sim.est_share" => sim_share,
            "sim.queue_clamps" => num(base, "queue_clamps"),
            "net.port_est_share" => port_share,
            "net.pool_est_share" => pool_share,
            "net.digest_est_share" => digest_share,
            "net.pkts_injected" => injected,
            "net.pkts_delivered" => delivered,
            "net.delivered_per_injected" => delivered / injected,
            "net.drops_full" => num(base, "drops_full"),
            "net.drops_failure" => num(base, "drops_failure"),
            "net.ecn_marks" => num(base, "ecn_marks"),
            "net.trains_inlined" => num(base, "trains_inlined"),
            "net.trains_inlined_per_kevent" => num(base, "trains_inlined") / events * 1e3,
            "net.pool_fresh" => num(base, "pool_fresh"),
            "net.pool_reuse_ratio" => reused / (reused + num(base, "pool_fresh")),
            "net.pool_trimmed" => num(base, "pool_trimmed"),
            "net.fault_marginal_ns_per_event" => ns_per_event(base) - ns_per_event(no_faults),
            "transport.est_share" => transport_share,
            "transport.ooo_packets" => num(base, "ooo_packets"),
            "core.marginal_ns_per_event" => ns_per_event(base) - ns_per_event(no_core),
            "core.probes_sent" => num(base, "probes_sent"),
            "core.probe_responses" => num(base, "probe_responses"),
            "core.probe_timeouts" => num(base, "probe_timeouts"),
            "core.path_changes" => num(base, "path_changes"),
            "core.path_changes_per_kflow" => num(base, "path_changes") / flows * 1e3,
            "workload.install_ns_per_flow" => num(traced, "install_ns") / flows,
            "workload.flows" => flows,
            "workload.flows_unfinished" => num(base, "flows_unfinished"),
            "workload.flows_small" => num(base, "flows_small"),
            "host.calib_ns_per_iter" => calib_ns,
            "host.cores" => cores,
            probed => probe(probed),
        }
    };
    Measurement {
        workload: w.name,
        metrics: PER_LAYER
            .iter()
            .map(|m| (m.name, value(m.name), m.unit))
            .collect(),
        samples: Vec::new(),
        digests: vec![text(base, "digest").to_string()],
        // The paper's small-flow tail. Exact per seed, but across seeds
        // it flips with whether 1 % of the small flows met an RTO, so it
        // carries no bound and stays out of BENCHMARK.json (README.md).
        notes: vec![format!(
            "fct_small_p99_ms {} ms over workload.flows_small flows under 100 KB",
            num(base, "fct_small_p99_ms")
        )],
        attempted,
        failed,
        violations,
    }
}

/// The per-layer pass for one workload, all on rep 0's seed: an
/// untraced run, the traced run, and the two ladder siblings, priced
/// with `probes`.
pub fn measure_layers(
    r: &mut Runner,
    w: &'static Workload,
    probes: &Json,
) -> Result<Measurement, String> {
    let seed = sub_seed(r.cli.seed, 0);
    let run = r.job(JobKind::Run, w, seed);
    let base = r.run(run)?;
    let traced = r.run(r.job(JobKind::Trace, w, seed))?;
    let no_core = r.run(Job {
        no_core: true,
        ..run
    })?;
    // With neither layer in the workload both siblings are the same
    // rerun; one run serves for both.
    let no_faults = if w.variant.hermes || w.variant.faults {
        r.run(Job {
            no_faults: true,
            ..run
        })?
    } else {
        no_core.clone()
    };
    let runs = LayerRuns {
        base,
        traced,
        no_core,
        no_faults,
    };
    Ok(assemble_layers(w, &runs, probes, median(&r.calib)))
}

pub fn label(cli: &Cli) -> &'static str {
    if cli.smoke {
        "SMOKE, 1/10 scale: not comparable with a full run"
    } else {
        "full"
    }
}

/// `--workload W --seed N --seconds S --trace T`: one measurement,
/// its result object the last line of stdout.
pub fn measure_main(cli: &Cli, w: &'static Workload, trace: bool) -> bool {
    let mut r = Runner::new(cli);
    let (m, pass) = if trace {
        let m = r.probes().and_then(|p| measure_layers(&mut r, w, &p));
        (m, "per-layer: traced run + probes + ladder".to_string())
    } else {
        let m = measure_end_to_end(&mut r, &[w]).map(|mut v| v.remove(0));
        (m, format!("end to end, tracing off, {} reps", cli.reps()))
    };
    match m {
        Ok(m) => {
            m.print(&format!("{} · seed {} · {pass}", label(cli), cli.seed));
            println!("{}", m.line());
            m.correct()
        }
        Err(e) => {
            eprintln!("hermes-benchmark: {e}");
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::by_name;

    /// A child report as a healthy websearch rep would print it.
    fn rep(seed: u64) -> Json {
        let mut fields = vec![
            ("setup_s", Json::Num(0.0005)),
            ("wall_s", Json::Num(8.0 + seed as f64 / 10.0)),
            ("events", Json::Num(42_000_000.0 + seed as f64)),
            ("pkts_injected", Json::Num(5_000_000.0)),
            ("flows", Json::Num(2000.0)),
            ("flows_expected", Json::Num(2000.0)),
            ("flows_unfinished", Json::Num(0.0)),
            ("flows_small", Json::Num(1098.0)),
            ("fct_mean_ms", Json::Num(5.0 + seed as f64)),
            ("fct_p99_ms", Json::Num(60.0)),
            ("fct_small_p99_ms", Json::Num(2.0)),
            ("sim_makespan_ms", Json::Num(117.0)),
            ("queue_clamps", Json::Num(0.0)),
            ("faster_than_line_rate", Json::Num(0.0)),
            ("balanced", Json::Bool(true)),
            ("digest", Json::hex(0xabc0 + seed)),
            ("records_hash", Json::hex(0xdef0 + seed)),
            ("peak_rss_mb", Json::Num(25.0)),
        ];
        // The counters and trace readings only the layer pass looks at.
        for k in [
            "pkts_delivered",
            "drops_full",
            "drops_failure",
            "ecn_marks",
            "trains_inlined",
            "pool_fresh",
            "pool_reused",
            "pool_trimmed",
            "ooo_packets",
            "probes_sent",
            "probe_responses",
            "probe_timeouts",
            "path_changes",
            "slice_ns_per_event_p50",
            "slice_ns_per_event_p90",
            "install_ns",
        ] {
            fields.push((k, Json::Num(1000.0)));
        }
        Json::obj(fields)
    }

    fn with(report: &Json, key: &str, value: Json) -> Json {
        let Json::Obj(fields) = report else {
            panic!("reports are objects")
        };
        Json::Obj(
            fields
                .iter()
                .map(|(k, v)| {
                    let v = if k == key { &value } else { v };
                    (k.clone(), v.clone())
                })
                .collect(),
        )
    }

    fn websearch() -> &'static Workload {
        by_name("websearch_hermes").expect("listed")
    }

    #[test]
    fn host_metrics_take_the_median_and_simulated_ones_the_mean() {
        let reps = [rep(1), rep(2), rep(6)];
        let m = assemble_end_to_end(websearch(), &reps, false);
        assert!(m.correct(), "{:?}", m.violations);
        assert_eq!((m.attempted, m.failed), (6000, 0));
        assert_eq!(m.value("wall_s"), 8.2);
        assert_eq!(m.value("fct_mean_ms"), 8.0);
        assert_eq!(m.value("pkts_per_s"), 5_000_000.0 / 8.2);
        let line = m.line();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let names: Vec<&str> = match line.get("metrics") {
            Some(Json::Obj(f)) => f.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("metrics: {other:?}"),
        };
        assert_eq!(names, END_TO_END.map(|m| m.name));
    }

    #[test]
    fn a_rep_that_trips_the_gate_fails_all_its_flows() {
        for (key, value) in [
            ("balanced", Json::Bool(false)),
            ("queue_clamps", Json::Num(3.0)),
            ("faster_than_line_rate", Json::Num(1.0)),
            ("flows", Json::Num(1999.0)),
            ("peak_rss_mb", Json::Null),
        ] {
            let reps = [rep(1), with(&rep(2), key, value), rep(3)];
            let m = assemble_end_to_end(websearch(), &reps, false);
            assert!(!m.correct(), "{key} went unnoticed");
            assert_eq!((m.attempted, m.failed), (6000, 2000), "{key}");
        }
    }

    #[test]
    fn unfinished_flows_fail_without_tripping_the_gate() {
        let reps = [with(&rep(1), "flows_unfinished", Json::Num(7.0)), rep(2)];
        let m = assemble_end_to_end(websearch(), &reps, false);
        assert!(m.correct());
        assert_eq!((m.attempted, m.failed), (4000, 7));
    }

    #[test]
    fn a_seed_that_does_not_reach_the_program_is_caught() {
        let reps = [rep(1), with(&rep(2), "digest", Json::hex(0xabc1))];
        let m = assemble_end_to_end(websearch(), &reps, false);
        assert!(
            m.violations.iter().any(|v| v.contains("repeats")),
            "{:?}",
            m.violations
        );
    }

    #[test]
    fn too_few_flows_for_a_p99_is_a_violation_except_in_smoke() {
        let small = with(&rep(1), "flows", Json::Num(200.0));
        let small = with(&small, "flows_expected", Json::Num(200.0));
        let small = std::slice::from_ref(&small);
        assert!(!assemble_end_to_end(websearch(), small, false).correct());
        assert!(assemble_end_to_end(websearch(), small, true).correct());
    }

    #[test]
    fn sub_seeds_of_neighbouring_seeds_never_collide() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..1000 {
            for rep in 0..7 {
                assert!(seen.insert(sub_seed(seed, rep)));
            }
        }
        assert_eq!(sub_seed(1, 0), 1);
    }

    /// Base 8.0 s, traced 8.4 s; a sibling with a layer taken out is a
    /// different, faster run, one with nothing to take out a rerun.
    fn layer_runs(w: &Workload) -> LayerRuns {
        let base = with(&rep(1), "wall_s", Json::Num(8.0));
        let sibling = |rerun: bool| {
            if rerun {
                with(&base, "wall_s", Json::Num(8.1))
            } else {
                with(
                    &with(&base, "wall_s", Json::Num(7.0)),
                    "digest",
                    Json::hex(1),
                )
            }
        };
        LayerRuns {
            traced: with(
                &with(&base, "wall_s", Json::Num(8.4)),
                "digest",
                Json::hex(2),
            ),
            no_core: sibling(!w.variant.hermes),
            no_faults: sibling(!w.variant.faults),
            base,
        }
    }

    /// What `probes::run_all` reports, without running it.
    fn probe_report() -> Json {
        Json::obj(
            [
                "sim.queue_churn_ns_1k",
                "sim.queue_churn_ns_100k",
                "net.port_cycle_ns",
                "net.pool_cycle_ns",
                "net.digest_ns_per_event",
                "transport.sender_ack_ns",
                "transport.receiver_data_ns",
                "workload.flowgen_ns_per_flow",
            ]
            .map(|n| (n, Json::Num(10.0))),
        )
    }

    #[test]
    fn the_layer_pass_emits_the_whole_catalogue_and_the_shares_add_up() {
        for w in &WORKLOADS {
            let m = assemble_layers(w, &layer_runs(w), &probe_report(), 2.1);
            assert!(m.correct(), "{}: {:?}", w.name, m.violations);
            let names: Vec<&str> = m.metrics.iter().map(|x| x.0).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.name));
            assert!(m.metrics.iter().all(|x| x.1.is_finite()), "{:?}", m.metrics);
            let shares: f64 = [
                "sim.",
                "net.port_",
                "net.pool_",
                "net.digest_",
                "transport.",
            ]
            .iter()
            .map(|l| m.value(&format!("{l}est_share")))
            .sum();
            assert!((shares + m.value("runtime.unattributed_share") - 1.0).abs() < 1e-12);
            assert!((m.value("runtime.trace_overhead_frac") - 0.05).abs() < 1e-9);
            assert_eq!(m.value("host.calib_ns_per_iter"), 2.1);
            assert!(
                m.notes[0].starts_with("fct_small_p99_ms 2 ms"),
                "{:?}",
                m.notes
            );
        }
    }

    #[test]
    fn the_layer_pass_holds_the_trace_and_the_reruns_to_the_base() {
        let w = by_name("websearch_ecmp").expect("listed");
        let mut runs = layer_runs(w);
        runs.traced = with(&runs.traced, "records_hash", Json::hex(9));
        let m = assemble_layers(w, &runs, &probe_report(), 2.1);
        assert!(m
            .violations
            .iter()
            .any(|v| v.contains("flow records differ")));
        assert_eq!((m.attempted, m.failed), (2000, 2000));

        let mut runs = layer_runs(w);
        runs.no_core = with(&runs.no_core, "events", Json::Num(1.0));
        let m = assemble_layers(w, &runs, &probe_report(), 2.1);
        assert!(m
            .violations
            .iter()
            .any(|v| v.contains("same-seed rerun: events")));

        // A sibling with a layer taken out is a different run, free to differ.
        let w = by_name("failure_hermes").expect("listed");
        assert!(assemble_layers(w, &layer_runs(w), &probe_report(), 2.1).correct());
    }
}
