//! Perf-trajectory measurement: wall-clock, event and packet
//! throughput, and peak RSS for named bench points.
//!
//! This is the *measurement* half of the `xtask perf` harness. The
//! `perf_point` binary runs one named point in-process and prints a
//! machine-parseable `key=value` report; `xtask perf` runs that binary
//! once per scheduler build (timing wheel vs. the `heap-queue` feature
//! fallback), checks the event-trace digests match, and writes the
//! comparison to `BENCH_perf.json`. Methodology notes live in
//! DESIGN.md §11.
//!
//! Wall-clock code is deliberately quarantined here: `hermes-bench` is
//! the only crate the determinism lint allows to time real execution.

use std::time::Instant;

use hermes_core::HermesParams;
use hermes_net::Topology;
use hermes_runtime::Scheme;
use hermes_sim::Time;
use hermes_workload::FlowSizeDist;

use crate::runner::{run_point_detailed, PointCfg};

/// One timed run of a named point under the scheduler compiled in.
#[derive(Clone, Debug)]
pub struct PerfSample {
    /// Point name (`fig12_baseline`, …).
    pub point: String,
    /// `hermes_sim::SCHEDULER`: `"wheel"` or `"heap"`.
    pub scheduler: &'static str,
    /// End-to-end wall time of the simulation run, milliseconds.
    pub wall_ms: f64,
    /// Events dispatched.
    pub events: u64,
    /// Events dispatched per wall-clock second.
    pub events_per_sec: f64,
    /// Packets injected into the fabric.
    pub packets: u64,
    /// Injected packets per wall-clock second.
    pub packets_per_sec: f64,
    /// `VmHWM` of this process after the run, KiB (0 if unreadable).
    pub peak_rss_kb: u64,
    /// `TxDone` boundaries handled inline within packet trains (already
    /// counted in `events`; measures how often batching fired).
    pub trains_inlined: u64,
    /// Event-trace digest — must be identical across schedulers for
    /// the same (point, seed).
    pub digest: u64,
    /// Simulated time reached.
    pub sim_time: Time,
}

impl PerfSample {
    /// The `key=value` lines `xtask perf` parses back out of the child
    /// process. One field per line, stable names.
    pub fn to_report(&self) -> String {
        format!(
            "point={}\nscheduler={}\nwall_ms={:.3}\nevents={}\nevents_per_sec={:.0}\n\
             packets={}\npackets_per_sec={:.0}\npeak_rss_kb={}\ntrains_inlined={}\n\
             digest={:#018x}\nsim_time_ns={}\n",
            self.point,
            self.scheduler,
            self.wall_ms,
            self.events,
            self.events_per_sec,
            self.packets,
            self.packets_per_sec,
            self.peak_rss_kb,
            self.trains_inlined,
            self.digest,
            self.sim_time.as_ns(),
        )
    }
}

/// Names accepted by [`perf_point_cfg`], in display order.
pub const PERF_POINTS: &[&str] = &["fig12_baseline", "fig12_ecmp", "testbed_hermes"];

/// Build the [`PointCfg`] for a named perf point. `quick` shrinks the
/// flow count for CI smoke runs (same topology and scheme, different
/// digest — quick and full runs are only comparable to themselves).
pub fn perf_point_cfg(name: &str, quick: bool) -> Option<PointCfg> {
    let cfg = match name {
        // The headline point: the Figure 12 8×8 web-search baseline at
        // high load under Hermes — the paper's main simulation setting
        // and the heaviest regular consumer of the event queue.
        "fig12_baseline" => {
            let topo = Topology::sim_baseline();
            let params = HermesParams::from_topology(&topo);
            PointCfg::new(
                topo,
                Scheme::Hermes(params),
                FlowSizeDist::web_search(),
                0.8,
            )
            .flows(if quick { 250 } else { 2000 })
        }
        // Scheduler-dominated control: no LB state, pure queue churn.
        "fig12_ecmp" => PointCfg::new(
            Topology::sim_baseline(),
            Scheme::Ecmp,
            FlowSizeDist::web_search(),
            0.8,
        )
        .flows(if quick { 250 } else { 2000 }),
        // Small-topology sanity point (seconds even in debug builds).
        "testbed_hermes" => {
            let topo = Topology::testbed();
            let params = HermesParams::paper_testbed(&topo);
            PointCfg::new(
                topo,
                Scheme::Hermes(params),
                FlowSizeDist::web_search(),
                0.5,
            )
            .flows(if quick { 60 } else { 400 })
        }
        _ => return None,
    };
    Some(cfg)
}

/// Run one named point and time it. Returns `None` for unknown names.
pub fn measure_point(name: &str, quick: bool) -> Option<PerfSample> {
    let cfg = perf_point_cfg(name, quick)?;
    let started = Instant::now();
    let det = run_point_detailed(&cfg, Time::from_ms(1));
    let wall = started.elapsed();
    let wall_ms = wall.as_secs_f64() * 1e3;
    let secs = wall.as_secs_f64().max(1e-9);
    Some(PerfSample {
        point: name.to_string(),
        scheduler: hermes_sim::SCHEDULER,
        wall_ms,
        events: det.events,
        events_per_sec: det.events as f64 / secs,
        packets: det.conservation.injected,
        packets_per_sec: det.conservation.injected as f64 / secs,
        peak_rss_kb: peak_rss_kb(),
        trains_inlined: det.trains_inlined,
        digest: det.digest,
        sim_time: det.sim_time,
    })
}

/// `VmHWM` (peak resident set) of the current process in KiB, read
/// from `/proc/self/status`; 0 on non-Linux or if unreadable.
pub fn peak_rss_kb() -> u64 {
    match std::fs::read_to_string("/proc/self/status") {
        Ok(status) => parse_vm_hwm_kb(&status),
        Err(_) => 0,
    }
}

/// Extract the `VmHWM` value (KiB) from a `/proc/<pid>/status` body.
/// Returns 0 when the line is absent or malformed — callers treat 0 as
/// "RSS unavailable" and skip RSS-based gating with a notice.
pub fn parse_vm_hwm_kb(status: &str) -> u64 {
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_point_builds() {
        for name in PERF_POINTS {
            assert!(perf_point_cfg(name, true).is_some(), "{name}");
            assert!(perf_point_cfg(name, false).is_some(), "{name}");
        }
        assert!(perf_point_cfg("no_such_point", true).is_none());
    }

    #[test]
    fn quick_points_shrink_the_flow_count() {
        for name in PERF_POINTS {
            let quick = perf_point_cfg(name, true).expect("named point");
            let full = perf_point_cfg(name, false).expect("named point");
            assert!(quick.n_flows < full.n_flows, "{name}");
        }
    }

    #[test]
    fn vm_hwm_parser_handles_fixture_and_edge_cases() {
        // Representative /proc/self/status excerpt (tab-separated, with
        // surrounding fields the parser must skip).
        let fixture = "Name:\tperf_point\nVmPeak:\t  190724 kB\nVmHWM:\t  144100 kB\n\
                       VmRSS:\t  101832 kB\nThreads:\t1\n";
        assert_eq!(parse_vm_hwm_kb(fixture), 144_100);
        // Missing line → 0 ("unavailable", gate skips with a notice).
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t5 kB\n"), 0);
        // Malformed value → 0, not a panic.
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), 0);
        assert_eq!(parse_vm_hwm_kb(""), 0);
        // No unit suffix still parses (the kernel always writes one,
        // but the parser must not depend on it).
        assert_eq!(parse_vm_hwm_kb("VmHWM: 512\n"), 512);
    }

    #[test]
    fn peak_rss_is_readable_on_linux() {
        // The harness records RSS per scheduler build; on the Linux CI
        // hosts the probe must actually work.
        if cfg!(target_os = "linux") {
            assert!(peak_rss_kb() > 0);
        }
    }

    #[test]
    fn measure_reports_consistent_rates() {
        let s = measure_point("testbed_hermes", true).expect("known point");
        assert_eq!(s.scheduler, hermes_sim::SCHEDULER);
        assert!(s.events > 0 && s.packets > 0);
        assert!(s.wall_ms > 0.0);
        let implied = s.events as f64 / (s.wall_ms / 1e3);
        assert!(
            (implied - s.events_per_sec).abs() / s.events_per_sec < 1e-6,
            "rate must be derived from the same wall measurement"
        );
        let report = s.to_report();
        for key in [
            "point=",
            "scheduler=",
            "wall_ms=",
            "events=",
            "packets=",
            "peak_rss_kb=",
            "trains_inlined=",
            "digest=",
        ] {
            assert!(report.contains(key), "missing {key} in {report}");
        }
    }
}
