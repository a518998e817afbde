//! Experiment-point runners: one (topology, scheme, workload, seed)
//! tuple → [`RunReport`], and the same-seed replay check over a
//! hand-built [`Simulation`]. [`crate::run_points`] runs a list of them
//! across every core.

use hermes_net::ConservationReport;
use hermes_runtime::{Probe, SimConfig, Simulation, MAX_FLOW_ID};
use hermes_sim::{SimRng, Time};
use hermes_workload::{
    records_hash, summarize, FctSummary, FlowGen, FlowRecord, FlowSpec, IncastDriver,
    RingAllreduce, WorkloadKind,
};

/// One experiment point: the simulation it builds plus the workload
/// that drives it.
#[derive(Clone, Debug)]
pub struct PointCfg {
    /// Topology, scheme, seed, transport and the fault plan: everything
    /// [`Simulation::new`] takes.
    pub sim: SimConfig,
    /// Which traffic shape drives the point, with its own parameters:
    /// `Poisson` pre-schedules its open-loop arrivals, `Flows` its own
    /// list; the staged-dependency kinds install a
    /// [`hermes_workload::FlowDriver`].
    pub workload: WorkloadKind,
    /// Extra simulated time after the last arrival before declaring
    /// remaining flows unfinished.
    pub drain: Time,
    /// Sample total goodput at this cadence into [`RunReport::goodput`].
    /// The sampler's ticks are `Global` events in the digested trace, so
    /// a digest is comparable only between runs with the same interval
    /// (the goldens are pinned with the scenario's). Ticks never touch
    /// RNG streams or flow state: FCTs and records are identical with
    /// and without. `None` (the default) schedules no sampler.
    pub goodput_interval: Option<Time>,
}

impl PointCfg {
    pub fn new(sim: SimConfig, workload: WorkloadKind) -> PointCfg {
        PointCfg {
            sim,
            workload,
            drain: Time::from_secs(3),
            goodput_interval: None,
        }
    }

    pub fn drain(mut self, d: Time) -> PointCfg {
        self.drain = d;
        self
    }

    pub fn goodput_interval(mut self, i: Time) -> PointCfg {
        self.goodput_interval = Some(i);
        self
    }

    /// Check that the assembled point can run, before anything indexes
    /// the fabric with it:
    ///
    /// * a Poisson workload has `load ∈ (0, 1.5]` (`FlowGen`'s range),
    ///   between one flow and one per id the timers can carry (flow ids
    ///   run `0..flows`), an expected schedule span `flows / λ` within
    ///   `Time::MAX / 64` and, with the elephant/mice law, a valid mix;
    /// * ring ranks and the incast fanout fit the topology;
    /// * an explicit flow list is not empty, and every flow has an id
    ///   the timers can carry, listed once, and two distinct hosts of
    ///   the topology;
    /// * the fault plan, static failures included, passes
    ///   [`hermes_net::FaultPlan::validate_on`];
    /// * every pair of leaves still shares a live spine.
    pub fn validate(&self) -> Result<(), PointError> {
        use PointField::{Faults, Flows, Load, Topology as Topo, Workload as W};
        let need = |field, ok: bool, msg: String| match ok {
            true => Ok(()),
            false => Err(PointError { field, msg }),
        };
        let one = || "must be at least 1".to_string();
        let topo = &self.sim.topo;
        match &self.workload {
            WorkloadKind::Poisson(p) => {
                // `contains` is false for NaN.
                let load = (f64::MIN_POSITIVE..=1.5).contains(&p.load);
                need(Load, load, format!("{} must lie in (0, 1.5]", p.load))?;
                need(Flows, p.flows >= 1, one())?;
                let ids = u64::try_from(p.flows).is_ok_and(|n| n <= MAX_FLOW_ID + 1);
                let msg = format!("{} exceeds MAX_FLOW_ID + 1 ({})", p.flows, MAX_FLOW_ID + 1);
                need(Flows, ids, msg)?;
                if let Some(m) = p.dist.mix() {
                    need(W("mice_bytes"), m.mice_bytes >= 1, one())?;
                    let (bigger, msg) =
                        (m.elephant_bytes > m.mice_bytes, "must exceed the mice size");
                    need(W("elephant_bytes"), bigger, msg.into())?;
                    let frac = (0.0..=1.0).contains(&m.elephant_frac);
                    let msg = format!("{} must lie in [0, 1]", m.elephant_frac);
                    need(W("elephant_frac"), frac, msg)?;
                }
                // The arrival rate exactly as `FlowGen::new` computes it.
                let cap = p.capacity.unwrap_or_else(|| topo.total_uplink_bps()) as f64;
                let lambda = p.load * cap / (p.dist.mean_bytes() * 8.0);
                let span = p.flows as f64 * (1.0 / lambda);
                let msg = format!(
                    "{:e} is too small: {} arrivals would span {span:.3e} s on average, \
                     past Time::MAX / 64 ({MAX_ARRIVAL_SPAN_S:.3e} s)",
                    p.load, p.flows
                );
                need(Load, span <= MAX_ARRIVAL_SPAN_S, msg)?;
            }
            WorkloadKind::RingAllreduce(r) => {
                let hosts = topo.n_hosts();
                let msg = format!("{} must lie in [2, {hosts}], the topology's hosts", r.ranks);
                need(W("ranks"), (2..=hosts).contains(&r.ranks), msg)?;
                need(W("steps"), r.steps >= 1, one())?;
                need(W("chunk_bytes"), r.chunk_bytes >= 1, one())?;
            }
            WorkloadKind::Incast(c) => {
                // Clients sit outside the aggregator's rack.
                let clients = topo.n_leaves.saturating_sub(1) * topo.hosts_per_leaf;
                let msg = format!(
                    "{} must lie in [1, {clients}], hosts outside a rack",
                    c.fanout
                );
                need(W("fanout"), (1..=clients).contains(&c.fanout), msg)?;
                need(W("reply_bytes"), c.reply_bytes >= 1, one())?;
                need(W("bursts"), c.bursts >= 1, one())?;
            }
            WorkloadKind::Flows(specs) => {
                need(Flows, !specs.is_empty(), "must not be empty".into())?;
                let hosts = topo.n_hosts();
                let mut seen = std::collections::BTreeSet::new();
                for f in specs {
                    let (id, src, dst) = (f.id.0, f.src.0 as usize, f.dst.0 as usize);
                    let refuse = |field, what| need(W(field), false, format!("flow {id}: {what}"));
                    if id > MAX_FLOW_ID {
                        refuse("id", format!("exceeds MAX_FLOW_ID ({MAX_FLOW_ID})"))?;
                    }
                    if !seen.insert(id) {
                        refuse("id", "listed twice".into())?;
                    }
                    for (field, host) in [("src", src), ("dst", dst)] {
                        if host >= hosts {
                            refuse(field, format!("host {host} must lie below {hosts}"))?;
                        }
                    }
                    if src == dst {
                        refuse("dst", "must differ from src".into())?;
                    }
                }
            }
        }
        let fits = self.sim.fault_plan.validate_on(topo);
        fits.or_else(|e| need(Faults, false, e.to_string()))?;
        topo.check_connected().or_else(|msg| need(Topo, false, msg))
    }
}

/// The longest expected arrival schedule, `flows / λ`, a Poisson point
/// may ask for: `Time::MAX / 64`, about 9 years. Past `Time::MAX` the
/// arrival clock saturates and every later flow starts at the end of
/// time; one exponential gap passes 64 means with probability e⁻⁶⁴, so a
/// point within this bound never gets there.
const MAX_ARRIVAL_SPAN_S: f64 = Time::MAX.as_ns() as f64 / 64.0 / 1e9;

/// The part of a [`PointCfg`] a [`PointError`] is about. The scenario
/// loader names it by its file key (`` `load` ``).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointField {
    Load,
    Flows,
    /// A parameter of the workload, by its field name in the
    /// workload's config (a mix's in [`hermes_workload::MixCfg`]).
    Workload(&'static str),
    /// The fault plan, static failures included.
    Faults,
    /// The topology under test, its cuts applied.
    Topology,
}

/// Why [`PointCfg::validate`] refused a point.
#[derive(Clone, Debug, PartialEq)]
pub struct PointError {
    pub field: PointField,
    /// What is wrong, without the field's name.
    pub msg: String,
}

/// The outcome of a point: the FCT summary plus the raw evidence the
/// conformance and chaos checkers need (per-flow records, the
/// event-trace digest, the packet-conservation snapshot, the goodput
/// timeline) and, under Hermes, rack 0's sensing record.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub fct: FctSummary,
    pub records: Vec<FlowRecord>,
    pub events: u64,
    pub sim_time: Time,
    /// The measurement horizon `summarize` charged unfinished flows at.
    pub horizon: Time,
    pub digest: u64,
    pub conservation: ConservationReport,
    /// `(sample time, cumulative in-order TCP payload bytes)`; empty
    /// without a `goodput_interval`.
    pub goodput: Vec<(Time, u64)>,
    /// Past-time schedules the event queue clamped (0 in a causal run;
    /// the conformance invariant checker and [`assert_deterministic`]
    /// reject anything else).
    pub queue_clamps: u64,
    /// Schedules the event queue sent to its fallback heap rather than a
    /// recurring-delay lane. No digest sees this routing; a run whose
    /// share of it grows has lost the queue's fast path.
    pub queue_fallback: u64,
    /// Events still queued when the run stopped. Bounded by the live
    /// flows' timers, the packets in flight and the recurring ticks; a
    /// run that leaves one event per superseded timer re-arm behind
    /// grows it with load, not with flows.
    pub pending_events: usize,
    /// The first Hermes rack's sensing record, `(first_failure_at,
    /// first_recovery_at, stat_recoveries)`; `None` under other schemes.
    pub rack0_sensing: Option<(Option<Time>, Option<Time>, u64)>,
}

/// Run one point: build the sim (its fault plan scheduled), schedule
/// the workload, run to the drain horizon. Deterministic in `cfg` (its
/// seed included).
///
/// Open-loop kinds (`Poisson`, `Flows`) pre-schedule
/// their arrivals and drain for `cfg.drain` past the last one. The
/// staged-dependency kinds (`RingAllreduce`, `Incast`) have no arrival
/// schedule — flows are released by completions — so `cfg.drain` is the
/// whole run's time budget.
pub fn run_point(cfg: &PointCfg) -> RunReport {
    let topo = &cfg.sim.topo;
    // The workload RNG stream, disjoint from the sim's internal streams.
    let wl_rng = SimRng::new(cfg.sim.seed).split(0x6E4);
    // `new` schedules the fault plan, so the goldens digest the order
    // fault plan → sampler → workload (the Fig 17 transient's flow 40
    // ties its first 10 ms goodput sample).
    let mut sim = Simulation::new(cfg.sim.clone());
    let sampler = cfg
        .goodput_interval
        .map(|interval| sim.add_sampler(interval, Probe::TotalGoodput));
    let mut open_loop = |specs: Vec<FlowSpec>| {
        let last_arrival = specs.iter().map(|s| s.start).max().unwrap_or(Time::ZERO);
        sim.add_flows(specs);
        last_arrival + cfg.drain
    };
    let horizon = match &cfg.workload {
        WorkloadKind::Poisson(p) => {
            let mut gen = FlowGen::new(topo, p.dist.clone(), p.load, p.capacity, wl_rng);
            open_loop(gen.schedule(p.flows))
        }
        WorkloadKind::Flows(specs) => open_loop(specs.clone()),
        WorkloadKind::RingAllreduce(ring) => {
            sim.set_driver(Box::new(RingAllreduce::new(topo, *ring)));
            cfg.drain
        }
        WorkloadKind::Incast(incast) => {
            sim.set_driver(Box::new(IncastDriver::new(topo, *incast, wl_rng)));
            cfg.drain
        }
    };
    run_sim(sim, horizon, sampler)
}

/// Run a built simulation to `horizon` and harvest its report; the
/// FCT summary charges unfinished flows at `horizon`, and `goodput` is
/// the series of the sampler at that index, if any.
pub fn run_sim(mut sim: Simulation, horizon: Time, goodput: Option<usize>) -> RunReport {
    sim.run_to_completion(horizon);
    let rack0_sensing = sim
        .hermes_racks()
        .next()
        .map(|s| (s.first_failure_at, s.first_recovery_at, s.stat_recoveries));
    RunReport {
        fct: summarize(sim.records(), horizon),
        events: sim.stats.events,
        sim_time: sim.now(),
        horizon,
        digest: sim.trace_digest(),
        conservation: sim.conservation(),
        goodput: goodput.map_or_else(Vec::new, |i| sim.sampler_series(i).to_vec()),
        queue_clamps: sim.queue_clamps(),
        queue_fallback: sim.queue_fallback_count(),
        pending_events: sim.pending_events(),
        rack0_sensing,
        records: sim.into_records(),
    }
}

/// Build and run the same scenario twice and panic unless the two runs
/// are indistinguishable (events, flow records, trace digest) and every
/// packet is accounted for with no past-time schedule clamped — the
/// cheapest detector for nondeterminism creeping in through map
/// iteration order, uninitialized state or wall-clock leakage.
///
/// `build` must construct the simulation from scratch each time (config,
/// seed, workload); any shared mutable state between the two builds
/// would defeat the check.
pub fn assert_deterministic(mut build: impl FnMut() -> Simulation, horizon: Time) -> RunReport {
    let a = run_sim(build(), horizon, None);
    let b = run_sim(build(), horizon, None);
    assert_eq!(
        a.events, b.events,
        "same-seed runs dispatched different event counts"
    );
    assert_eq!(
        records_hash(&a.records),
        records_hash(&b.records),
        "same-seed runs produced different flow records"
    );
    assert_eq!(
        a.digest, b.digest,
        "same-seed runs diverged: event traces differ"
    );
    assert!(
        a.conservation.balanced(),
        "packet conservation violated: {}",
        a.conservation
    );
    assert_eq!(
        a.queue_clamps, 0,
        "causality violation: the event queue clamped past-time schedules"
    );
    a
}

/// Average FCT summaries over multiple seeds (component-wise). A
/// size band's statistics are averaged over the seeds that had flows
/// in that band — an empty band reports 0.0, which is "no data", not a
/// zero-latency sample — and every count is the mean count.
pub fn avg_summaries(v: &[FctSummary]) -> FctSummary {
    assert!(!v.is_empty());
    // Mean of `f` over the summaries whose `band` holds at least one flow.
    let mean = |f: fn(&FctSummary) -> f64, band: fn(&FctSummary) -> usize| {
        let (sum, k) = v
            .iter()
            .filter(|s| band(s) > 0)
            .fold((0.0, 0u32), |(sum, k), s| (sum + f(s), k + 1));
        if k == 0 {
            0.0
        } else {
            sum / f64::from(k)
        }
    };
    // Mean count, rounded to nearest so a band seen by half the seeds
    // does not print as `n=0` beside a non-zero mean.
    let count =
        |f: fn(&FctSummary) -> usize| (v.iter().map(f).sum::<usize>() + v.len() / 2) / v.len();
    FctSummary {
        n: count(|s| s.n),
        unfinished: count(|s| s.unfinished),
        avg: mean(|s| s.avg, |_| 1),
        p50: mean(|s| s.p50, |_| 1),
        p95: mean(|s| s.p95, |_| 1),
        p99: mean(|s| s.p99, |_| 1),
        n_small: count(|s| s.n_small),
        avg_small: mean(|s| s.avg_small, |s| s.n_small),
        p99_small: mean(|s| s.p99_small, |s| s.n_small),
        n_large: count(|s| s.n_large),
        avg_large: mean(|s| s.avg_large, |s| s.n_large),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::{FaultAction, FaultPlan, LeafId, SpineFailure, SpineId, Topology};
    use hermes_runtime::Scheme;
    use hermes_workload::{FlowSizeDist, PoissonCfg};

    fn testbed() -> SimConfig {
        SimConfig::new(Topology::testbed(), Scheme::Ecmp)
    }

    /// `flows` web-search flows at 0.3 load.
    fn web_search(flows: usize) -> WorkloadKind {
        let dist = FlowSizeDist::web_search();
        let capacity = None;
        WorkloadKind::Poisson(PoissonCfg {
            dist,
            load: 0.3,
            flows,
            capacity,
        })
    }

    /// ECMP on the 1G testbed, `flows` web-search flows at 0.3 load.
    fn testbed_ecmp(flows: usize) -> PointCfg {
        PointCfg::new(testbed(), web_search(flows))
    }

    /// `cfg` with `spine` failed for the whole run: a `SetSpineFailure`
    /// at t = 0 appended to its fault plan.
    fn failed(mut cfg: PointCfg, spine: SpineId, failure: SpineFailure) -> PointCfg {
        let set = FaultAction::SetSpineFailure { spine, failure };
        cfg.sim.fault_plan = std::mem::take(&mut cfg.sim.fault_plan).at(Time::ZERO, set);
        cfg
    }

    #[test]
    fn point_runs_and_is_deterministic() {
        let cfg = testbed_ecmp(50);
        let a = run_point(&cfg);
        let b = run_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fct.avg, b.fct.avg);
        assert_eq!(a.fct.unfinished, 0);
        assert!(a.fct.avg > 0.0);
    }

    #[test]
    fn run_sim_moves_out_the_records_the_run_made() {
        let sim = testbed();
        let build = || {
            let mut built = Simulation::new(sim.clone());
            let rng = SimRng::new(sim.seed).split(0x6E4);
            let mut gen = FlowGen::new(&sim.topo, FlowSizeDist::web_search(), 0.3, None, rng);
            built.add_flows(gen.schedule(40));
            built
        };
        let horizon = Time::from_secs(1);
        let mut sim = build();
        sim.run_to_completion(horizon);
        let before_move = sim.records().to_vec();
        assert_eq!(before_move.len(), 40);
        assert_eq!(run_sim(build(), horizon, None).records, before_move);
    }

    #[test]
    fn failure_points_report_unfinished() {
        let hole = SpineFailure::blackhole(LeafId(0), LeafId(1), 1.0);
        let cfg = failed(testbed_ecmp(60), SpineId(0), hole).drain(Time::from_ms(500));
        let r = run_point(&cfg);
        assert!(r.fct.unfinished > 0, "blackholed ECMP flows cannot finish");
    }

    #[test]
    fn detailed_run_matches_plain_fct() {
        let cfg = testbed_ecmp(50);
        let plain = run_point(&cfg);
        assert!(plain.goodput.is_empty(), "no interval, no sampler");
        let cfg = cfg.goodput_interval(Time::from_ms(1));
        let det = run_point(&cfg);
        // Sampler events are observation-only: FCTs must be identical.
        assert_eq!(plain.fct.avg, det.fct.avg);
        assert_eq!(plain.fct.p99, det.fct.p99);
        assert_eq!(det.records.len(), 50);
        assert!(det.conservation.balanced(), "{:?}", det.conservation);
        assert!(!det.goodput.is_empty());
        // ...but the digested trace now includes the sampler ticks.
        assert!(det.events > plain.events);
        // Sampled runs are themselves deterministic.
        let det2 = run_point(&cfg);
        assert_eq!(det.digest, det2.digest);
        assert_eq!(det.goodput, det2.goodput);
    }

    #[test]
    fn ring_workload_runs_every_step_to_completion() {
        use hermes_workload::RingCfg;
        let ring = RingCfg {
            ranks: 4,
            steps: 3,
            chunk_bytes: 32_000,
        };
        let cfg = PointCfg::new(testbed(), WorkloadKind::RingAllreduce(ring))
            .drain(Time::from_secs(2))
            .goodput_interval(Time::from_ms(1));
        let det = run_point(&cfg);
        assert_eq!(det.records.len(), 12, "ranks × steps flows must run");
        assert_eq!(det.fct.unfinished, 0);
        let bytes: u64 = det.records.iter().map(|r| r.size).sum();
        assert_eq!(bytes, 4 * 3 * 32_000);
        let det2 = run_point(&cfg);
        assert_eq!(det.digest, det2.digest, "driver runs must be deterministic");
    }

    #[test]
    fn incast_workload_releases_bursts_sequentially() {
        use hermes_workload::IncastCfg;
        let incast = IncastCfg {
            fanout: 4,
            reply_bytes: 16_000,
            bursts: 3,
        };
        let cfg = PointCfg::new(testbed(), WorkloadKind::Incast(incast))
            .drain(Time::from_secs(2))
            .goodput_interval(Time::from_ms(1));
        let det = run_point(&cfg);
        assert_eq!(det.records.len(), 12);
        assert_eq!(det.fct.unfinished, 0);
        // Burst b+1 must start strictly after burst b's last finish.
        for b in 0..2 {
            let close = det.records[b * 4..(b + 1) * 4]
                .iter()
                .map(|r| r.finish.unwrap())
                .max()
                .unwrap();
            for r in &det.records[(b + 1) * 4..(b + 2) * 4] {
                assert!(
                    r.start >= close,
                    "burst released before predecessor drained"
                );
            }
        }
    }

    #[test]
    fn pooled_points_match_the_sequential_reference() {
        use crate::run::run_points;
        use hermes_net::{FlowId, HostId};
        use hermes_workload::{records_hash, IncastCfg};
        assert!(run_points(&[]).is_empty());
        let poisson = testbed_ecmp(30);
        let topo = &poisson.sim.topo;
        let hermes = Scheme::by_name("hermes", topo).expect("registered scheme");
        let drops = FaultPlan::new().random_drop_window(
            SpineId(0),
            0.05,
            Time::from_ms(1),
            Time::from_ms(5),
        );
        let faulted = PointCfg {
            sim: SimConfig::new(topo.clone(), hermes).with_fault_plan(drops),
            ..poisson.clone()
        }
        .drain(Time::from_ms(800));
        // An explicit schedule through the same faults, listed latest
        // first.
        let specs = (0..12u64)
            .map(|i| FlowSpec {
                id: FlowId(i),
                src: HostId((i % 6) as u32),
                dst: HostId((6 + (i + 1) % 6) as u32),
                size: 20_000 + 5_000 * i,
                start: Time::from_us(400 * (12 - i)),
            })
            .collect();
        let listed = PointCfg {
            workload: WorkloadKind::Flows(specs),
            ..faulted.clone()
        };
        let incast = IncastCfg {
            fanout: 4,
            reply_bytes: 16_000,
            bursts: 2,
        };
        let incast =
            PointCfg::new(testbed(), WorkloadKind::Incast(incast)).drain(Time::from_secs(1));
        // More cells than cores, so every worker pulls several.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let cfgs: Vec<PointCfg> = [poisson, faulted, listed, incast]
            .iter()
            .cycle()
            .take(2 * cores + 2)
            .zip(1..)
            .map(|(cfg, seed)| {
                let mut cfg = cfg.clone();
                cfg.sim.seed = seed;
                cfg
            })
            .collect();
        let pooled = run_points(&cfgs);
        assert_eq!(pooled.len(), cfgs.len());
        for (p, cfg) in pooled.iter().zip(&cfgs) {
            let r = run_point(cfg);
            assert_eq!(
                (p.digest, p.events, records_hash(&p.records)),
                (r.digest, r.events, records_hash(&r.records)),
                "seed {}",
                cfg.sim.seed
            );
        }
    }

    #[test]
    fn validate_names_the_field_it_refuses() {
        use hermes_net::{FlowId, HostId};
        use hermes_workload::{IncastCfg, MixCfg, RingCfg};
        let ok = testbed_ecmp(30);
        let topo = &ok.sim.topo;
        assert_eq!(ok.validate(), Ok(()));
        let refused = |cfg: PointCfg| cfg.validate().expect_err("refused");
        let with = |workload| PointCfg {
            workload,
            ..ok.clone()
        };
        let poisson = |dist, load, flows| {
            let capacity = None;
            with(WorkloadKind::Poisson(PoissonCfg {
                dist,
                load,
                flows,
                capacity,
            }))
        };
        let ring = |ranks| {
            with(WorkloadKind::RingAllreduce(RingCfg {
                ranks,
                steps: 2,
                chunk_bytes: 1000,
            }))
        };
        let incast = |fanout| {
            with(WorkloadKind::Incast(IncastCfg {
                fanout,
                reply_bytes: 1000,
                bursts: 2,
            }))
        };
        let mix = |mice_bytes, elephant_bytes, elephant_frac| {
            let mix = MixCfg {
                mice_bytes,
                elephant_bytes,
                elephant_frac,
            };
            poisson(FlowSizeDist::elephant_mice(mix), 0.3, 30)
        };
        // One flow from host `src` to host `dst` (the testbed has 12).
        let flow = |id, src, dst| {
            with(WorkloadKind::Flows(vec![FlowSpec {
                id: FlowId(id),
                src: HostId(src),
                dst: HostId(dst),
                size: 1000,
                start: Time::ZERO,
            }]))
        };
        // Flow 5 twice, the second from another host.
        let mut repeated = flow(5, 0, 6);
        if let WorkloadKind::Flows(specs) = &mut repeated.workload {
            specs.push(FlowSpec {
                src: HostId(1),
                ..specs[0]
            });
        }
        let mut cut = topo.clone();
        for s in 0..4 {
            cut.cut_link(LeafId(0), SpineId(s));
        }
        let drop = SpineFailure::random_drops(0.1);
        let rows = [
            (
                poisson(FlowSizeDist::web_search(), f64::NAN, 30),
                PointField::Load,
            ),
            // In range, but 30 arrivals would span past `Time::MAX`.
            (
                poisson(FlowSizeDist::web_search(), 1e-300, 30),
                PointField::Load,
            ),
            (
                poisson(FlowSizeDist::web_search(), 0.3, 0),
                PointField::Flows,
            ),
            // Ids 0..flows run past MAX_FLOW_ID.
            (
                poisson(FlowSizeDist::web_search(), 0.3, usize::MAX),
                PointField::Flows,
            ),
            (with(WorkloadKind::Flows(Vec::new())), PointField::Flows),
            (flow(MAX_FLOW_ID + 1, 0, 6), PointField::Workload("id")),
            (repeated.clone(), PointField::Workload("id")),
            (flow(0, 12, 6), PointField::Workload("src")),
            (flow(0, 0, 12), PointField::Workload("dst")),
            (flow(0, 3, 3), PointField::Workload("dst")),
            (ring(13), PointField::Workload("ranks")),
            (incast(7), PointField::Workload("fanout")),
            (mix(0, 5000, 0.1), PointField::Workload("mice_bytes")),
            (mix(5000, 5000, 0.1), PointField::Workload("elephant_bytes")),
            (
                mix(5000, 9000, f64::NAN),
                PointField::Workload("elephant_frac"),
            ),
            (failed(ok.clone(), SpineId(4), drop), PointField::Faults),
            (
                PointCfg {
                    sim: ok
                        .sim
                        .clone()
                        .with_fault_plan(FaultPlan::new().spine_outage(
                            SpineId(9),
                            Time::from_ms(1),
                            Time::from_ms(2),
                        )),
                    ..ok.clone()
                },
                PointField::Faults,
            ),
            (
                PointCfg {
                    sim: SimConfig::new(cut, Scheme::Ecmp),
                    ..ok.clone()
                },
                PointField::Topology,
            ),
        ];
        for (cfg, field) in rows {
            assert_eq!(refused(cfg).field, field);
        }
        let twice = failed(failed(ok.clone(), SpineId(1), drop), SpineId(1), drop);
        let e = refused(twice);
        assert_eq!(
            (e.field, e.msg.as_str()),
            (
                PointField::Faults,
                "SetSpineFailure at 0ns for spine 1 replaces another at the same instant"
            )
        );
        assert_eq!(refused(repeated).msg, "flow 5: listed twice");
        assert_eq!(
            refused(mix(5000, 5000, 0.1)).msg,
            "must exceed the mice size"
        );
        assert_eq!(refused(mix(1, 2, 1.5)).msg, "1.5 must lie in [0, 1]");
        // The in-range neighbours pass.
        ring(12).validate().expect("one rank per host");
        flow(MAX_FLOW_ID, 11, 0)
            .validate()
            .expect("the widest id, the last host");
        incast(6).validate().expect("the whole other rack");
        failed(ok.clone(), SpineId(3), drop)
            .validate()
            .expect("last spine");
        for frac in [0.0, 1.0] {
            mix(1, 2, frac).validate().expect("the smallest mix");
        }
    }

    #[test]
    fn averaging_is_componentwise() {
        let a = FctSummary {
            avg: 1.0,
            p99: 2.0,
            ..Default::default()
        };
        let b = FctSummary {
            avg: 3.0,
            p99: 6.0,
            ..Default::default()
        };
        let m = avg_summaries(&[a, b]);
        assert_eq!(m.avg, 2.0);
        assert_eq!(m.p99, 4.0);
        // A seed with no large flow contributes no large-band sample:
        // the band mean is over the seeds that had one, and the count is
        // the mean count (not seed 0's).
        let none = FctSummary {
            n_small: 4,
            avg_small: 1.0,
            ..Default::default()
        };
        let some = FctSummary {
            n_small: 2,
            avg_small: 3.0,
            n_large: 2,
            avg_large: 8.0,
            ..Default::default()
        };
        let m = avg_summaries(&[none, some]);
        assert_eq!((m.n_small, m.avg_small), (3, 2.0));
        assert_eq!((m.n_large, m.avg_large), (1, 8.0));
    }
}
