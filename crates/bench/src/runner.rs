//! Experiment-point runners: one (topology, scheme, workload, load,
//! seed) tuple → [`RunReport`], and a list of them across every core.

use std::sync::atomic::{AtomicUsize, Ordering};

use hermes_net::{ConservationReport, FaultAction, FaultPlan, SpineFailure, SpineId, Topology};
use hermes_runtime::{Probe, Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_transport::TransportCfg;
use hermes_workload::{
    summarize, ElephantMiceGen, FctSummary, FlowGen, FlowRecord, FlowSizeDist, IncastDriver,
    RingAllreduce, WorkloadKind,
};

/// One experiment point.
#[derive(Clone, Debug)]
pub struct PointCfg {
    pub topo: Topology,
    pub scheme: Scheme,
    /// Which traffic shape drives the point. `Poisson` (the default)
    /// pre-schedules `n_flows` open-loop arrivals from `dist`; the
    /// staged-dependency kinds install a [`hermes_workload::FlowDriver`]
    /// and ignore `dist`/`n_flows`.
    pub workload: WorkloadKind,
    pub dist: FlowSizeDist,
    /// Offered load relative to `capacity_override` (or the topology's
    /// live uplink capacity).
    pub load: f64,
    pub n_flows: usize,
    pub seed: u64,
    /// Load is usually defined against the *healthy* fabric even when
    /// the topology under test is degraded (the paper's convention).
    pub capacity_override: Option<u64>,
    pub transport: TransportCfg,
    /// Explicit reorder-mask override (None = scheme default).
    pub reorder_mask: Option<Option<Time>>,
    pub failures: Vec<(SpineId, SpineFailure)>,
    /// Time-triggered fault schedule (onset *and* clearance) replayed
    /// through the event queue — the transient-failure experiments.
    pub fault_plan: Option<FaultPlan>,
    /// Extra simulated time after the last arrival before declaring
    /// remaining flows unfinished.
    pub drain: Time,
    /// Visibility observation window (Table 2).
    pub visibility_linger: Time,
    /// Sample total goodput at this cadence into [`RunReport::goodput`].
    /// The sampler's ticks are `Global` events in the digested trace, so
    /// a digest is comparable only between runs with the same interval
    /// (the goldens are pinned with the scenario's). Ticks never touch
    /// RNG streams or flow state: FCTs and records are identical with
    /// and without. `None` (the default) schedules no sampler.
    pub goodput_interval: Option<Time>,
}

impl PointCfg {
    pub fn new(topo: Topology, scheme: Scheme, dist: FlowSizeDist, load: f64) -> PointCfg {
        PointCfg {
            topo,
            scheme,
            workload: WorkloadKind::Poisson,
            dist,
            load,
            n_flows: 500,
            seed: 1,
            capacity_override: None,
            transport: TransportCfg::dctcp(),
            reorder_mask: None,
            failures: Vec::new(),
            fault_plan: None,
            drain: Time::from_secs(3),
            visibility_linger: Time::ZERO,
            goodput_interval: None,
        }
    }

    pub fn visibility_linger(mut self, l: Time) -> PointCfg {
        self.visibility_linger = l;
        self
    }

    pub fn flows(mut self, n: usize) -> PointCfg {
        self.n_flows = n;
        self
    }

    pub fn seed(mut self, s: u64) -> PointCfg {
        self.seed = s;
        self
    }

    pub fn capacity(mut self, c: u64) -> PointCfg {
        self.capacity_override = Some(c);
        self
    }

    pub fn failure(mut self, s: SpineId, f: SpineFailure) -> PointCfg {
        self.failures.push((s, f));
        self
    }

    pub fn fault(mut self, plan: FaultPlan) -> PointCfg {
        self.fault_plan = Some(plan);
        self
    }

    pub fn transport(mut self, t: TransportCfg) -> PointCfg {
        self.transport = t;
        self
    }

    pub fn reorder_mask(mut self, m: Option<Time>) -> PointCfg {
        self.reorder_mask = Some(m);
        self
    }

    pub fn drain(mut self, d: Time) -> PointCfg {
        self.drain = d;
        self
    }

    pub fn workload(mut self, w: WorkloadKind) -> PointCfg {
        self.workload = w;
        self
    }

    pub fn goodput_interval(mut self, i: Time) -> PointCfg {
        self.goodput_interval = Some(i);
        self
    }

    /// Check that the assembled point can run, before anything indexes
    /// the fabric with it:
    ///
    /// * an open-loop workload has `load ∈ (0, 1.5]` (`FlowGen`'s range)
    ///   and at least one flow;
    /// * ring ranks, the incast fanout and the elephant/mice mix fit the
    ///   topology;
    /// * each static failure names a distinct spine and passes the rules
    ///   [`FaultPlan::validate_on`] applies to a `SetSpineFailure`;
    /// * the fault plan passes [`FaultPlan::validate_on`];
    /// * every pair of leaves still shares a live spine.
    pub fn validate(&self) -> Result<(), PointError> {
        use PointField::{Faults, Flows, Load, Topology as Topo, Workload as W};
        let need = |field, ok: bool, msg: String| match ok {
            true => Ok(()),
            false => Err(PointError { field, msg }),
        };
        let one = || "must be at least 1".to_string();
        let topo = &self.topo;
        if matches!(
            self.workload,
            WorkloadKind::Poisson | WorkloadKind::ElephantMice(_)
        ) {
            // `contains` is false for NaN.
            let load = (f64::MIN_POSITIVE..=1.5).contains(&self.load);
            need(Load, load, format!("{} must lie in (0, 1.5]", self.load))?;
            need(Flows, self.n_flows >= 1, one())?;
        }
        match self.workload {
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
            WorkloadKind::ElephantMice(m) => {
                need(W("mice_bytes"), m.mice_bytes >= 1, one())?;
                let (bigger, msg) = (m.elephant_bytes > m.mice_bytes, "must exceed the mice size");
                need(W("elephant_bytes"), bigger, msg.into())?;
                let frac = (0.0..=1.0).contains(&m.elephant_frac);
                let msg = format!("{} must lie in [0, 1]", m.elephant_frac);
                need(W("elephant_frac"), frac, msg)?;
            }
            WorkloadKind::Poisson => {}
        }
        for (i, &(spine, failure)) in self.failures.iter().enumerate() {
            let once = !self.failures[..i].iter().any(|&(s, _)| s == spine);
            need(Faults, once, format!("spine {} is listed twice", spine.0))?;
            let set = FaultAction::SetSpineFailure { spine, failure };
            let fits = FaultPlan::new().at(Time::ZERO, set).validate_on(topo);
            fits.or_else(|e| need(Faults, false, e.to_string()))?;
        }
        if let Some(plan) = &self.fault_plan {
            let fits = plan.validate_on(topo);
            fits.or_else(|e| need(Faults, false, e.to_string()))?;
        }
        topo.check_connected().or_else(|msg| need(Topo, false, msg))
    }
}

/// The part of a [`PointCfg`] a [`PointError`] is about. Each front end
/// spells it its own way (`--load`, `` `load` ``).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointField {
    Load,
    Flows,
    /// A parameter of the staged or mixed workload, by its field name
    /// in the workload's config.
    Workload(&'static str),
    /// The static failures or the fault plan.
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
/// timeline) and the Table 2 visibility measurements.
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
    /// the conformance invariant checker rejects anything else).
    pub queue_clamps: u64,
    /// Table 2 visibility measurements.
    pub vis_switch: f64,
    pub vis_host: f64,
}

/// Run one point: build the sim, wire failures/faults, schedule the
/// workload, run to the drain horizon. Deterministic in `(cfg, seed)`.
///
/// Open-loop kinds (`Poisson`, `ElephantMice`) pre-schedule their
/// arrivals and drain for `cfg.drain` past the last one. The
/// staged-dependency kinds (`RingAllreduce`, `Incast`) have no arrival
/// schedule — flows are released by completions — so `cfg.drain` is the
/// whole run's time budget.
pub fn run_point(cfg: &PointCfg) -> RunReport {
    // The workload RNG stream, disjoint from the sim's internal streams.
    let wl_rng = SimRng::new(cfg.seed).split(0x6E4);
    let mut sim_cfg = SimConfig::new(cfg.topo.clone(), cfg.scheme.clone())
        .with_seed(cfg.seed)
        .with_transport(cfg.transport)
        .with_visibility_linger(cfg.visibility_linger);
    if let Some(mask) = cfg.reorder_mask {
        sim_cfg = sim_cfg.with_reorder_mask(mask);
    }
    let mut sim = Simulation::new(sim_cfg);
    // Registered first: the goldens digest the schedule order sampler →
    // static failures → fault plan → workload.
    let sampler = cfg
        .goodput_interval
        .map(|interval| sim.add_sampler(interval, Probe::TotalGoodput));
    for (s, f) in &cfg.failures {
        sim.set_spine_failure(*s, *f);
    }
    if let Some(plan) = &cfg.fault_plan {
        sim.set_fault_plan(plan);
    }
    let horizon = match cfg.workload {
        WorkloadKind::Poisson => {
            let mut gen = FlowGen::new(
                &cfg.topo,
                cfg.dist.clone(),
                cfg.load,
                cfg.capacity_override,
                wl_rng,
            );
            let specs = gen.schedule(cfg.n_flows);
            let last_arrival = specs.last().map_or(Time::ZERO, |s| s.start);
            sim.add_flows(specs);
            last_arrival + cfg.drain
        }
        WorkloadKind::ElephantMice(mix) => {
            let mut gen =
                ElephantMiceGen::new(&cfg.topo, mix, cfg.load, cfg.capacity_override, wl_rng);
            let specs = gen.schedule(cfg.n_flows);
            let last_arrival = specs.last().map_or(Time::ZERO, |s| s.start);
            sim.add_flows(specs);
            last_arrival + cfg.drain
        }
        WorkloadKind::RingAllreduce(ring) => {
            sim.set_driver(Box::new(RingAllreduce::new(&cfg.topo, ring)));
            cfg.drain
        }
        WorkloadKind::Incast(incast) => {
            sim.set_driver(Box::new(IncastDriver::new(&cfg.topo, incast, wl_rng)));
            cfg.drain
        }
    };
    sim.run_to_completion(horizon);
    let (vis_switch, vis_host) = sim.visibility();
    RunReport {
        fct: summarize(sim.records(), horizon),
        records: sim.records().to_vec(),
        events: sim.stats.events,
        sim_time: sim.now(),
        horizon,
        digest: sim.trace_digest(),
        conservation: sim.conservation(),
        goodput: sampler.map_or_else(Vec::new, |i| sim.sampler_series(i).to_vec()),
        queue_clamps: sim.queue_clamps(),
        vis_switch,
        vis_host,
    }
}

/// Run every point, one worker per available core (never more workers
/// than points). Each point is an independent deterministic run, so
/// workers pull the next index from an atomic counter and results land
/// by index: `run_points(cfgs)` equals `cfgs.iter().map(run_point)`,
/// whatever the core count or scheduling. A panicking point re-raises
/// its panic here once every worker has stopped.
pub fn run_points(cfgs: &[PointCfg]) -> Vec<RunReport> {
    let workers = std::thread::available_parallelism()
        .map_or(1, std::num::NonZero::get)
        .min(cfgs.len());
    let next = AtomicUsize::new(0);
    let mut done: Vec<(usize, RunReport)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(cfg) = cfgs.get(i) else {
                            return mine;
                        };
                        mine.push((i, run_point(cfg)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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
    use hermes_net::LeafId;

    #[test]
    fn point_runs_and_is_deterministic() {
        let topo = Topology::testbed();
        let cfg = PointCfg::new(topo, Scheme::Ecmp, FlowSizeDist::web_search(), 0.3).flows(50);
        let a = run_point(&cfg);
        let b = run_point(&cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.fct.avg, b.fct.avg);
        assert_eq!(a.fct.unfinished, 0);
        assert!(a.fct.avg > 0.0);
    }

    #[test]
    fn failure_points_report_unfinished() {
        let topo = Topology::testbed();
        let cfg = PointCfg::new(topo, Scheme::Ecmp, FlowSizeDist::web_search(), 0.3)
            .flows(60)
            .failure(
                SpineId(0),
                SpineFailure::blackhole(LeafId(0), LeafId(1), 1.0),
            )
            .drain(Time::from_ms(500));
        let r = run_point(&cfg);
        assert!(r.fct.unfinished > 0, "blackholed ECMP flows cannot finish");
    }

    #[test]
    fn detailed_run_matches_plain_fct() {
        let topo = Topology::testbed();
        let cfg = PointCfg::new(topo, Scheme::Ecmp, FlowSizeDist::web_search(), 0.3).flows(50);
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
        let cfg = PointCfg::new(
            Topology::testbed(),
            Scheme::Ecmp,
            FlowSizeDist::web_search(),
            0.3,
        )
        .workload(WorkloadKind::RingAllreduce(RingCfg {
            ranks: 4,
            steps: 3,
            chunk_bytes: 32_000,
        }))
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
        let cfg = PointCfg::new(
            Topology::testbed(),
            Scheme::Ecmp,
            FlowSizeDist::web_search(),
            0.3,
        )
        .workload(WorkloadKind::Incast(IncastCfg {
            fanout: 4,
            reply_bytes: 16_000,
            bursts: 3,
        }))
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
        use hermes_workload::{records_hash, IncastCfg};
        assert!(run_points(&[]).is_empty());
        let topo = Topology::testbed();
        let poisson =
            PointCfg::new(topo.clone(), Scheme::Ecmp, FlowSizeDist::web_search(), 0.3).flows(30);
        let hermes = Scheme::by_name("hermes", &topo).expect("registered scheme");
        let faulted = PointCfg {
            scheme: hermes,
            ..poisson.clone()
        }
        .fault(FaultPlan::new().random_drop_window(
            SpineId(0),
            0.05,
            Time::from_ms(1),
            Time::from_ms(5),
        ))
        .drain(Time::from_ms(800));
        let incast = poisson
            .clone()
            .workload(WorkloadKind::Incast(IncastCfg {
                fanout: 4,
                reply_bytes: 16_000,
                bursts: 2,
            }))
            .drain(Time::from_secs(1));
        // More cells than cores, so every worker pulls several.
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        let cfgs: Vec<PointCfg> = [poisson, faulted, incast]
            .iter()
            .cycle()
            .take(2 * cores + 1)
            .zip(1..)
            .map(|(cfg, seed)| cfg.clone().seed(seed))
            .collect();
        let pooled = run_points(&cfgs);
        assert_eq!(pooled.len(), cfgs.len());
        for (p, cfg) in pooled.iter().zip(&cfgs) {
            let r = run_point(cfg);
            assert_eq!(
                (p.digest, p.events, records_hash(&p.records)),
                (r.digest, r.events, records_hash(&r.records)),
                "seed {}",
                cfg.seed
            );
        }
    }

    #[test]
    fn validate_names_the_field_it_refuses() {
        use hermes_net::LeafId;
        use hermes_workload::{IncastCfg, MixCfg, RingCfg};
        let topo = Topology::testbed();
        let ok = PointCfg::new(topo.clone(), Scheme::Ecmp, FlowSizeDist::web_search(), 0.3);
        assert_eq!(ok.validate(), Ok(()));
        let refused = |cfg: PointCfg| cfg.validate().expect_err("refused");
        let ring = |ranks| {
            ok.clone().workload(WorkloadKind::RingAllreduce(RingCfg {
                ranks,
                steps: 2,
                chunk_bytes: 1000,
            }))
        };
        let incast = |fanout| {
            ok.clone().workload(WorkloadKind::Incast(IncastCfg {
                fanout,
                reply_bytes: 1000,
                bursts: 2,
            }))
        };
        let mix = MixCfg {
            mice_bytes: 5000,
            elephant_bytes: 5000,
            elephant_frac: 0.1,
        };
        let mut cut = topo.clone();
        for s in 0..4 {
            cut.cut_link(LeafId(0), SpineId(s));
        }
        let drop = SpineFailure::random_drops(0.1);
        let rows = [
            (
                PointCfg {
                    load: f64::NAN,
                    ..ok.clone()
                },
                PointField::Load,
            ),
            (ok.clone().flows(0), PointField::Flows),
            (ring(13), PointField::Workload("ranks")),
            (incast(7), PointField::Workload("fanout")),
            (
                ok.clone().workload(WorkloadKind::ElephantMice(mix)),
                PointField::Workload("elephant_bytes"),
            ),
            (ok.clone().failure(SpineId(4), drop), PointField::Faults),
            (
                ok.clone().fault(FaultPlan::new().spine_outage(
                    SpineId(9),
                    Time::from_ms(1),
                    Time::from_ms(2),
                )),
                PointField::Faults,
            ),
            (
                PointCfg {
                    topo: cut,
                    ..ok.clone()
                },
                PointField::Topology,
            ),
        ];
        for (cfg, field) in rows {
            assert_eq!(refused(cfg).field, field);
        }
        let twice = ok
            .clone()
            .failure(SpineId(1), drop)
            .failure(SpineId(1), drop);
        let e = refused(twice);
        assert_eq!(
            (e.field, e.msg.as_str()),
            (PointField::Faults, "spine 1 is listed twice")
        );
        // The in-range neighbours pass; a staged workload ignores the
        // open-loop load and flow count.
        ring(12).validate().expect("one rank per host");
        incast(6).validate().expect("the whole other rack");
        ok.clone()
            .failure(SpineId(3), drop)
            .validate()
            .expect("last spine");
        assert_eq!(
            PointCfg {
                load: 0.0,
                ..ring(2)
            }
            .flows(0)
            .validate(),
            Ok(())
        );
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
