//! The four benchmark workloads and their ladder siblings.
//!
//! A workload is a `(fabric, scheme, traffic, faults)` tuple; the seed
//! is the only other input. `build` is the ~60 lines
//! `hermes_bench::runner::build_sim` does, done here against
//! `hermes_runtime` directly so a diet of `hermes-bench`/`xtask`
//! cannot break the yardstick.

use hermes_core::HermesParams;
use hermes_net::{FaultPlan, LeafId, LinkCfg, SpineId, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_workload::{FlowGen, FlowSizeDist, FlowSpec, IncastCfg, IncastDriver};

/// Label of the workload RNG stream, disjoint from the sim's internal
/// streams (the value `hermes_bench::runner::build_sim` uses, so a
/// seed here names the same arrivals as `fig12_baseline`'s).
const WORKLOAD_STREAM: u64 = 0x6E4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Open loop: Poisson arrivals, web-search sizes, on the paper's
    /// 8×8 / 128-host / 10 G fabric (§5.3); horizon = last arrival + 3 s.
    WebSearch { flows: usize, load_pct: u32 },
    /// Closed loop: `fanout` clients per burst, the next burst released
    /// by the straggler, on the 4×4 × 8-host `fig17` fabric.
    Incast {
        fanout: usize,
        reply_bytes: u64,
        bursts: usize,
    },
}

/// One runnable variant: a named workload, or the sibling a ladder
/// metric subtracts (same traffic with one layer taken out).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Variant {
    pub traffic: Traffic,
    /// `Scheme::Hermes` (else `Scheme::Ecmp`, which bypasses
    /// `hermes-core`: no sensing, probing or rerouting).
    pub hermes: bool,
    pub faults: bool,
}

#[derive(Debug, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub variant: Variant,
}

const WEB_SEARCH: Traffic = Traffic::WebSearch {
    flows: 2_000,
    load_pct: 80,
};
const INCAST: Traffic = Traffic::Incast {
    fanout: 24,
    reply_bytes: 64_000,
    bursts: 2_500,
};

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "websearch_hermes",
        why: "open loop; paper's headline 8x8 web-search at load 0.8 under Hermes: every layer on, deep event queue",
        variant: Variant {
            traffic: WEB_SEARCH,
            hermes: true,
            faults: false,
        },
    },
    Workload {
        name: "websearch_ecmp",
        why: "open loop; same fabric, seed and arrivals under ECMP: bypasses hermes-core, so a sensing gain must not move it",
        variant: Variant {
            traffic: WEB_SEARCH,
            hermes: false,
            faults: false,
        },
    },
    Workload {
        name: "failure_hermes",
        why: "open loop; websearch_hermes plus spine outage, random drops and a blackhole: the loss, RTO and path-recovery paths",
        variant: Variant {
            traffic: WEB_SEARCH,
            hermes: true,
            faults: true,
        },
    },
    Workload {
        name: "incast_hermes",
        why: "closed loop, 24 clients per burst on a 4x4 fabric: shallow queue, driver callbacks, tail drops, 60k short flows",
        variant: Variant {
            traffic: INCAST,
            hermes: true,
            faults: false,
        },
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Variant {
    /// The same traffic with `hermes-core` bypassed.
    pub fn without_core(self) -> Variant {
        Variant {
            hermes: false,
            ..self
        }
    }

    /// The same traffic on a healthy fabric.
    pub fn without_faults(self) -> Variant {
        Variant {
            faults: false,
            ..self
        }
    }

    /// The 1/10-scale shape the harness tests run; its numbers are not
    /// comparable with a full run's and never reach `BENCHMARK.json`.
    pub fn smoke(self) -> Variant {
        let traffic = match self.traffic {
            Traffic::WebSearch { flows, load_pct } => Traffic::WebSearch {
                flows: flows / 10,
                load_pct,
            },
            Traffic::Incast {
                fanout,
                reply_bytes,
                bursts,
            } => Traffic::Incast {
                fanout,
                reply_bytes,
                bursts: bursts / 10,
            },
        };
        Variant { traffic, ..self }
    }

    /// Flows the run releases when none is left behind.
    pub fn flows(self) -> usize {
        match self.traffic {
            Traffic::WebSearch { flows, .. } => flows,
            Traffic::Incast { fanout, bursts, .. } => fanout * bursts,
        }
    }

    /// Steady pending-event depth class of the run, which picks the
    /// scheduler probe (`sim.queue_churn_ns_*`) that prices its events.
    pub fn deep_queue(self) -> bool {
        matches!(self.traffic, Traffic::WebSearch { .. })
    }

    pub fn topology(self) -> Topology {
        match self.traffic {
            Traffic::WebSearch { .. } => Topology::sim_baseline(),
            Traffic::Incast { .. } => Topology::leaf_spine(
                4,
                4,
                8,
                LinkCfg::new(10_000_000_000, Time::from_us(5)),
                LinkCfg::new(10_000_000_000, Time::from_us(10)),
            ),
        }
    }

    /// The paper's "resilient" half (§5.3.3): a whole-spine outage,
    /// silent random drops and a leaf-pair blackhole, overlapping,
    /// all cleared by 100 ms so every flow can still finish.
    fn fault_plan() -> FaultPlan {
        FaultPlan::new()
            .spine_outage(SpineId(0), Time::from_ms(20), Time::from_ms(60))
            .random_drop_window(SpineId(1), 0.02, Time::from_ms(10), Time::from_ms(90))
            .blackhole_window(
                SpineId(2),
                LeafId(0),
                LeafId(3),
                1.0,
                Time::from_ms(30),
                Time::from_ms(100),
            )
    }
}

/// What `generate` produced, ready to install.
pub enum Input {
    Schedule(Vec<FlowSpec>),
    Driver(Box<IncastDriver>),
}

/// A materialized run, not yet started.
pub struct Built {
    pub sim: Simulation,
    pub horizon: Time,
}

/// Step 1 of set-up: the simulation with its fabric, scheme and faults.
pub fn new_sim(v: Variant, seed: u64) -> Simulation {
    let topo = v.topology();
    let scheme = if v.hermes {
        Scheme::Hermes(HermesParams::from_topology(&topo))
    } else {
        Scheme::Ecmp
    };
    let mut cfg = SimConfig::new(topo, scheme).with_seed(seed);
    if v.faults {
        cfg = cfg.with_fault_plan(Variant::fault_plan());
    }
    Simulation::new(cfg)
}

/// Step 2 of set-up: the traffic, from the seed alone.
pub fn generate(v: Variant, seed: u64) -> (Input, Time) {
    let topo = v.topology();
    let rng = SimRng::new(seed).split(WORKLOAD_STREAM);
    match v.traffic {
        Traffic::WebSearch { flows, load_pct } => {
            let mut gen = FlowGen::new(
                &topo,
                FlowSizeDist::web_search(),
                f64::from(load_pct) / 100.0,
                None,
                rng,
            );
            let specs = gen.schedule(flows);
            let last = specs.last().map_or(Time::ZERO, |s| s.start);
            (Input::Schedule(specs), last + Time::from_secs(3))
        }
        Traffic::Incast {
            fanout,
            reply_bytes,
            bursts,
        } => {
            let cfg = IncastCfg {
                fanout,
                reply_bytes,
                bursts,
            };
            (
                Input::Driver(Box::new(IncastDriver::new(&topo, cfg, rng))),
                Time::from_secs(60),
            )
        }
    }
}

/// Step 3 of set-up: hand the traffic to the simulation.
pub fn install(sim: &mut Simulation, input: Input) {
    match input {
        Input::Schedule(specs) => sim.add_flows(specs),
        Input::Driver(d) => sim.set_driver(d),
    }
}

pub fn build(v: Variant, seed: u64) -> Built {
    let mut sim = new_sim(v, seed);
    let (input, horizon) = generate(v, seed);
    install(&mut sim, input);
    Built { sim, horizon }
}
