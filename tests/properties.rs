//! Property-based tests over the whole pipeline: random topologies and
//! workloads must uphold the simulator's global invariants.

use hermes_net::{LinkCfg, Topology};
use hermes_runtime::{Scheme, SimConfig, Simulation};
use hermes_sim::{SimRng, Time};
use hermes_testkit::{chaos, parse_scenario, SloTag};
use hermes_workload::{FlowGen, FlowSizeDist};
use proptest::prelude::*;

fn small_topo(n_leaves: usize, n_spines: usize, hosts: usize) -> Topology {
    Topology::leaf_spine(
        n_leaves,
        n_spines,
        hosts,
        LinkCfg::new(10_000_000_000, Time::from_us(5)),
        LinkCfg::new(10_000_000_000, Time::from_us(10)),
    )
}

/// One of five representative schemes, by sampled index.
fn pick_scheme(idx: u8, topo: &Topology) -> Scheme {
    let name = ["ecmp", "presto", "conga", "letflow", "hermes"][usize::from(idx % 5)];
    Scheme::by_name(name, topo).expect("a Scheme::NAMES entry")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// On a healthy fabric, every flow completes, every completion is
    /// causal (finish ≥ start + line-rate lower bound), and no edge
    /// scheme ever stamps a dead path.
    #[test]
    fn healthy_fabric_invariants(
        n_leaves in 2usize..5,
        n_spines in 1usize..5,
        hosts in 2usize..5,
        scheme_idx in 0u8..5,
        load in 0.1f64..0.7,
        seed in 0u64..1000,
    ) {
        let topo = small_topo(n_leaves, n_spines, hosts);
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), load, None, SimRng::new(seed));
        let scheme = pick_scheme(scheme_idx, &topo);
        let mut sim = Simulation::new(SimConfig::new(topo.clone(), scheme).with_seed(seed));
        sim.add_flows(gen.schedule(30));
        sim.run_to_completion(Time::from_secs(60));
        prop_assert_eq!(sim.fabric().stats.path_fallbacks, 0);
        let rate = topo.host_link.rate_bps;
        for r in sim.records() {
            let finish = r.finish.expect("healthy fabric must complete all flows");
            prop_assert!(finish > r.start);
            // FCT can't beat serialization of the whole flow at the edge.
            let lower = Time::tx_time(r.size, rate);
            prop_assert!(
                finish - r.start >= lower,
                "fct {} below line-rate bound {} for {} bytes",
                finish - r.start, lower, r.size
            );
        }
        // Every payload byte that was delivered belongs to a known flow:
        // delivered packet count is positive and bounded by events.
        prop_assert!(sim.fabric().stats.delivered > 0);
        prop_assert!(sim.stats.events >= sim.fabric().stats.delivered);
    }

    /// Determinism: identical (config, seed) ⇒ identical event counts
    /// and identical FCT vectors, for every scheme.
    #[test]
    fn replay_determinism(scheme_idx in 0u8..5, seed in 0u64..100) {
        let topo = small_topo(3, 3, 3);
        let go = || {
            let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.5, None, SimRng::new(seed));
            let mut sim = Simulation::new(
                SimConfig::new(topo.clone(), pick_scheme(scheme_idx, &topo)).with_seed(seed),
            );
            sim.add_flows(gen.schedule(25));
            sim.run_to_completion(Time::from_secs(30));
            (
                sim.stats.events,
                sim.records().iter().map(|r| r.finish).collect::<Vec<_>>(),
            )
        };
        prop_assert_eq!(go(), go());
    }

    /// Cutting links (while staying connected) never wedges the fabric:
    /// flows still complete over the remaining paths.
    #[test]
    fn link_cuts_keep_fabric_usable(
        cut_mask in 0u8..7, // never cuts every spine
        scheme_idx in 0u8..5,
        seed in 0u64..100,
    ) {
        let mut topo = small_topo(2, 3, 3);
        for s in 0..3u16 {
            if cut_mask & (1 << s) != 0 {
                topo.cut_link(hermes_net::LeafId(0), hermes_net::SpineId(s));
            }
        }
        prop_assert_eq!(topo.check_connected(), Ok(()));
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.3, None, SimRng::new(seed));
        let mut sim = Simulation::new(
            SimConfig::new(topo.clone(), pick_scheme(scheme_idx, &topo)).with_seed(seed),
        );
        sim.add_flows(gen.schedule(20));
        sim.run_to_completion(Time::from_secs(60));
        let unfinished = sim.records().iter().filter(|r| r.finish.is_none()).count();
        prop_assert_eq!(unfinished, 0, "cut_mask {:03b} wedged the fabric", cut_mask);
    }

    /// Every chaos-sampled fault plan is valid, deterministic in its
    /// seed, and survives the scenario round-trip exactly: the campaign
    /// cell written for it (the file the shrinker emits) parses back to
    /// the same plan, seed and `[slo]`, and writes back to the same
    /// bytes — the `[[event]]` syntax loses nothing from the full fault
    /// grammar.
    #[test]
    fn sampled_chaos_plans_validate_and_round_trip(seed in 0u64..100_000) {
        let gen_cfg = chaos::GenCfg::testbed();
        let plan = chaos::sample_plan(seed, &gen_cfg);
        prop_assert_eq!(plan.validate(), Ok(()));
        prop_assert_eq!(&chaos::sample_plan(seed, &gen_cfg), &plan);
        let description = format!("round-trip probe for seed {seed} (\"quoted\\path\")");
        let tag = SloTag {
            class: Some(chaos::SloClass::Recovery),
            cell: Some("hermes".to_string()),
        };
        let text = chaos::cell_scenario(&description, seed, &plan, true, &tag);
        let back = parse_scenario(&text, "probe", "probe")
            .unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        prop_assert_eq!(&back.base.sim.fault_plan, &plan, "TOML round-trip must be lossless");
        prop_assert_eq!(&back.seeds, &vec![seed]);
        prop_assert_eq!(&back.description, &description);
        prop_assert_eq!(back.slo.as_ref(), Some(&tag));
        // Serialization is canonical: re-serializing the reparsed
        // scenario reproduces the bytes.
        let again = chaos::cell_scenario(&back.description, back.seeds[0], &back.base.sim.fault_plan, true, &tag);
        prop_assert_eq!(again, text);
    }
}
