//! The metric catalogue: every name the benchmark emits, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//! `BENCHMARK.json` lists exactly these (a unit test holds the two
//! together); README.md carries the prose.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `now` is than `base`, as a share of `base`
    /// (negative when better).
    pub fn worsening(self, base: f64, now: f64) -> f64 {
        match self {
            Better::Lower => (now - base) / base,
            Better::Higher => (base - now) / base,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median the metric may worsen by.
    pub bound: f64,
    /// Simulated time (repeats exactly for a seed; a run reports the
    /// mean over its reps' seeds) or host time (noisy; a run reports
    /// the median over its reps).
    pub simulated: bool,
}

/// Per-layer metrics have no bound. How each is measured and which
/// end-to-end metric it should move, on which workload, is the table
/// in README.md.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

use Better::{Higher, Lower};

const fn host(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        simulated: false,
    }
}

const fn simulated(name: &'static str, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit: "ms",
        better: Lower,
        bound,
        simulated: true,
    }
}

/// What a researcher regenerating a figure or a chaos campaign waits
/// for (host time), is capped by (host memory) and reads (FCT).
///
/// The driver holds each metric's spread across ten different seeds to
/// its bound, so a bound must cover both host noise and how far the
/// inputs of different seeds sit apart (README.md has the measured
/// spreads). The shared 2-core sizing box changes speed by 10-15 % for
/// minutes at a time, which nothing inside one run can shed, so the
/// host-time bounds sit at the contract's 25 % cap; memory does not
/// drift and gets 15 %. Simulated-time metrics repeat exactly for one
/// seed, so on a same-seed A/B run any move at all is a model change;
/// their 25 % only covers the seed-to-seed spread of 2 000 heavy-tailed
/// flows.
pub const END_TO_END: [EndToEnd; 7] = [
    host("wall_s", "s", Lower, 0.25),
    host("pkts_per_s", "1/s", Higher, 0.25),
    host("peak_rss_mb", "MiB", Lower, 0.15),
    host("setup_s", "s", Lower, 0.25),
    simulated("fct_mean_ms", 0.25),
    simulated("fct_p99_ms", 0.25),
    simulated("sim_makespan_ms", 0.25),
];

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

pub const PER_LAYER: [PerLayer; 46] = [
    layer("runtime.ns_per_event", "ns", Lower),
    layer("runtime.slice_ns_per_event_p50", "ns", Lower),
    layer("runtime.slice_ns_per_event_p90", "ns", Lower),
    layer("runtime.events", "count", Lower),
    layer("runtime.events_per_pkt", "ratio", Lower),
    layer("runtime.trace_overhead_frac", "ratio", Lower),
    layer("runtime.unattributed_share", "ratio", Lower),
    layer("sim.queue_churn_ns_1k", "ns", Lower),
    layer("sim.queue_churn_ns_100k", "ns", Lower),
    layer("sim.est_share", "ratio", Lower),
    layer("sim.queue_clamps", "count", Lower),
    layer("net.port_cycle_ns", "ns", Lower),
    layer("net.pool_cycle_ns", "ns", Lower),
    layer("net.digest_ns_per_event", "ns", Lower),
    layer("net.port_est_share", "ratio", Lower),
    layer("net.pool_est_share", "ratio", Lower),
    layer("net.digest_est_share", "ratio", Lower),
    layer("net.pkts_injected", "count", Lower),
    layer("net.pkts_delivered", "count", Higher),
    layer("net.delivered_per_injected", "ratio", Higher),
    layer("net.drops_full", "count", Lower),
    layer("net.drops_failure", "count", Lower),
    layer("net.ecn_marks", "count", Lower),
    layer("net.trains_inlined", "count", Higher),
    layer("net.trains_inlined_per_kevent", "ratio", Higher),
    layer("net.pool_fresh", "count", Lower),
    layer("net.pool_reuse_ratio", "ratio", Higher),
    layer("net.pool_trimmed", "count", Lower),
    layer("net.fault_marginal_ns_per_event", "ns", Lower),
    layer("transport.sender_ack_ns", "ns", Lower),
    layer("transport.receiver_data_ns", "ns", Lower),
    layer("transport.est_share", "ratio", Lower),
    layer("transport.ooo_packets", "count", Lower),
    layer("core.marginal_ns_per_event", "ns", Lower),
    layer("core.probes_sent", "count", Lower),
    layer("core.probe_responses", "count", Higher),
    layer("core.probe_timeouts", "count", Lower),
    layer("core.path_changes", "count", Lower),
    layer("core.path_changes_per_kflow", "ratio", Lower),
    layer("workload.flowgen_ns_per_flow", "ns", Lower),
    layer("workload.install_ns_per_flow", "ns", Lower),
    layer("workload.flows", "count", Higher),
    layer("workload.flows_unfinished", "count", Lower),
    layer("workload.flows_small", "count", Higher),
    layer("host.calib_ns_per_iter", "ns", Lower),
    layer("host.cores", "count", Higher),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// A metric name is `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`.
    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    /// A unit is `[A-Za-z0-9_/%.-]{1,16}`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_obey_the_charset_and_are_unique() {
        let names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for n in &names {
            assert!(valid_name(n), "bad metric name {n:?}");
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
        for u in END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(PER_LAYER.iter().map(|m| m.unit))
        {
            assert!(valid_unit(u), "bad unit {u:?}");
        }
        assert!(!valid_name(".x") && !valid_name("a b") && !valid_name(""));
        assert!(!valid_unit("sim pkts / host s") && !valid_unit(""));
    }

    #[test]
    fn bounds_fit_the_contract_and_setup_has_the_largest() {
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(m.bound <= setup.bound, "{}", m.name);
        }
    }

    #[test]
    fn worsening_is_signed_by_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Lower.worsening(10.0, 9.0) < 0.0);
    }
}
