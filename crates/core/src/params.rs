//! Hermes parameters (Table 4) and the §3.3 rules of thumb that derive
//! them from a topology.

use hermes_net::Topology;
use hermes_sim::Time;

/// The Hermes parameters an experiment varies, or that the §3.3 rules
/// of thumb derive from the topology. The rest of Table 4 sits at the
/// paper's recommended defaults as constants beside the code that
/// reads them: [`T_ECN`](crate::T_ECN), the failure-sensing and
/// recovery thresholds and the estimator gains in `state.rs`,
/// [`PROBE_CHOICES`](crate::PROBE_CHOICES),
/// [`DELTA_ECN`](crate::DELTA_ECN) and
/// [`SIZE_THRESHOLD`](crate::SIZE_THRESHOLD) in `hermes.rs`.
#[derive(Clone, Copy, Debug)]
pub struct HermesParams {
    // --- Congestion sensing (§3.1.1) ---
    /// `T_RTT_low`: RTT below which a path may be good
    /// (base RTT + 20–40 µs; default +20 µs).
    pub t_rtt_low: Time,
    /// `T_RTT_high`: RTT above which a path may be congested
    /// (base RTT + 1.5 × one-hop delay).
    pub t_rtt_high: Time,
    // --- Probing (§3.1.3) ---
    /// Probe interval (100–500 µs; default 500 µs). `Time::MAX` disables
    /// probing ("Hermes without probing", Fig. 18).
    pub probe_interval: Time,
    // --- Cautious rerouting (§3.2) ---
    /// `Δ_RTT`: a path must beat the current one by this much RTT
    /// (one-hop delay).
    pub delta_rtt: Time,
    /// `R`: flows sending faster than this are not rerouted
    /// (20–40% of link capacity; default 30%).
    pub rate_threshold_bps: f64,
    /// Minimum time between congestion-driven reroutes of one flow.
    /// Not in Table 4, but required in practice: each reroute costs a
    /// reordering dip (Fig. 6's R₁ → ½R₁), so a reroute only pays off
    /// once the flow has recovered and actually banked the gain —
    /// several tens of RTTs. Without this, a loaded fabric shows
    /// persistent "notably better" gaps between busy paths and flows
    /// chase them dozens of times per second (set to ~50 base RTTs).
    pub reroute_cooldown: Time,
    // --- Failure recovery (transient faults) ---
    /// Disable recovery entirely: failed paths stay failed for the run
    /// (the pre-recovery behaviour, useful for ablations).
    pub enable_recovery: bool,
    // --- Ablation switches (§5.4, Fig. 18) and §5.4's TCP mode ---
    /// Disable congested-path rerouting ("Hermes without rerouting";
    /// new-flow placement and failure evasion stay active).
    pub enable_reroute: bool,
    /// Sense with RTT only (§5.4: Hermes over plain TCP, no ECN).
    pub rtt_only: bool,
}

impl HermesParams {
    /// Apply the §3.3 rules of thumb to a topology: thresholds derived
    /// from its base RTT, one-hop delay, and host link rate.
    pub fn from_topology(topo: &Topology) -> HermesParams {
        let base = topo.base_rtt();
        let hop = topo.one_hop_delay();
        HermesParams {
            t_rtt_low: base + Time::from_us(20),
            t_rtt_high: base + hop.mul_f64(1.5),
            probe_interval: Time::from_us(500),
            delta_rtt: hop,
            rate_threshold_bps: 0.30 * topo.host_link.rate_bps as f64,
            reroute_cooldown: base * 50,
            enable_recovery: true,
            enable_reroute: true,
            rtt_only: false,
        }
    }

    /// The paper's explicit testbed configuration (§3.3): on the 1 Gbps
    /// testbed the authors pick T_RTT_high = 300 µs and Δ_RTT = 120 µs
    /// rather than the raw one-hop-delay formula (which, with a 30 KB
    /// marking threshold at 1 Gbps, would put T_RTT_high at ~435 µs and
    /// make the "congested" class nearly unreachable).
    pub fn paper_testbed(topo: &Topology) -> HermesParams {
        let mut p = HermesParams::from_topology(topo);
        let base = topo.base_rtt();
        p.t_rtt_high = base.max(Time::from_us(100)) + Time::from_us(200);
        p.delta_rtt = Time::from_us(120);
        p
    }

    /// §5.4's TCP variant: RTT-only sensing with 1.5× larger RTT
    /// thresholds.
    pub fn for_tcp(topo: &Topology) -> HermesParams {
        let mut p = HermesParams::from_topology(topo);
        let base = topo.base_rtt();
        p.rtt_only = true;
        p.t_rtt_high = base + (p.t_rtt_high - base).mul_f64(1.5);
        p.delta_rtt = p.delta_rtt.mul_f64(1.5);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_baseline_matches_paper_regime() {
        let topo = Topology::sim_baseline();
        let p = HermesParams::from_topology(&topo);
        // §3.3: T_RTT_high ≈ 180 µs in simulations, Δ_RTT ≈ 80 µs.
        let high = p.t_rtt_high.as_us();
        assert!((150..=210).contains(&high), "T_RTT_high {high}us");
        assert_eq!(p.delta_rtt, Time::from_us(80));
        assert!((p.rate_threshold_bps - 3e9).abs() < 1.0);
        assert!(p.t_rtt_low < p.t_rtt_high);
    }

    #[test]
    fn tcp_mode_relaxes_rtt_thresholds() {
        let topo = Topology::sim_baseline();
        let d = HermesParams::from_topology(&topo);
        let t = HermesParams::for_tcp(&topo);
        assert!(t.rtt_only);
        assert!(t.t_rtt_high > d.t_rtt_high);
        assert!(t.delta_rtt > d.delta_rtt);
        assert_eq!(t.t_rtt_low, d.t_rtt_low);
    }

    #[test]
    fn testbed_thresholds_scale_with_one_gig() {
        let topo = Topology::testbed();
        let p = HermesParams::from_topology(&topo);
        // 1G: one-hop delay = 30 KB / 1 Gbps = 240 µs.
        assert_eq!(p.delta_rtt, Time::from_us(240));
        assert!((p.rate_threshold_bps - 0.3e9).abs() < 1.0);
    }
}
