//! A guided tour of Hermes' sensing layer, without a network: feed a
//! path-state table the signals a hypervisor would observe and watch
//! Algorithm 1 classify (and the failure detectors fire).
//!
//! ```sh
//! cargo run --example sensing_tour
//! ```

use hermes_core::{
    HermesParams, PathState, FAILURE_QUIET_PERIOD, RECOVERY_PROBE_COUNT, RETX_WINDOW, T_ECN,
};
use hermes_net::Topology;
use hermes_sim::Time;

fn show(label: &str, st: &mut PathState, p: &HermesParams, now: Time) {
    println!(
        "{label:46} → {:?}  (f_ECN={:.2}, t_RTT={})",
        st.characterize(p, now),
        st.f_ecn(),
        st.t_rtt().map_or("—".to_string(), |t| t.to_string()),
    );
}

fn main() {
    let topo = Topology::sim_baseline();
    let p = HermesParams::from_topology(&topo);
    println!(
        "Thresholds from the topology (§3.3): T_RTT_low={}, T_RTT_high={}, T_ECN={:.0}%\n",
        p.t_rtt_low,
        p.t_rtt_high,
        T_ECN * 100.0
    );
    let now = Time::from_ms(1);

    // 1. A freshly booted path: nothing known.
    let mut unknown = PathState::default();
    show("never sampled", &mut unknown, &p, now);

    // 2. Low RTT, no marks — a good path.
    let mut good = PathState::default();
    for _ in 0..50 {
        good.sample(Some(p.t_rtt_low - Time::from_us(15)), false, &p, now);
    }
    show("low RTT + low ECN", &mut good, &p, now);

    // 3. High RTT but no marks — could just be stack latency: gray.
    let mut gray1 = PathState::default();
    for _ in 0..50 {
        gray1.sample(Some(p.t_rtt_high + Time::from_us(40)), false, &p, now);
    }
    show("high RTT + low ECN (stack latency?)", &mut gray1, &p, now);

    // 4. Marked ECN but low RTT — not enough samples to be sure: gray.
    let mut gray2 = PathState::default();
    for _ in 0..50 {
        gray2.sample(Some(p.t_rtt_low - Time::from_us(15)), true, &p, now);
    }
    show("low RTT + high ECN (few samples?)", &mut gray2, &p, now);

    // 5. Both high — congested.
    let mut congested = PathState::default();
    for _ in 0..50 {
        congested.sample(Some(p.t_rtt_high + Time::from_us(40)), true, &p, now);
    }
    show("high RTT + high ECN", &mut congested, &p, now);

    // 6. Blackhole: timeouts with nothing ACKed in between.
    let mut hole = PathState::default();
    hole.on_timeout(now);
    hole.on_timeout(now);
    show("2 timeouts, nothing ACKed", &mut hole, &p, now);
    hole.on_timeout(now);
    show("3rd timeout (blackhole rule)", &mut hole, &p, now);

    // 7. Silent random drops: healthy-looking path, 3% retransmissions.
    let mut lossy = PathState::default();
    let mut t = now;
    for i in 0..600u32 {
        t = now + Time::from_us(20 * i as u64);
        lossy.on_sent(&p, t);
        if i % 33 == 0 {
            lossy.on_retransmit(&p, t);
        }
        lossy.sample(Some(p.t_rtt_low - Time::from_us(15)), false, &p, t);
    }
    let after = t + RETX_WINDOW;
    lossy.on_sent(&p, after);
    lossy.sample(Some(p.t_rtt_low - Time::from_us(15)), false, &p, after);
    show(
        "3% retransmits on an UNcongested path",
        &mut lossy,
        &p,
        after,
    );

    // 8. Recovery: after a quiet period the failed path enters
    // probation (the probe planner checks `in_probation`, as the
    // runtime does) and K clean probes re-admit it (DESIGN.md §9).
    let quiet = now + FAILURE_QUIET_PERIOD;
    assert!(hole.in_probation(&p, quiet), "quiet period has elapsed");
    for i in 0..u64::from(RECOVERY_PROBE_COUNT) {
        hole.sample(
            Some(p.t_rtt_low - Time::from_us(15)),
            false,
            &p,
            quiet + Time::from_us(500 * i),
        );
    }
    show(
        "quiet period + 3 clean probes (re-admitted)",
        &mut hole,
        &p,
        quiet + Time::from_ms(2),
    );

    println!(
        "\nFailure classes stay sticky until a quiet period plus probation probes\n\
         re-admit the path; everything else re-evaluates per packet."
    );
}
