//! Hermes: the load balancer (§3).
//!
//! One [`Hermes`] serves a whole rack. It owns the rack's
//! [`RackSensing`] table by value (the paper shares probed information
//! "among all hypervisors under the same rack", §3.1.3) plus one local
//! sending-rate table per host under the leaf, selected by `ctx.src`.
//! Every probe interval the rack's *probe agent* probes, per
//! destination rack, two random paths plus the previously best one
//! (power of two choices with memory), and the results land in the
//! rack table.
//!
//! Path selection is Algorithm 2 — *timely yet cautious rerouting*:
//!
//! * New flows, flows that hit an RTO, and flows on failed paths are
//!   (re)placed immediately: best *good* path by local sending rate,
//!   else best *gray* path, else a random non-failed path.
//! * A flow on a *congested* path is rerouted only if it is worth it:
//!   it must have sent more than `S` bytes (small flows finish before
//!   the new path pays off), be sending below `R` (fast flows lose more
//!   from the reordering dip than they gain), and the target must be
//!   *notably* better (`Δ_RTT` and `Δ_ECN` margins) — pruning the
//!   vigorous rerouting that causes congestion mismatch (§2.2.2).

use std::collections::BTreeMap;

use hermes_net::{Dre, EdgeLb, FlowCtx, HostId, LeafId, PathId, ProbeTarget, Topology};
use hermes_sim::{SimRng, Time};

use crate::params::HermesParams;
use crate::sensing::RackSensing;
use crate::state::{PathState, PathType};

/// Random probes per destination rack per interval (power of two
/// choices, §3.1.3), plus one on the previously best path.
pub const PROBE_CHOICES: usize = 2;

/// `Δ_ECN`: a reroute target must beat the current path by this much
/// ECN fraction (3–10%; default 5%, §3.2).
pub const DELTA_ECN: f64 = 0.05;

/// `S`: minimum bytes sent before a flow may be rerouted
/// (100–800 KB; default 600 KB, §3.2).
pub const SIZE_THRESHOLD: u64 = 600_000;

/// One rack's Hermes instance, serving every host under the leaf.
pub struct Hermes {
    sensing: RackSensing,
    /// Host-local per-path aggregate sending rate `r_p`, one table per
    /// host under the leaf, indexed by `Topology::host_slot`.
    r_p: Vec<BTreeMap<(LeafId, PathId), Dre>>,
    /// The candidates of the `select_path` call in progress, each
    /// classified once. Kept across calls, so choosing a path allocates
    /// nothing once the buffer has grown to the spine count.
    cands: Vec<Cand>,
    /// The candidate indices a `probe_plan` call samples for one
    /// destination; kept across calls like `cands`.
    picks: Vec<usize>,
}

/// One classified candidate path.
struct Cand {
    path: PathId,
    class: PathType,
    /// The host's local sending rate on `path` if it is in the set the
    /// current [`Hermes::argmin_rp`] call ranks, else `None`.
    rate: Option<f64>,
}

impl Hermes {
    pub fn new(topo: &Topology, leaf: LeafId, params: HermesParams) -> Hermes {
        Hermes {
            sensing: RackSensing::new(topo, leaf, params),
            r_p: vec![BTreeMap::new(); topo.hosts_per_leaf],
            cands: Vec::new(),
            picks: Vec::new(),
        }
    }

    /// The rack's sensing table (tests, diagnostics).
    pub fn sensing(&self) -> &RackSensing {
        &self.sensing
    }

    /// Every flow hook serves this rack's hosts only; a wrong-rack `ctx`
    /// would alias a local host's `r_p` slot and pollute the rack table.
    fn check(&self, ctx: &FlowCtx) {
        debug_assert_eq!(ctx.src_leaf, self.sensing.my_leaf, "flow of another rack");
    }

    /// The index of `host`'s own `r_p` table (`Topology::host_slot`:
    /// hosts are numbered leaf-major, and `r_p` has one entry per host
    /// slot).
    fn rp_slot(&self, host: HostId) -> usize {
        host.0 as usize % self.r_p.len()
    }

    /// The class of candidate `path`, if it is one.
    fn class_of(&self, path: PathId) -> Option<PathType> {
        self.cands.iter().find(|c| c.path == path).map(|c| c.class)
    }

    /// Among the candidates of class `t` — only those notably better
    /// than `margin_over`, when given — the path with the smallest local
    /// sending rate (Algorithm 2's `Argmin r_p`); `None` if there is no
    /// such candidate. Ties — which are the common case, since most
    /// paths carry none of this host's traffic — break *randomly*: a
    /// deterministic tie-break would herd every host onto the same
    /// lowest-indexed path (§3.1.3's synchronization concern).
    fn argmin_rp(
        &mut self,
        host: HostId,
        dst: LeafId,
        t: PathType,
        margin_over: Option<PathId>,
        now: Time,
        rng: &mut SimRng,
    ) -> Option<PathId> {
        let slot = self.rp_slot(host);
        let r_p = &mut self.r_p[slot];
        let sh = &self.sensing;
        let cur = margin_over.map(|p| sh.path_state(dst, p));
        let mut min = f64::INFINITY;
        for c in &mut self.cands {
            let ranked = c.class == t
                && cur.is_none_or(|s| notably_better(&sh.params, s, sh.path_state(dst, c.path)));
            c.rate = ranked.then(|| r_p.get_mut(&(dst, c.path)).map_or(0.0, |d| d.rate_bps(now)));
            if let Some(r) = c.rate {
                min = min.min(r);
            }
        }
        let tied = |c: &&Cand| c.rate.is_some_and(|r| r <= min * 1.001 + 1.0);
        let n = self.cands.iter().filter(tied).count();
        if n == 0 {
            return None;
        }
        let k = rng.below(n);
        self.cands.iter().filter(tied).nth(k).map(|c| c.path)
    }
}

/// `cur − cand > Δ` on both RTT and ECN fraction (§3.2; RTT alone in
/// RTT-only mode).
fn notably_better(params: &HermesParams, cur: &PathState, cand: &PathState) -> bool {
    let (Some(cur_rtt), Some(cand_rtt)) = (cur.t_rtt(), cand.t_rtt()) else {
        return false;
    };
    if cur_rtt.saturating_sub(cand_rtt) <= params.delta_rtt {
        return false;
    }
    params.rtt_only || cur.f_ecn() - cand.f_ecn() > DELTA_ECN
}

impl EdgeLb for Hermes {
    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        now: Time,
        rng: &mut SimRng,
    ) -> PathId {
        self.check(ctx);
        let params = self.sensing.params;
        let d = ctx.dst_leaf;
        // Classify every candidate once: `characterize` updates path state.
        let sh = &mut self.sensing;
        self.cands.clear();
        self.cands.extend(candidates.iter().map(|&path| Cand {
            path,
            class: sh.characterize(d, path, now),
            rate: None,
        }));
        let cur = ctx.current_path;
        let cur_class = self.class_of(cur); // `None` for a new flow's unset path

        // One Reroute record per decision; free unless a sink is installed.
        let trace = |to: PathId, verdict: hermes_telemetry::RerouteVerdict| {
            hermes_telemetry::emit_with(now, || hermes_telemetry::Record::Reroute {
                flow: ctx.flow.0,
                dst_leaf: u32::from(d.0),
                from_path: cur.telemetry_code(),
                to_path: to.telemetry_code(),
                verdict,
            });
        };

        // Lines 3–12: new flow, post-timeout, or failed path.
        let needs_placement = ctx.is_new
            || ctx.timed_out
            || cur_class.is_none()
            || cur_class == Some(PathType::Failed);
        if needs_placement {
            let chosen = if let Some(p) = self.argmin_rp(ctx.src, d, PathType::Good, None, now, rng)
            {
                p
            } else if let Some(p) = self.argmin_rp(ctx.src, d, PathType::Gray, None, now, rng) {
                p
            } else {
                // Random path with no failure; if everything is
                // failed, random among all (keep trying).
                let congested = || self.cands.iter().filter(|c| c.class == PathType::Congested);
                match congested().count() {
                    0 => candidates[rng.below(candidates.len())],
                    n => congested().nth(rng.below(n)).expect("nth of n").path,
                }
            };
            // Algorithm 2 line 12: a failed path is eligible only when
            // every candidate has failed (keep trying *somewhere*).
            debug_assert!(
                self.cands.iter().all(|c| c.class == PathType::Failed)
                    || self.class_of(chosen) != Some(PathType::Failed),
                "Algorithm 2 placed a flow on a failed path despite a live alternative"
            );
            let sh = &mut self.sensing;
            let verdict = if cur_class == Some(PathType::Failed) {
                sh.stat_failovers += 1;
                hermes_telemetry::RerouteVerdict::Failover
            } else {
                sh.stat_initial += 1;
                if ctx.timed_out {
                    hermes_telemetry::RerouteVerdict::TimeoutReplace
                } else {
                    hermes_telemetry::RerouteVerdict::Initial
                }
            };
            trace(chosen, verdict);
            return chosen;
        }

        // Lines 13–23: reroute off a congested path, cautiously.
        if cur_class == Some(PathType::Congested) && params.enable_reroute {
            // The three cautious gates, split out so telemetry can name
            // the first one that held (plain comparisons: hoisting them
            // does not change Algorithm 2's behaviour).
            let big_enough = ctx.bytes_sent > SIZE_THRESHOLD;
            let slow_enough = ctx.rate_bps < params.rate_threshold_bps;
            let cooled_down = ctx.since_change > params.reroute_cooldown;
            if big_enough && slow_enough && cooled_down {
                // A good path notably better than `cur`, else a gray one.
                let pick = self
                    .argmin_rp(ctx.src, d, PathType::Good, Some(cur), now, rng)
                    .or_else(|| self.argmin_rp(ctx.src, d, PathType::Gray, Some(cur), now, rng));
                if let Some(p) = pick {
                    // Reroute targets come from the good/gray classes
                    // only — never a failed path.
                    debug_assert_ne!(
                        self.class_of(p),
                        Some(PathType::Failed),
                        "cautious reroute chose a failed path"
                    );
                    self.sensing.stat_reroutes += 1;
                    trace(p, hermes_telemetry::RerouteVerdict::Rerouted);
                    return p;
                }
                trace(cur, hermes_telemetry::RerouteVerdict::HeldNoMargin);
            } else if hermes_telemetry::enabled() {
                let verdict = if !big_enough {
                    hermes_telemetry::RerouteVerdict::HeldSize
                } else if !slow_enough {
                    hermes_telemetry::RerouteVerdict::HeldRate
                } else {
                    hermes_telemetry::RerouteVerdict::HeldCooldown
                };
                trace(cur, verdict);
            }
            return cur; // do not reroute
        }

        cur // good/gray current path: stay
    }

    fn on_ack(
        &mut self,
        ctx: &FlowCtx,
        path: PathId,
        rtt: Option<Time>,
        ecn: bool,
        _bytes_acked: u64,
        now: Time,
    ) {
        self.check(ctx);
        let sh = &mut self.sensing;
        // `observe` skips intra-rack and synthetic (reorder-flush) ACKs.
        let recovered = sh.observe(ctx.dst_leaf, path, now, |st, p| st.sample(rtt, ecn, p, now));
        if recovered == Some(true) {
            sh.note_recovery(now);
        }
    }

    fn on_timeout(&mut self, ctx: &FlowCtx, path: PathId, now: Time) {
        self.check(ctx);
        let sh = &mut self.sensing;
        let failed = sh.observe(ctx.dst_leaf, path, now, |st, _| st.on_timeout(now));
        if failed == Some(true) {
            sh.note_failure(now);
        }
    }

    fn on_retransmit(&mut self, ctx: &FlowCtx, path: PathId, now: Time) {
        self.check(ctx);
        // A retransmission can demote Probation → Failed.
        self.sensing
            .observe(ctx.dst_leaf, path, now, |st, p| st.on_retransmit(p, now));
    }

    fn on_data_sent(&mut self, ctx: &FlowCtx, path: PathId, bytes: u64, now: Time) {
        self.check(ctx);
        if !path.is_spine() {
            return;
        }
        let p = self.sensing.params;
        self.sensing.st(ctx.dst_leaf, path).on_sent(&p, now);
        let slot = self.rp_slot(ctx.src);
        self.r_p[slot]
            .entry((ctx.dst_leaf, path))
            .or_insert_with(Dre::default_horizon)
            .add(bytes, now);
    }

    fn probe_plan(&mut self, now: Time, rng: &mut SimRng, plan: &mut Vec<ProbeTarget>) {
        let sh = &mut self.sensing;
        let my = sh.my_leaf;
        let params = sh.params;
        let start = plan.len();
        for d in 0..sh.candidates.len() {
            let dst = LeafId(d as u16);
            let n = sh.candidates[d].len();
            if dst == my || n == 0 {
                continue;
            }
            rng.sample_distinct_into(n, PROBE_CHOICES, &mut self.picks);
            let first = plan.len();
            plan.extend(self.picks.iter().map(|&i| ProbeTarget {
                dst_leaf: dst,
                path: sh.candidates[d][i],
            }));
            // Append `path` unless this destination already probes it.
            let add = |plan: &mut Vec<ProbeTarget>, path: PathId| {
                if !plan[first..].iter().any(|t| t.path == path) {
                    plan.push(ProbeTarget {
                        dst_leaf: dst,
                        path,
                    });
                }
            };
            // "an extra probe on the previously observed best path"
            if let Some(best) = sh.best_path(dst) {
                add(plan, best);
            }
            // Recovery sensing: every path in probation is probed each
            // tick — probes are the only traffic allowed to test it, so
            // re-admission latency is bounded by
            // RECOVERY_PROBE_COUNT × probe_interval.
            for k in 0..n {
                let p = sh.candidates[d][k];
                if sh.st(dst, p).in_probation(&params, now) {
                    if hermes_telemetry::enabled() {
                        // Probe planning is where Failed ages out into
                        // Probation — report the transition here.
                        sh.trace_path(dst, p, now);
                    }
                    add(plan, p);
                }
            }
        }
        sh.stat_probes += (plan.len() - start) as u64;
    }

    fn on_probe_result(&mut self, dst_leaf: LeafId, path: PathId, rtt: Time, ecn: bool, now: Time) {
        let sh = &mut self.sensing;
        let recovered = sh.observe(dst_leaf, path, now, |st, p| {
            st.sample(Some(rtt), ecn, p, now)
        });
        if recovered == Some(true) {
            sh.note_recovery(now);
        }
    }

    fn on_probe_timeout(&mut self, dst_leaf: LeafId, path: PathId, now: Time) {
        self.sensing
            .observe(dst_leaf, path, now, |st, _| st.on_probe_lost(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::{FAILURE_QUIET_PERIOD, RECOVERY_PROBE_COUNT};

    fn setup() -> (Hermes, HermesParams) {
        let topo = Topology::sim_baseline();
        let params = HermesParams::from_topology(&topo);
        (Hermes::new(&topo, LeafId(0), params), params)
    }

    fn ctx_new() -> FlowCtx {
        FlowCtx {
            flow: hermes_net::FlowId(1),
            src: hermes_net::HostId(0),
            dst: hermes_net::HostId(20),
            src_leaf: LeafId(0),
            dst_leaf: LeafId(1),
            bytes_sent: 0,
            rate_bps: 0.0,
            current_path: PathId::UNSET,
            is_new: true,
            timed_out: false,
            since_change: Time::MAX,
            since_tx: Time::MAX,
        }
    }

    fn cands() -> Vec<PathId> {
        (0..8u16).map(PathId).collect()
    }

    /// Feed a path signals that classify it as `good`/`congested`.
    fn feed(h: &mut Hermes, dst: LeafId, p: PathId, rtt: Time, ecn: bool, now: Time) {
        let params = h.sensing.params;
        for _ in 0..100 {
            h.sensing.st(dst, p).sample(Some(rtt), ecn, &params, now);
        }
    }

    #[test]
    fn new_flow_prefers_good_path() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let good_rtt = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(5), good_rtt, false, now);
        // All other paths unsampled (gray). The good one must win.
        let p = h.select_path(&ctx_new(), &cands(), now, &mut rng);
        assert_eq!(p, PathId(5));
        assert_eq!(h.sensing().stat_initial, 1);
    }

    #[test]
    fn new_flow_balances_by_local_rate_among_good() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let good_rtt = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(2), good_rtt, false, now);
        feed(&mut h, LeafId(1), PathId(6), good_rtt, false, now);
        // Load path 2 locally.
        let c = ctx_new();
        h.on_data_sent(&c, PathId(2), 1_000_000, now);
        let p = h.select_path(&c, &cands(), now, &mut rng);
        assert_eq!(p, PathId(6), "least-loaded good path wins");
    }

    #[test]
    fn sticks_to_gray_current_path() {
        let (mut h, _params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(3); // unsampled → gray
        let p = h.select_path(&c, &cands(), now, &mut rng);
        assert_eq!(p, PathId(3), "no reason to move off a gray path");
    }

    #[test]
    fn congested_path_reroutes_only_when_cautious_checks_pass() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let hot = params.t_rtt_high + Time::from_us(100);
        let cold = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(0), hot, true, now); // congested
        feed(&mut h, LeafId(1), PathId(4), cold, false, now); // good
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(0);
        // Small flow: stays despite congestion.
        c.bytes_sent = 10_000;
        c.rate_bps = 0.0;
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(0));
        // Large slow flow: reroutes to the notably better good path.
        c.bytes_sent = SIZE_THRESHOLD + 1;
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(4));
        assert_eq!(h.sensing().stat_reroutes, 1);
        // High-rate flow: stays (R check).
        c.rate_bps = params.rate_threshold_bps * 2.0;
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(0));
    }

    #[test]
    fn reroute_cooldown_blocks_flipflop() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let hot = params.t_rtt_high + Time::from_us(100);
        let cold = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(0), hot, true, now);
        feed(&mut h, LeafId(1), PathId(4), cold, false, now);
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(0);
        c.bytes_sent = SIZE_THRESHOLD + 1;
        // Just rerouted: must stay despite the notably better path.
        c.since_change = params.reroute_cooldown / 2;
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(0));
        // Cooldown elapsed: free to move.
        c.since_change = params.reroute_cooldown + Time::from_us(1);
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(4));
    }

    #[test]
    fn no_reroute_without_notable_margin() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let hot = params.t_rtt_high + Time::from_us(100);
        // Alternative barely better than current: margin not met.
        let alt = hot.saturating_sub(params.delta_rtt) + Time::from_us(1);
        feed(&mut h, LeafId(1), PathId(0), hot, true, now);
        feed(&mut h, LeafId(1), PathId(4), alt, true, now);
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(0);
        c.bytes_sent = SIZE_THRESHOLD + 1;
        assert_eq!(
            h.select_path(&c, &cands(), now, &mut rng),
            PathId(0),
            "both Δ_RTT and Δ_ECN must be exceeded"
        );
        assert_eq!(h.sensing().stat_reroutes, 0);
    }

    #[test]
    fn timeout_triggers_immediate_replacement() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let good_rtt = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(7), good_rtt, false, now);
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(2);
        c.timed_out = true;
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(7));
    }

    #[test]
    fn failed_path_is_evacuated_and_avoided() {
        let (mut h, _params) = setup();
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let c0 = ctx_new();
        // Three timeouts on path 2 → failed.
        for _ in 0..3 {
            h.on_timeout(&c0, PathId(2), now);
        }
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(2);
        let p = h.select_path(&c, &cands(), now, &mut rng);
        assert_ne!(p, PathId(2));
        assert_eq!(h.sensing().stat_failovers, 1);
        // New flows also avoid it.
        for seed in 0..20 {
            let mut r = SimRng::new(seed);
            assert_ne!(h.select_path(&ctx_new(), &cands(), now, &mut r), PathId(2));
        }
    }

    #[test]
    fn failed_path_recovers_through_probation_probing() {
        let (mut h, params) = setup();
        let mut rng = SimRng::new(1);
        let t0 = Time::from_ms(1);
        let c0 = ctx_new();
        for _ in 0..3 {
            h.on_timeout(&c0, PathId(2), t0);
        }
        assert_eq!(h.sensing().first_failure_at, Some(t0));
        // Quiet period passes with no evidence → the probe plan must
        // target the probation path toward dst leaf 1.
        let t1 = t0 + FAILURE_QUIET_PERIOD;
        let mut plan = Vec::new();
        h.probe_plan(t1, &mut rng, &mut plan);
        assert!(
            plan.iter()
                .any(|t| t.dst_leaf == LeafId(1) && t.path == PathId(2)),
            "probation path must be probed: {plan:?}"
        );
        // Enough successful probes re-admit it.
        for k in 0..RECOVERY_PROBE_COUNT {
            h.on_probe_result(
                LeafId(1),
                PathId(2),
                Time::from_us(60),
                false,
                t1 + params.probe_interval * u64::from(k),
            );
        }
        let s = h.sensing();
        assert_eq!(s.stat_recoveries, 1);
        assert!(s.first_recovery_at.is_some());
        assert!(!s.path_state(LeafId(1), PathId(2)).failed());
    }

    #[test]
    fn still_dead_path_is_never_readmitted() {
        let (mut h, _) = setup();
        let mut rng = SimRng::new(1);
        let t0 = Time::from_ms(1);
        let c0 = ctx_new();
        for _ in 0..3 {
            h.on_timeout(&c0, PathId(2), t0);
        }
        // Cycle: quiet period → probation → probe lost → failed again.
        let mut t = t0;
        for _ in 0..5 {
            t += FAILURE_QUIET_PERIOD;
            h.probe_plan(t, &mut rng, &mut Vec::new());
            h.on_probe_timeout(LeafId(1), PathId(2), t);
            assert!(
                h.sensing().path_state(LeafId(1), PathId(2)).failed(),
                "a path whose probes keep dying must stay failed"
            );
        }
        assert_eq!(h.sensing().stat_recoveries, 0);
    }

    #[test]
    fn reroute_ablation_pins_congested_flows() {
        let topo = Topology::sim_baseline();
        let mut params = HermesParams::from_topology(&topo);
        params.enable_reroute = false;
        let mut h = Hermes::new(&topo, LeafId(0), params);
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let hot = params.t_rtt_high + Time::from_us(100);
        let cold = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(0), hot, true, now);
        feed(&mut h, LeafId(1), PathId(4), cold, false, now);
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(0);
        c.bytes_sent = SIZE_THRESHOLD + 1;
        assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(0));
    }

    #[test]
    fn probe_plan_is_power_of_two_choices_plus_best() {
        let (mut h, _params) = setup();
        let mut rng = SimRng::new(1);
        // Give dst leaf 3 a known-best path.
        feed(
            &mut h,
            LeafId(3),
            PathId(6),
            Time::from_us(70),
            false,
            Time::from_ms(1),
        );
        let mut plan = Vec::new();
        h.probe_plan(Time::from_ms(1), &mut rng, &mut plan);
        // 7 destination racks; 2 or 3 probes each.
        let per_dst: Vec<usize> = (0..8u16)
            .filter(|&d| d != 0)
            .map(|d| plan.iter().filter(|t| t.dst_leaf == LeafId(d)).count())
            .collect();
        assert!(per_dst.iter().all(|&n| (2..=3).contains(&n)), "{per_dst:?}");
        // dst 3's plan includes the remembered best path.
        assert!(plan
            .iter()
            .any(|t| t.dst_leaf == LeafId(3) && t.path == PathId(6)));
    }

    #[test]
    fn probe_results_update_shared_state() {
        let (mut h, params) = setup();
        let now = Time::from_ms(2);
        h.on_probe_result(LeafId(4), PathId(1), Time::from_us(65), false, now);
        let class = h.sensing.characterize(LeafId(4), PathId(1), now);
        assert_eq!(class, PathType::Good);
        let _ = params;
    }

    #[test]
    fn probe_agents_share_state_with_followers() {
        let (mut h, params) = setup();
        let now = Time::from_ms(1);
        let good_rtt = params.t_rtt_low - Time::from_us(10);
        // The agent's probe result...
        h.on_probe_result(LeafId(1), PathId(3), good_rtt, false, now);
        for _ in 0..50 {
            h.on_probe_result(LeafId(1), PathId(3), good_rtt, false, now);
        }
        // ...guides placement for the agent (host 0) and for a follower
        // (host 1) under the same leaf alike.
        for src in [HostId(0), HostId(1)] {
            let mut rng = SimRng::new(2);
            let c = FlowCtx { src, ..ctx_new() };
            assert_eq!(h.select_path(&c, &cands(), now, &mut rng), PathId(3));
        }
    }

    #[test]
    fn local_rates_stay_per_host_inside_one_rack() {
        let (mut h, params) = setup();
        let now = Time::from_ms(1);
        let good_rtt = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(2), good_rtt, false, now);
        feed(&mut h, LeafId(1), PathId(6), good_rtt, false, now);
        // Host 0 loads path 2; that is host 0's `r_p`, nobody else's.
        let c0 = ctx_new();
        h.on_data_sent(&c0, PathId(2), 1_000_000, now);
        let c1 = FlowCtx {
            src: HostId(1),
            ..ctx_new()
        };
        let mut host1_picks = std::collections::BTreeSet::new();
        for seed in 0..32 {
            let mut rng = SimRng::new(seed);
            assert_eq!(
                h.select_path(&c0, &cands(), now, &mut rng),
                PathId(6),
                "host 0 avoids the path it loaded itself"
            );
            host1_picks.insert(h.select_path(&c1, &cands(), now, &mut rng));
        }
        assert_eq!(
            host1_picks.into_iter().collect::<Vec<_>>(),
            vec![PathId(2), PathId(6)],
            "host 1 sent nothing: both good paths tie for it"
        );
    }

    /// Drain the sink and keep only records matching `keep`.
    fn drained<F: Fn(&hermes_telemetry::Record) -> bool>(keep: F) -> Vec<hermes_telemetry::Record> {
        hermes_telemetry::drain()
            .into_iter()
            .map(|e| e.record)
            .filter(keep)
            .collect()
    }

    #[test]
    fn telemetry_path_transitions_fire_on_failure_and_recovery() {
        use hermes_telemetry::{PathClass, Record};
        let (mut h, params) = setup();
        hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
        let t0 = Time::from_ms(1);
        let c0 = ctx_new();
        for _ in 0..3 {
            h.on_timeout(&c0, PathId(2), t0);
        }
        let tr = drained(|r| matches!(r, Record::PathTransition { .. }));
        assert_eq!(
            tr,
            vec![Record::PathTransition {
                leaf: 0,
                dst_leaf: 1,
                path: 2,
                from: PathClass::Gray,
                to: PathClass::Failed,
            }],
            "exactly one Gray→Failed transition at the blackhole rule"
        );
        // Quiet period → probation (reported from probe planning).
        let t1 = t0 + FAILURE_QUIET_PERIOD;
        let mut rng = SimRng::new(1);
        h.probe_plan(t1, &mut rng, &mut Vec::new());
        let tr = drained(|r| matches!(r, Record::PathTransition { .. }));
        assert!(
            tr.contains(&Record::PathTransition {
                leaf: 0,
                dst_leaf: 1,
                path: 2,
                from: PathClass::Failed,
                to: PathClass::Probation,
            }),
            "Failed→Probation must be traced: {tr:?}"
        );
        // Successful probes re-admit: Probation → a live class.
        for k in 0..RECOVERY_PROBE_COUNT {
            h.on_probe_result(
                LeafId(1),
                PathId(2),
                Time::from_us(60),
                false,
                t1 + params.probe_interval * u64::from(k),
            );
        }
        let tr = drained(|r| matches!(r, Record::PathTransition { .. }));
        assert!(
            tr.iter().any(|r| matches!(
                r,
                Record::PathTransition {
                    path: 2,
                    from: PathClass::Probation,
                    to: PathClass::Good | PathClass::Gray,
                    ..
                }
            )),
            "re-admission must be traced: {tr:?}"
        );
        hermes_telemetry::uninstall();
    }

    #[test]
    fn telemetry_reroute_verdicts_cover_algorithm2_branches() {
        use hermes_telemetry::{Record, RerouteVerdict};
        let (mut h, params) = setup();
        hermes_telemetry::install(hermes_telemetry::SinkConfig::default());
        let mut rng = SimRng::new(1);
        let now = Time::from_ms(1);
        let verdict_of = |r: &Record| match r {
            Record::Reroute { verdict, .. } => Some(*verdict),
            _ => None,
        };
        // New flow → Initial.
        let _ = h.select_path(&ctx_new(), &cands(), now, &mut rng);
        let v: Vec<_> = drained(|r| matches!(r, Record::Reroute { .. }))
            .iter()
            .filter_map(verdict_of)
            .collect();
        assert_eq!(v, vec![RerouteVerdict::Initial]);
        // Congested current path, small flow → HeldSize.
        let hot = params.t_rtt_high + Time::from_us(100);
        let cold = params.t_rtt_low - Time::from_us(10);
        feed(&mut h, LeafId(1), PathId(0), hot, true, now);
        feed(&mut h, LeafId(1), PathId(4), cold, false, now);
        let mut c = ctx_new();
        c.is_new = false;
        c.current_path = PathId(0);
        c.bytes_sent = 10;
        let _ = h.select_path(&c, &cands(), now, &mut rng);
        let v: Vec<_> = drained(|r| matches!(r, Record::Reroute { .. }))
            .iter()
            .filter_map(verdict_of)
            .collect();
        assert_eq!(v, vec![RerouteVerdict::HeldSize]);
        // Gates pass with a notably better path → Rerouted.
        c.bytes_sent = SIZE_THRESHOLD + 1;
        let to = h.select_path(&c, &cands(), now, &mut rng);
        assert_eq!(to, PathId(4));
        let rr = drained(|r| matches!(r, Record::Reroute { .. }));
        assert_eq!(
            rr,
            vec![Record::Reroute {
                flow: 1,
                dst_leaf: 1,
                from_path: 0,
                to_path: 4,
                verdict: RerouteVerdict::Rerouted,
            }]
        );
        // Failed current path → Failover.
        for _ in 0..3 {
            h.on_timeout(&c, PathId(0), now);
        }
        let _ = h.select_path(&c, &cands(), now, &mut rng);
        let v: Vec<_> = drained(|r| matches!(r, Record::Reroute { .. }))
            .iter()
            .filter_map(verdict_of)
            .collect();
        assert_eq!(v, vec![RerouteVerdict::Failover]);
        hermes_telemetry::uninstall();
    }

    #[test]
    fn telemetry_off_thread_emits_nothing() {
        // No sink installed on this thread: the same hooks must stay
        // silent (and the trace_last grid cold).
        let (mut h, _params) = setup();
        let c0 = ctx_new();
        for _ in 0..3 {
            h.on_timeout(&c0, PathId(2), Time::from_ms(1));
        }
        assert!(hermes_telemetry::drain().is_empty());
    }

    #[test]
    fn non_spine_signals_are_ignored() {
        let (mut h, _params) = setup();
        let c = ctx_new();
        h.on_ack(
            &c,
            PathId::DIRECT,
            Some(Time::from_us(50)),
            true,
            1460,
            Time::from_ms(1),
        );
        h.on_timeout(&c, PathId::UNSET, Time::from_ms(1));
        h.on_retransmit(&c, PathId::DIRECT, Time::from_ms(1));
        h.on_data_sent(&c, PathId::UNSET, 1460, Time::from_ms(1));
        // Nothing recorded anywhere.
        let s = h.sensing();
        for d in 0..8u16 {
            for p in 0..8u16 {
                assert!(s.path_state(LeafId(d), PathId(p)).t_rtt().is_none());
            }
        }
    }
}
