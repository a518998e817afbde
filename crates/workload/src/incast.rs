//! Partition–aggregate ("incast") workload.
//!
//! The paper's §6 notes Hermes "does not directly handle microbursts"
//! (it needs at least an RTT to sense); per-packet spraying (Presto*)
//! absorbs them without sensing (`examples/incast.rs` measures both).
//! This driver produces the classic incast pattern
//! from the DCTCP paper: an aggregator fans a query out to `fanout`
//! workers under *other* racks, each replies with `reply_bytes`
//! simultaneously, and the query completes when the last reply lands —
//! so the metric is query completion time (QCT), dominated by the
//! slowest flow.

use hermes_net::{FlowId, HostId, Topology};
use hermes_sim::{SimRng, Time};

use crate::driver::{FlowDriver, IncastCfg};
use crate::flowgen::{host_under_other_leaf, FlowSpec};

/// Closed-loop incast driver: `bursts` sequential N-to-1 waves.
///
/// The driver is barrier-stepped: all `fanout` replies of a
/// burst are released at the same instant toward one aggregator, and
/// burst `b+1` fires only when burst `b`'s *slowest* reply has landed —
/// the partition–aggregate pattern where the application waits on the
/// straggler. Flow ids are dense (`burst × fanout + i`, see
/// [`IncastCfg::flow_id`]) so checkers can reconstruct bursts from
/// records alone. Aggregator and workers are drawn per burst from a
/// seeded [`SimRng`]; workers always sit under racks other than the
/// aggregator's.
pub struct IncastDriver {
    cfg: IncastCfg,
    rng: SimRng,
    n_leaves: usize,
    hosts_per_leaf: usize,
    /// Burst currently in flight (== `cfg.bursts` once done).
    burst: usize,
    /// Replies of the in-flight burst not yet completed.
    outstanding: usize,
    /// Release time of each burst fired so far.
    burst_starts: Vec<Time>,
}

impl IncastDriver {
    pub fn new(topo: &Topology, cfg: IncastCfg, rng: SimRng) -> IncastDriver {
        assert!(topo.n_leaves >= 2, "incast needs at least 2 racks");
        assert!(cfg.fanout >= 1 && cfg.reply_bytes >= 1 && cfg.bursts >= 1);
        assert!(
            cfg.fanout <= (topo.n_leaves - 1) * topo.hosts_per_leaf,
            "fanout {} exceeds cross-rack host count",
            cfg.fanout
        );
        IncastDriver {
            cfg,
            rng,
            n_leaves: topo.n_leaves,
            hosts_per_leaf: topo.hosts_per_leaf,
            burst: 0,
            outstanding: 0,
            burst_starts: Vec::with_capacity(cfg.bursts),
        }
    }

    fn burst_flows(&mut self, burst: usize, now: Time) -> Vec<FlowSpec> {
        let n_hosts = self.n_leaves * self.hosts_per_leaf;
        let agg = self.rng.below(n_hosts);
        let agg_leaf = agg / self.hosts_per_leaf;
        (0..self.cfg.fanout)
            .map(|i| {
                // Workers may repeat: a host can serve several shards
                // of the same query.
                let (n_leaves, per_leaf) = (self.n_leaves, self.hosts_per_leaf);
                let worker = host_under_other_leaf(&mut self.rng, agg_leaf, n_leaves, per_leaf);
                FlowSpec {
                    id: self.cfg.flow_id(burst, i),
                    src: HostId(worker as u32),
                    dst: HostId(agg as u32),
                    size: self.cfg.reply_bytes,
                    start: now,
                }
            })
            .collect()
    }

    /// Release times of the bursts fired so far.
    pub fn burst_starts(&self) -> &[Time] {
        &self.burst_starts
    }
}

impl FlowDriver for IncastDriver {
    fn initial(&mut self, now: Time) -> Vec<FlowSpec> {
        self.burst = 0;
        self.outstanding = self.cfg.fanout;
        self.burst_starts.clear();
        self.burst_starts.push(now);
        self.burst_flows(0, now)
    }

    fn on_flow_completed(&mut self, id: FlowId, now: Time, out: &mut Vec<FlowSpec>) {
        if id.0 >= (self.cfg.fanout * self.cfg.bursts) as u64 || self.burst >= self.cfg.bursts {
            return; // not ours
        }
        let (burst, _i) = self.cfg.decode(id);
        debug_assert_eq!(burst, self.burst, "completion from a burst not in flight");
        self.outstanding -= 1;
        if self.outstanding > 0 {
            return;
        }
        // The straggler landed: the burst has drained.
        if hermes_telemetry::enabled() {
            hermes_telemetry::emit_with(now, || hermes_telemetry::Record::IncastBurst {
                burst: self.burst as u32,
                fanout: self.cfg.fanout as u32,
                reply_bytes: self.cfg.reply_bytes,
            });
        }
        self.burst += 1;
        if self.burst < self.cfg.bursts {
            self.outstanding = self.cfg.fanout;
            self.burst_starts.push(now);
            let next = self.burst_flows(self.burst, now);
            out.extend(next);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::Topology;

    fn driver() -> IncastDriver {
        IncastDriver::new(
            &Topology::sim_baseline(),
            IncastCfg {
                fanout: 6,
                reply_bytes: 32_000,
                bursts: 3,
            },
            SimRng::new(9),
        )
    }

    #[test]
    fn driver_bursts_are_synchronized_and_cross_rack() {
        let mut d = driver();
        let burst0 = d.initial(Time::ZERO);
        assert_eq!(burst0.len(), 6);
        let agg = burst0[0].dst;
        for (i, f) in burst0.iter().enumerate() {
            assert_eq!(f.id, FlowId(i as u64));
            assert_eq!(f.dst, agg, "all replies converge on one aggregator");
            assert_ne!(f.src.0 / 16, agg.0 / 16, "worker in aggregator's rack");
            assert_eq!(f.size, 32_000);
            assert_eq!(f.start, Time::ZERO, "replies must be synchronized");
        }
    }

    #[test]
    fn driver_releases_next_burst_on_straggler() {
        let mut d = driver();
        let burst0 = d.initial(Time::ZERO);
        let mut out = Vec::new();
        for f in burst0.iter().take(5) {
            d.on_flow_completed(f.id, Time::from_us(50), &mut out);
            assert!(out.is_empty(), "released before the straggler landed");
        }
        d.on_flow_completed(burst0[5].id, Time::from_us(90), &mut out);
        assert_eq!(out.len(), 6);
        for (i, f) in out.iter().enumerate() {
            assert_eq!(f.id, FlowId((6 + i) as u64));
            assert_eq!(f.start, Time::from_us(90));
        }
        assert_eq!(d.burst_starts(), &[Time::ZERO, Time::from_us(90)]);
    }

    #[test]
    fn driver_stops_after_last_burst() {
        let mut d = driver();
        let mut flows = d.initial(Time::ZERO);
        let mut t = Time::ZERO;
        for _ in 0..3 {
            t += Time::from_us(100);
            let mut out = Vec::new();
            for f in &flows {
                d.on_flow_completed(f.id, t, &mut out);
            }
            flows = out;
        }
        assert!(flows.is_empty(), "no burst after the configured count");
        assert_eq!(d.burst_starts().len(), 3);
    }
}
