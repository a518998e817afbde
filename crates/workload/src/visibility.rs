//! Network-visibility measurement (Table 2).
//!
//! The paper quantifies visibility as "the average number of concurrent
//! flows observed on parallel paths" between an entity pair: a source
//! ToR can see every flow its rack sends toward a destination rack
//! (≈ several flows per parallel path), while an end-host pair sees only
//! its own flows (≈ 0.01 per path). [`visibility`] measures both from a
//! finished run's flow records.

use hermes_net::Topology;
use hermes_sim::Time;

use crate::FlowRecord;

/// Table 2's time-averaged concurrent flows per parallel path over
/// `[0, end]`, `(switch_pair, host_pair)`: seen by a ToR-to-ToR pair
/// (averaged over ordered leaf pairs) and by a host-to-host pair
/// (averaged over ordered host pairs across racks).
///
/// `linger` models the observation window of a real monitor: a switch
/// (or host) "observes" a flow from its start until `linger` after its
/// last byte — the behaviour of flow-table entries with an aging
/// timeout, which is what CONGA-style leaf switches actually expose.
/// `linger = 0` gives instantaneous concurrency. An unfinished flow
/// counts until `end`.
///
/// Every flow adds one to its leaf pair and one to its host pair, so both
/// rows integrate the same live-flow count and differ only in the number
/// of pairs they average over: their ratio is `hosts_per_leaf²`.
pub fn visibility(records: &[FlowRecord], topo: &Topology, linger: Time, end: Time) -> (f64, f64) {
    // Each instant at which the live count may change, with its change:
    // a start, a finish (a segment boundary even while the flow
    // lingers), and an expiry unless it falls after `end`.
    let mut steps: Vec<(Time, i64)> = Vec::with_capacity(3 * records.len() + 1);
    for r in records {
        steps.push((r.start, 1));
        if let Some(finish) = r.finish {
            steps.push((finish, 0));
            let expiry = finish + linger;
            if expiry <= end {
                steps.push((expiry, -1));
            }
        }
    }
    steps.sort_unstable_by_key(|&(at, _)| at);
    steps.push((end, 0));
    let n_hosts = topo.n_hosts();
    let leaf_pairs = (topo.n_leaves * (topo.n_leaves - 1)) as f64;
    let host_pairs = (n_hosts * (n_hosts - topo.hosts_per_leaf)) as f64;
    let (mut leaf_sum, mut host_sum, mut total) = (0.0, 0.0, 0.0);
    let (mut last, mut live) = (Time::ZERO, 0i64);
    for (at, change) in steps {
        let dt = at.saturating_sub(last).as_secs_f64();
        if dt > 0.0 {
            leaf_sum += dt * live as f64 / leaf_pairs;
            host_sum += dt * live as f64 / host_pairs;
            total += dt;
        }
        last = at;
        live += change;
    }
    if total == 0.0 {
        return (0.0, 0.0);
    }
    let paths = topo.n_spines.max(1) as f64;
    (leaf_sum / total / paths, host_sum / total / paths)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use hermes_net::{FlowId, HostId, LeafId, LinkCfg};
    use proptest::prelude::*;

    use super::*;

    /// The incremental tracker `visibility` replaced, kept as the oracle:
    /// the engine fed it every start and finish as they happened, and
    /// it kept per-pair counts and time-weighted accumulators.
    struct VisibilityTracker {
        n_leaves: usize,
        n_paths: usize,
        /// Active flow count per ordered leaf pair (dense, row-major).
        leaf_pair: Vec<u32>,
        /// Active flow count per ordered host pair (sparse).
        host_pair: BTreeMap<(HostId, HostId), u32>,
        /// Flow → its pair keys, for removal.
        flows: BTreeMap<FlowId, (LeafId, LeafId, HostId, HostId)>,
        /// Flows whose removal is deferred by the observation window,
        /// ordered by removal time.
        lingering: std::collections::BinaryHeap<std::cmp::Reverse<(Time, FlowId)>>,
        linger: Time,
        last: Time,
        acc_leaf_sum: f64,
        acc_host_sum: f64,
        acc_time: f64,
        n_host_pairs_total: usize,
    }

    impl VisibilityTracker {
        fn with_linger(
            n_leaves: usize,
            hosts_per_leaf: usize,
            n_paths: usize,
            linger: Time,
        ) -> VisibilityTracker {
            let n_hosts = n_leaves * hosts_per_leaf;
            VisibilityTracker {
                n_leaves,
                n_paths,
                leaf_pair: vec![0; n_leaves * n_leaves],
                host_pair: BTreeMap::new(),
                flows: BTreeMap::new(),
                lingering: std::collections::BinaryHeap::new(),
                linger,
                last: Time::ZERO,
                acc_leaf_sum: 0.0,
                acc_host_sum: 0.0,
                acc_time: 0.0,
                n_host_pairs_total: n_hosts * (n_hosts - hosts_per_leaf),
            }
        }

        fn drop_flow(&mut self, id: FlowId) {
            if let Some((sl, dl, s, d)) = self.flows.remove(&id) {
                let cell = &mut self.leaf_pair[sl.0 as usize * self.n_leaves + dl.0 as usize];
                *cell = cell.saturating_sub(1);
                if let Some(c) = self.host_pair.get_mut(&(s, d)) {
                    *c -= 1;
                    if *c == 0 {
                        self.host_pair.remove(&(s, d));
                    }
                }
            }
        }

        fn integrate(&mut self, now: Time) {
            while let Some(&std::cmp::Reverse((at, id))) = self.lingering.peek() {
                if at > now {
                    break;
                }
                self.lingering.pop();
                self.integrate_to(at);
                self.drop_flow(id);
            }
            self.integrate_to(now);
        }

        fn integrate_to(&mut self, now: Time) {
            let dt = now.saturating_sub(self.last).as_secs_f64();
            if dt > 0.0 {
                let leaf_pairs = (self.n_leaves * (self.n_leaves - 1)) as f64;
                let leaf_active: f64 = self.leaf_pair.iter().map(|&c| c as f64).sum();
                self.acc_leaf_sum += dt * leaf_active / leaf_pairs;
                let host_active: f64 = self.host_pair.values().map(|&c| c as f64).sum();
                self.acc_host_sum += dt * host_active / self.n_host_pairs_total as f64;
                self.acc_time += dt;
            }
            self.last = now;
        }

        fn flow_started(
            &mut self,
            id: FlowId,
            src: HostId,
            dst: HostId,
            src_leaf: LeafId,
            dst_leaf: LeafId,
            now: Time,
        ) {
            self.integrate(now);
            self.leaf_pair[src_leaf.0 as usize * self.n_leaves + dst_leaf.0 as usize] += 1;
            *self.host_pair.entry((src, dst)).or_insert(0) += 1;
            self.flows.insert(id, (src_leaf, dst_leaf, src, dst));
        }

        fn flow_finished(&mut self, id: FlowId, now: Time) {
            self.integrate(now);
            if !self.flows.contains_key(&id) {
                return;
            }
            if self.linger == Time::ZERO {
                self.drop_flow(id);
            } else {
                self.lingering
                    .push(std::cmp::Reverse((now + self.linger, id)));
            }
        }

        fn switch_pair_visibility(&mut self, now: Time) -> f64 {
            self.integrate(now);
            if self.acc_time == 0.0 {
                return 0.0;
            }
            self.acc_leaf_sum / self.acc_time / self.n_paths as f64
        }

        fn host_pair_visibility(&mut self, now: Time) -> f64 {
            self.integrate(now);
            if self.acc_time == 0.0 {
                return 0.0;
            }
            self.acc_host_sum / self.acc_time / self.n_paths as f64
        }
    }

    /// The oracle fed as the engine fed it: every start and finish in
    /// time order (a flow's start before its own finish), then both
    /// rows read at `end`.
    fn tracked(records: &[FlowRecord], topo: &Topology, linger: Time, end: Time) -> (f64, f64) {
        let paths = topo.n_spines.max(1);
        let mut v =
            VisibilityTracker::with_linger(topo.n_leaves, topo.hosts_per_leaf, paths, linger);
        let mut calls: Vec<(Time, bool, &FlowRecord)> = Vec::new();
        for r in records {
            calls.push((r.start, false, r));
            if let Some(finish) = r.finish {
                calls.push((finish, true, r));
            }
        }
        calls.sort_by_key(|&(at, finished, r)| (at, finished, r.id));
        for (at, finished, r) in calls {
            if finished {
                v.flow_finished(r.id, at);
            } else {
                let (sl, dl) = (topo.host_leaf(r.src), topo.host_leaf(r.dst));
                v.flow_started(r.id, r.src, r.dst, sl, dl, at);
            }
        }
        (v.switch_pair_visibility(end), v.host_pair_visibility(end))
    }

    fn topo(n_leaves: usize, n_spines: usize, hosts_per_leaf: usize) -> Topology {
        let link = LinkCfg::new(1_000_000_000, Time::from_us(1));
        Topology::leaf_spine(n_leaves, n_spines, hosts_per_leaf, link, link)
    }

    fn rec(id: u64, src: u32, dst: u32, start_us: u64, finish_us: Option<u64>) -> FlowRecord {
        FlowRecord {
            id: FlowId(id),
            src: HostId(src),
            dst: HostId(dst),
            size: 1_000,
            start: Time::from_us(start_us),
            finish: finish_us.map(Time::from_us),
        }
    }

    fn close(got: f64, want: f64) -> bool {
        (got - want).abs() < 1e-9
    }

    #[test]
    fn steady_state_counts_per_path() {
        // 2 leaves, 2 hosts each, 4 paths. Keep 8 flows alive on the
        // (0→1) pair for 1 ms.
        let records: Vec<FlowRecord> = (0..8).map(|i| rec(i, 0, 2, 0, None)).collect();
        let (sw, hp) = visibility(&records, &topo(2, 4, 2), Time::ZERO, Time::from_ms(1));
        // 8 flows on 1 of 2 ordered leaf pairs → avg 4 per pair → 1 per path.
        assert!(close(sw, 1.0), "switch visibility {sw}");
        // Host pairs: 8 flows all on one of the 2×2+2×2=8 ordered cross
        // pairs → 1 per pair avg → 0.25 per path.
        assert!(close(hp, 0.25), "host visibility {hp}");
    }

    #[test]
    fn finished_flows_stop_counting() {
        let t = topo(2, 4, 2);
        let end = Time::from_ms(2);
        let (sw_half, _) = visibility(&[rec(1, 0, 2, 0, Some(1_000))], &t, Time::ZERO, end);
        let (sw_full, _) = visibility(&[rec(1, 0, 2, 0, None)], &t, Time::ZERO, end);
        assert!(
            (sw_half - sw_full / 2.0).abs() < 1e-12,
            "alive 1 of 2 ms must average half of alive 2 of 2 ms: {sw_half} vs {sw_full}"
        );
        assert!(sw_half > 0.0);
    }

    #[test]
    fn switch_sees_hosts_per_leaf_squared_times_more_than_host() {
        // Many flows from distinct host pairs: switch-pair visibility
        // aggregates them, host-pair visibility stays low — the Table 2
        // asymmetry, exactly hosts_per_leaf² = 16 here.
        let records: Vec<FlowRecord> = (0..4)
            .map(|i| rec(i, i as u32, 4 + i as u32, 0, None))
            .collect();
        let (sw, hp) = visibility(&records, &topo(2, 4, 4), Time::ZERO, Time::from_ms(1));
        assert!(close(sw / hp, 16.0), "switch {sw} vs host {hp}");
    }

    #[test]
    fn linger_extends_observation() {
        // Flow alive [0, 1ms], linger 1ms → observed for 2 of 4 ms.
        let records = [rec(1, 0, 2, 0, Some(1_000))];
        let (sw, _) = visibility(&records, &topo(2, 4, 2), Time::from_ms(1), Time::from_ms(4));
        // 1 flow × 2ms / 4ms / 2 pairs / 4 paths = 0.0625.
        assert!(close(sw, 0.0625), "windowed visibility {sw}");
    }

    #[test]
    fn an_empty_run_sees_nothing() {
        let t = topo(2, 4, 2);
        assert_eq!(
            visibility(&[], &t, Time::ZERO, Time::from_ms(1)),
            (0.0, 0.0)
        );
        let at_zero = [rec(1, 0, 2, 0, None)];
        assert_eq!(visibility(&at_zero, &t, Time::ZERO, Time::ZERO), (0.0, 0.0));
    }

    /// One record as `(src, dst, start, fct)` draws, mapped onto a
    /// topology in the property: starts and FCTs come from a coarse
    /// 250 µs grid half the time, so instants are often shared, and a
    /// fifth of the flows never finish.
    fn record() -> impl Strategy<Value = (u32, u32, u64, Option<u64>)> {
        let start = prop_oneof![1 => (0u64..16).prop_map(|s| s * 250), 1 => 0u64..4_000];
        let fct = prop_oneof![
            2 => (0u64..8).prop_map(|f| Some(f * 250)),
            2 => (0u64..2_000).prop_map(Some),
            1 => Just(None),
        ];
        (0u32..1_000, 0u32..1_000, start, fct)
    }

    /// A linger in µs: 0, inside the 4 ms run, or past its end.
    fn linger_us() -> impl Strategy<Value = u64> {
        prop_oneof![
            2 => Just(0u64),
            1 => Just(250u64),
            2 => 1u64..3_000,
            1 => Just(50_000u64),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// One sweep over the records gives both rows of the tracker the
        /// engine used to feed, bit for bit: linger 0 and > 0, flows
        /// that never finish, shared instants, expiries past `end`, and
        /// intra-rack flows, on fabrics whose pair counts are not powers
        /// of two (so dividing once at the end would round differently).
        #[test]
        fn sweep_matches_the_tracker_bit_for_bit(
            shape in (2usize..6, 1usize..5, 1usize..5),
            linger_us in linger_us(),
            draws in proptest::collection::vec(record(), 0..60)
        ) {
            let (leaves, spines, per_leaf) = shape;
            let t = topo(leaves, spines, per_leaf);
            let n_hosts = t.n_hosts() as u32;
            let end = Time::from_ms(4);
            let records: Vec<FlowRecord> = draws
                .iter()
                .zip(0..)
                .map(|(&(src, dst, start, fct), id)| {
                    let src = src % n_hosts;
                    let dst = match dst % n_hosts {
                        d if d == src => (d + 1) % n_hosts,
                        d => d,
                    };
                    rec(id, src, dst, start, fct.map(|f| (start + f).min(4_000)))
                })
                .collect();
            let linger = Time::from_us(linger_us);
            let (sw, hp) = visibility(&records, &t, linger, end);
            let (want_sw, want_hp) = tracked(&records, &t, linger, end);
            prop_assert_eq!((sw.to_bits(), hp.to_bits()), (want_sw.to_bits(), want_hp.to_bits()));
        }
    }
}
