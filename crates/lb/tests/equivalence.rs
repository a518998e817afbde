//! ECMP and CLOVE-ECN keep no per-flow state: a flow's path and the gap
//! since its previous packet arrive in `FlowCtx`. These properties check
//! them against reference memos that keep that state in per-flow maps
//! inside the balancer, the way both schemes once did. Random call
//! sequences go through both sides, with the runtime's bookkeeping
//! emulated for the stateless side: `current_path` is the path the last
//! call returned, and the flow's last transmission is that call's `now`.
//! Both sides must return the same path and draw the same randomness.

use std::collections::BTreeMap;

use hermes_lb::{CloveEcn, Ecmp};
use hermes_net::{EdgeLb, FlowCtx, FlowId, HostId, LeafId, PathId};
use hermes_sim::{SimRng, Time};
use proptest::prelude::*;

/// Reference ECMP: the flow → path memo, dropped when the flow finishes.
#[derive(Default)]
struct MemoEcmp {
    assigned: BTreeMap<FlowId, PathId>,
}

impl MemoEcmp {
    fn select_path(&mut self, flow: FlowId, candidates: &[PathId], rng: &mut SimRng) -> PathId {
        if let Some(&p) = self.assigned.get(&flow) {
            if candidates.contains(&p) {
                return p;
            }
        }
        let p = candidates[rng.below(candidates.len())];
        self.assigned.insert(flow, p);
        p
    }

    fn finished(&mut self, flow: FlowId) {
        self.assigned.remove(&flow);
    }
}

/// Reference CLOVE-ECN: a flowlet memo of (path, last activity) per
/// flow, dropped when the flow finishes, in front of CLOVE's weights.
/// `weights` is only ever asked for a new flowlet's path.
struct MemoClove {
    timeout: Time,
    flowlets: BTreeMap<FlowId, (PathId, Time)>,
    weights: CloveEcn,
}

impl MemoClove {
    fn new(timeout: Time) -> MemoClove {
        MemoClove {
            timeout,
            flowlets: BTreeMap::new(),
            weights: CloveEcn::new(timeout),
        }
    }

    fn select_path(
        &mut self,
        ctx: &FlowCtx,
        candidates: &[PathId],
        now: Time,
        rng: &mut SimRng,
    ) -> PathId {
        if let Some((path, last)) = self.flowlets.get_mut(&ctx.flow) {
            if now.saturating_sub(*last) <= self.timeout {
                *last = now;
                if candidates.contains(path) {
                    return *path;
                }
            }
        }
        let fresh = FlowCtx {
            since_tx: Time::MAX,
            ..*ctx
        };
        let p = self.weights.select_path(&fresh, candidates, now, rng);
        self.flowlets.insert(ctx.flow, (p, now));
        p
    }

    fn finished(&mut self, flow: FlowId) {
        self.flowlets.remove(&flow);
    }
}

/// What the runtime keeps for one live flow: the path its last packet
/// took and when that packet left.
#[derive(Clone, Copy)]
struct FlowRt {
    current_path: PathId,
    last_tx: Option<Time>,
}

const NEW_FLOW: FlowRt = FlowRt {
    current_path: PathId::UNSET,
    last_tx: None,
};

/// The runtime's snapshot of `flow` at `now`.
fn ctx(flow: u64, f: FlowRt, now: Time) -> FlowCtx {
    FlowCtx {
        flow: FlowId(flow),
        src: HostId(0),
        dst: HostId(20),
        src_leaf: LeafId(0),
        // Two destination leaves, so CLOVE keeps two weight vectors.
        dst_leaf: LeafId(1 + (flow % 2) as u16),
        bytes_sent: 0,
        rate_bps: 0.0,
        current_path: f.current_path,
        is_new: f.last_tx.is_none(),
        timed_out: false,
        since_change: Time::MAX,
        since_tx: f.last_tx.map_or(Time::MAX, |t| now.saturating_sub(t)),
    }
}

/// One step of a call sequence.
#[derive(Clone, Copy, Debug)]
enum Op {
    /// A data packet of `flow`, `gap` after its previous one (or after
    /// the last step, for a flow's first packet).
    Send { flow: u64, gap: Gap, cands: Cands },
    /// `flow` finished: its id may start again as a new flow.
    Finish { flow: u64 },
    /// An ECN-marked ACK of `flow` echoing path `path % n` (CLOVE's
    /// weights move, so later draws differ from uniform ones).
    Ecn { flow: u64, path: u16 },
}

#[derive(Clone, Copy, Debug)]
enum Gap {
    BelowTimeout,
    AtTimeout,
    AboveTimeout,
    /// This many microseconds, whatever the timeout.
    Us(u64),
}

#[derive(Clone, Copy, Debug)]
enum Cands {
    All,
    /// Every path but the flow's current one (its link was cut).
    DropCurrent,
    /// The paths whose bit is set in the mask (all of them if none is).
    Mask(u16),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let gap = prop_oneof![
        2 => Just(Gap::BelowTimeout),
        2 => Just(Gap::AtTimeout),
        2 => Just(Gap::AboveTimeout),
        3 => (0u64..400).prop_map(Gap::Us),
    ];
    let cands = prop_oneof![
        6 => Just(Cands::All),
        2 => Just(Cands::DropCurrent),
        1 => (0u16..256).prop_map(Cands::Mask),
    ];
    let op = prop_oneof![
        12 => (0u64..6, gap, cands).prop_map(|(flow, gap, cands)| Op::Send { flow, gap, cands }),
        1 => (0u64..6).prop_map(|flow| Op::Finish { flow }),
        2 => (0u64..6, 0u16..8).prop_map(|(flow, path)| Op::Ecn { flow, path }),
    ];
    proptest::collection::vec(op, 1..300)
}

/// A reference scheme and the stateless one it must match.
trait Pair {
    fn reference(&mut self, ctx: &FlowCtx, cands: &[PathId], now: Time, rng: &mut SimRng)
        -> PathId;
    fn stateless(&mut self, ctx: &FlowCtx, cands: &[PathId], now: Time, rng: &mut SimRng)
        -> PathId;
    /// The flow finished: the reference forgets it.
    fn finished(&mut self, flow: FlowId);
    /// An ECN-marked ACK echoing `path` reaches both sides.
    fn ecn(&mut self, ctx: &FlowCtx, path: PathId, now: Time);
}

struct EcmpPair {
    memo: MemoEcmp,
    lb: Ecmp,
}

impl Pair for EcmpPair {
    fn reference(&mut self, ctx: &FlowCtx, cs: &[PathId], _: Time, rng: &mut SimRng) -> PathId {
        self.memo.select_path(ctx.flow, cs, rng)
    }
    fn stateless(&mut self, ctx: &FlowCtx, cs: &[PathId], now: Time, rng: &mut SimRng) -> PathId {
        self.lb.select_path(ctx, cs, now, rng)
    }
    fn finished(&mut self, flow: FlowId) {
        self.memo.finished(flow);
    }
    fn ecn(&mut self, _: &FlowCtx, _: PathId, _: Time) {}
}

struct ClovePair {
    memo: MemoClove,
    lb: CloveEcn,
}

impl Pair for ClovePair {
    fn reference(&mut self, ctx: &FlowCtx, cs: &[PathId], now: Time, rng: &mut SimRng) -> PathId {
        self.memo.select_path(ctx, cs, now, rng)
    }
    fn stateless(&mut self, ctx: &FlowCtx, cs: &[PathId], now: Time, rng: &mut SimRng) -> PathId {
        self.lb.select_path(ctx, cs, now, rng)
    }
    fn finished(&mut self, flow: FlowId) {
        self.memo.finished(flow);
    }
    fn ecn(&mut self, ctx: &FlowCtx, path: PathId, now: Time) {
        self.memo.weights.on_ack(ctx, path, None, true, 1460, now);
        self.lb.on_ack(ctx, path, None, true, 1460, now);
    }
}

/// Drive `ops` through both sides of `pair` on `n_paths` paths,
/// asserting equal picks and equal draws after every step.
fn drive(pair: &mut impl Pair, ops: &[Op], n_paths: u16, timeout: Time, seed: u64) {
    let all: Vec<PathId> = (0..n_paths).map(PathId).collect();
    let (mut rng_ref, mut rng_new) = (SimRng::new(seed), SimRng::new(seed));
    let mut flows: BTreeMap<u64, FlowRt> = BTreeMap::new();
    let mut now = Time::ZERO;
    for &op in ops {
        match op {
            Op::Send { flow, gap, cands } => {
                let f = *flows.entry(flow).or_insert(NEW_FLOW);
                let gap = match gap {
                    Gap::BelowTimeout => timeout - Time::from_ns(1),
                    Gap::AtTimeout => timeout,
                    Gap::AboveTimeout => timeout + Time::from_ns(1),
                    Gap::Us(us) => Time::from_us(us),
                };
                // Time never runs back: an interleaved flow may have
                // moved the clock past this flow's target.
                now = now.max(f.last_tx.unwrap_or(now) + gap);
                let keep = |p: &PathId| match cands {
                    Cands::All => true,
                    Cands::DropCurrent => *p != f.current_path,
                    Cands::Mask(m) => m & (1 << p.0) != 0,
                };
                let mut cs: Vec<PathId> = all.iter().copied().filter(keep).collect();
                if cs.is_empty() {
                    cs.clone_from(&all);
                }
                let c = ctx(flow, f, now);
                let want = pair.reference(&c, &cs, now, &mut rng_ref);
                let got = pair.stateless(&c, &cs, now, &mut rng_new);
                assert_eq!(
                    got, want,
                    "flow {flow} at {now:?}, since_tx {:?}",
                    c.since_tx
                );
                assert!(cs.contains(&got));
                flows.insert(
                    flow,
                    FlowRt {
                        current_path: got,
                        last_tx: Some(now),
                    },
                );
            }
            Op::Finish { flow } => {
                if flows.remove(&flow).is_some() {
                    pair.finished(FlowId(flow));
                }
            }
            Op::Ecn { flow, path } => {
                if let Some(&f) = flows.get(&flow) {
                    pair.ecn(&ctx(flow, f, now), PathId(path % n_paths), now);
                }
            }
        }
        assert_eq!(
            rng_new.u64(),
            rng_ref.u64(),
            "the two sides drew differently"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// ECMP on `FlowCtx::current_path` picks what the flow → path memo
    /// picked, with the same draws.
    #[test]
    fn ecmp_matches_the_per_flow_memo(
        ops in ops(),
        n_paths in 1u16..9,
        seed in 0u64..1000,
    ) {
        let mut pair = EcmpPair {
            memo: MemoEcmp::default(),
            lb: Ecmp::new(),
        };
        drive(&mut pair, &ops, n_paths, Time::from_us(150), seed);
    }

    /// CLOVE-ECN on `FlowCtx::since_tx` and `current_path` picks what
    /// the per-flow flowlet memo picked, with the same draws, whatever
    /// the timeout.
    #[test]
    fn clove_matches_the_flowlet_memo(
        ops in ops(),
        n_paths in 1u16..9,
        seed in 0u64..1000,
        timeout_us in 1u64..400,
    ) {
        let timeout = Time::from_us(timeout_us);
        let mut pair = ClovePair {
            memo: MemoClove::new(timeout),
            lb: CloveEcn::new(timeout),
        };
        drive(&mut pair, &ops, n_paths, timeout, seed);
    }
}
