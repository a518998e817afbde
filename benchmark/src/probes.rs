//! Layer probes: each times a batch of ≥ 10⁶ calls into one layer's
//! public function in isolation and reports ns per call. Priced against
//! the run's exact counts they give the `*_est_share` attribution; the
//! ladder siblings give the other, and the two must roughly agree.
//!
//! Shapes follow `crates/bench/benches/microbench.rs` so the numbers
//! are comparable with the criterion history.

use std::hint::black_box;
use std::time::Instant;

use hermes_net::audit::digest_event;
use hermes_net::{
    Event, FlowId, FnvDigest, HostId, LinkCfg, NodeId, Packet, PacketPool, PathId, Port, Topology,
};
use hermes_sim::{EventQueue, SimRng, Time};
use hermes_transport::{Receiver, SegmentIn, Sender, TransportCfg};
use hermes_workload::{FlowGen, FlowSizeDist};

use crate::json::Json;
use crate::stats::median;

const CALLS: u64 = 1_000_000;
const BATCHES: usize = 5;

/// Median over `BATCHES` batches of ns per call of `step`.
fn ns_per_call(calls: u64, mut step: impl FnMut(u64)) -> f64 {
    let batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for i in 0..calls {
                step(i);
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&batches)
}

/// Pop-one/push-one on the scheduler at a steady pending depth.
fn queue_churn(pending: u64) -> f64 {
    let mut rng = SimRng::new(2);
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..pending {
        q.schedule(Time::from_ns(rng.u64() % 1_000_000), i);
    }
    ns_per_call(CALLS, |_| {
        let (t, v) = q.pop().expect("queue is kept at a fixed depth");
        q.schedule(t + Time::from_ns(rng.u64() % 1_000_000), v);
        black_box(v);
    })
}

fn data_packet(seq: u64) -> Packet {
    Packet::data(FlowId(1), HostId(0), HostId(20), seq, 1460, false)
}

/// One packet through a 10 G port with the `sim_baseline` marking
/// threshold and buffer: enqueue, begin serializing, complete. The box
/// is carried over, so allocation is the pool probe's alone.
fn port_cycle() -> f64 {
    let mut port = Port::new(
        LinkCfg::new(10_000_000_000, Time::from_us(1)),
        65_000,
        300_000,
    );
    let mut spare = Some(Box::new(data_packet(0)));
    ns_per_call(CALLS, |i| {
        let mut pkt = spare.take().expect("the box comes back every cycle");
        *pkt = data_packet(i * 1460);
        black_box(port.enqueue(pkt).is_queued());
        black_box(port.begin_tx());
        spare = Some(port.complete_tx());
    })
}

/// Box a packet from the pool and hand it straight back.
fn pool_cycle() -> f64 {
    let mut pool = PacketPool::new();
    ns_per_call(CALLS, |i| {
        let pkt = pool.boxed(data_packet(i));
        pool.recycle(black_box(pkt));
    })
}

/// Fold one dispatched event into the audit digest, over the kinds a
/// run dispatches (port boundaries, arrivals, host timers).
fn digest_per_event() -> f64 {
    let mut pkt = Box::new(data_packet(0));
    pkt.id = 77;
    let events = [
        Event::TxDone {
            node: NodeId::Leaf(hermes_net::LeafId(3)),
            port: 5,
        },
        Event::Arrive {
            node: NodeId::Host(HostId(20)),
            pkt,
        },
        Event::TxDone {
            node: NodeId::Host(HostId(9)),
            port: 0,
        },
        Event::HostTimer {
            host: HostId(9),
            token: 0xABCD,
        },
    ];
    let mut d = FnvDigest::new();
    let ns = ns_per_call(CALLS, |i| {
        digest_event(&mut d, Time::from_ns(i), &events[(i % 4) as usize]);
    });
    black_box(d.value());
    ns
}

/// One cumulative-ACK step of the DCTCP sender, every 4th ACK echoing
/// CE, on a flow too long to finish.
fn sender_ack() -> f64 {
    let mut s = Sender::new(TransportCfg::dctcp(), u64::MAX / 4);
    let mut out = Vec::new();
    s.start(Time::ZERO, &mut out);
    let mut ack = 0u64;
    let mut now = Time::ZERO;
    ns_per_call(CALLS, |i| {
        ack += 1460;
        now += Time::from_ns(500);
        out.clear();
        s.on_ack(ack, i % 4 == 0, Some(Time::from_us(60)), now, &mut out);
        black_box(out.len());
    })
}

/// One in-order data segment at the receiver.
fn receiver_data() -> f64 {
    let mut r = Receiver::new(u64::MAX / 4, None, 3);
    let mut out = Vec::new();
    let mut seq = 0u64;
    let mut now = Time::ZERO;
    ns_per_call(CALLS, |i| {
        now += Time::from_ns(500);
        out.clear();
        let seg = SegmentIn {
            seq,
            len: 1460,
            ecn: i % 4 == 0,
            sent_at: now,
            path: PathId(2),
            retx: false,
        };
        r.on_data(seg, now, &mut out);
        seq += 1460;
        black_box(out.len());
    })
}

/// `FlowGen::schedule(2000)` per flow: what an open-loop workload's
/// generation costs set-up.
fn flowgen_per_flow() -> f64 {
    const FLOWS: usize = 2_000;
    let topo = Topology::sim_baseline();
    let per_schedule = ns_per_call(CALLS / FLOWS as u64, |i| {
        let mut gen = FlowGen::new(&topo, FlowSizeDist::web_search(), 0.8, None, SimRng::new(i));
        black_box(gen.schedule(FLOWS));
    });
    per_schedule / FLOWS as f64
}

/// Run every probe; the names are the per-layer metric names.
pub fn run_all() -> Json {
    Json::obj([
        ("sim.queue_churn_ns_1k", Json::Num(queue_churn(1_000))),
        ("sim.queue_churn_ns_100k", Json::Num(queue_churn(100_000))),
        ("net.port_cycle_ns", Json::Num(port_cycle())),
        ("net.pool_cycle_ns", Json::Num(pool_cycle())),
        ("net.digest_ns_per_event", Json::Num(digest_per_event())),
        ("transport.sender_ack_ns", Json::Num(sender_ack())),
        ("transport.receiver_data_ns", Json::Num(receiver_data())),
        (
            "workload.flowgen_ns_per_flow",
            Json::Num(flowgen_per_flow()),
        ),
    ])
}
