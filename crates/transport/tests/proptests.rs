//! Property-based tests of the transport state machines: sequence-space
//! invariants under arbitrary ACK/loss interleavings, and sender ↔
//! receiver convergence over a lossy in-order channel.

use hermes_net::PathId;
use hermes_sim::Time;
use hermes_transport::{
    Receiver, RecvAction, SegmentIn, SendAction, Sender, TransportCfg, DUPACK_THRESH,
};
use proptest::prelude::*;

/// Drive a sender and receiver over a channel that drops data segments
/// per `drop_bits` and delivers everything else in order, with RTOs
/// fired whenever the channel goes idle. Returns (delivered, acked).
fn converge(size: u64, drop_bits: u64) -> (bool, bool) {
    let cfg = TransportCfg::dctcp();
    let mut snd = Sender::new(cfg, size);
    let mut rcv = Receiver::new(size, None, DUPACK_THRESH);
    let mut now = Time::ZERO;
    let mut actions = Vec::new();
    snd.start(now, &mut actions);
    let mut drop_i = 0u32;
    let mut rto_deadline: Option<Time> = None;
    // Process rounds until both sides are done or we give up.
    for _round in 0..10_000 {
        if snd.finished() && rcv.completed() {
            break;
        }
        let mut tx: Vec<(u64, u32, bool)> = Vec::new();
        for a in actions.drain(..) {
            match a {
                SendAction::Tx { seq, len, retx } => tx.push((seq, len, retx)),
                SendAction::ArmRto { deadline } => rto_deadline = Some(deadline),
                SendAction::DisarmRto => rto_deadline = None,
                SendAction::FullyAcked => {}
            }
        }
        let mut recv_actions = Vec::new();
        let mut progressed = false;
        for (seq, len, retx) in tx {
            now += Time::from_us(10);
            let dropped = (drop_bits >> (drop_i % 64)) & 1 == 1 && !retx;
            drop_i += 1;
            if dropped {
                continue;
            }
            progressed = true;
            rcv.on_data(
                SegmentIn {
                    seq,
                    len,
                    ecn: false,
                    sent_at: now,
                    path: PathId(0),
                    retx,
                },
                now,
                &mut recv_actions,
            );
        }
        for ra in recv_actions.drain(..) {
            if let RecvAction::SendAck { ack, ecn_echo, .. } = ra {
                now += Time::from_us(5);
                snd.on_ack(ack, ecn_echo, Some(Time::from_us(50)), now, &mut actions);
            }
        }
        if !progressed && actions.is_empty() && !snd.finished() {
            // Idle: fire the RTO.
            let Some(dl) = rto_deadline.take() else {
                break; // nothing armed and nothing to do: wedged
            };
            now = now.max(dl);
            snd.on_rto(now, &mut actions);
        }
    }
    (rcv.completed(), snd.finished())
}

proptest! {
    /// Whatever data packets drop, sender and receiver converge: all
    /// bytes delivered, all bytes acknowledged.
    #[test]
    fn lossy_channel_converges(
        size in 1u64..200_000,
        drop_bits in any::<u64>(),
    ) {
        let (delivered, acked) = converge(size, drop_bits);
        prop_assert!(delivered, "receiver incomplete (size {size}, drops {drop_bits:b})");
        prop_assert!(acked, "sender unacked (size {size}, drops {drop_bits:b})");
    }

    /// The sender never emits a segment beyond the flow size and never
    /// lets in-flight bytes go negative or beyond the window+1 MSS.
    #[test]
    fn sender_respects_bounds(
        size in 1u64..5_000_000,
        acks in proptest::collection::vec(0u64..5_000_000, 0..60),
    ) {
        let cfg = TransportCfg::dctcp();
        let mut s = Sender::new(cfg, size);
        let mut out = Vec::new();
        let mut now = Time::ZERO;
        s.start(now, &mut out);
        let check = |s: &Sender, out: &[SendAction], size: u64| {
            for a in out {
                if let SendAction::Tx { seq, len, .. } = a {
                    assert!(seq + *len as u64 <= size, "segment beyond flow end");
                    assert!(*len > 0);
                }
            }
            // cwnd may shrink below in-flight after a reduction; the
            // hard bounds are the flow size and a positive window.
            assert!(s.in_flight() <= size);
            assert!(s.cwnd() >= 1460);
        };
        check(&s, &out, size);
        for a in acks {
            now += Time::from_us(20);
            out.clear();
            // Clamp the fuzzed ack into the valid cumulative range.
            let ack = a.min(size);
            s.on_ack(ack, a % 3 == 0, None, now, &mut out);
            check(&s, &out, size);
        }
        // A final RTO must never panic even after arbitrary ACKs.
        out.clear();
        if !s.finished() && s.in_flight() > 0 {
            s.on_rto(now + Time::from_ms(10), &mut out);
            check(&s, &out, size);
        }
    }

    /// The receiver's cumulative ACK is monotone and never exceeds the
    /// highest byte received, for arbitrary segment arrival orders.
    #[test]
    fn receiver_ack_monotone(
        size in 1460u64..300_000,
        order in proptest::collection::vec(0usize..200, 1..200),
    ) {
        let mut r = Receiver::new(size, None, 3);
        let n_segs = size.div_ceil(1460);
        let mut out = Vec::new();
        let mut last_ack = 0u64;
        let mut highest_end = 0u64;
        for idx in order {
            let seg = (idx as u64) % n_segs;
            let seq = seg * 1460;
            let len = (size - seq).min(1460) as u32;
            out.clear();
            r.on_data(
                SegmentIn {
                    seq,
                    len,
                    ecn: false,
                    sent_at: Time::ZERO,
                    path: PathId(0),
                    retx: false,
                },
                Time::from_us(1),
                &mut out,
            );
            highest_end = highest_end.max(seq + len as u64);
            for a in &out {
                if let RecvAction::SendAck { ack, .. } = a {
                    prop_assert!(*ack >= last_ack, "ack regression");
                    prop_assert!(*ack <= highest_end, "ack beyond received data");
                    last_ack = *ack;
                }
            }
        }
    }
}
