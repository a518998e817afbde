//! The receiver: cumulative acknowledgment, out-of-order reassembly,
//! and an optional reordering buffer in the style of JUGGLER [15],
//! used by Presto* to mask spray-induced reordering (§5.1).
//!
//! Like the sender, the receiver is a pure state machine emitting
//! [`RecvAction`]s.

use std::collections::BTreeMap;

use hermes_net::PathId;
use hermes_sim::Time;

/// An instruction from the receiver to the runtime.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecvAction {
    /// Send a (possibly duplicate) cumulative ACK. The `echo_*` fields
    /// reflect the data packet that triggered the ACK and must be copied
    /// into the ACK packet for sender-side RTT/path attribution.
    SendAck {
        ack: u64,
        ecn_echo: bool,
        echo_ts: Time,
        echo_path: PathId,
        echo_retx: bool,
    },
    /// (Re)arm the reorder-buffer flush timer.
    ArmHold { deadline: Time },
    /// Cancel the flush timer.
    DisarmHold,
    /// Every payload byte has arrived — the flow-completion instant.
    Complete,
}

/// A data segment as the receiver sees it, with the per-packet wire
/// metadata ([`Receiver::on_data`] echoes it back through ACKs).
#[derive(Clone, Copy, Debug)]
pub struct SegmentIn {
    /// First payload byte of the segment.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Whether the packet arrived CE-marked.
    pub ecn: bool,
    /// Departure time stamped by the sending host.
    pub sent_at: Time,
    /// Path the segment travelled.
    pub path: PathId,
    /// Whether the segment is a retransmission.
    pub retx: bool,
}

/// One flow's receiver.
pub struct Receiver {
    size: u64,
    rcv_nxt: u64,
    /// Out-of-order ranges `start → end` (non-overlapping, non-adjacent).
    ooo: BTreeMap<u64, u64>,
    /// `Some(hold)`: buffer out-of-order arrivals for `hold` before
    /// signalling loss (Presto*'s reordering mask). `None`: emit
    /// duplicate ACKs immediately (standard TCP).
    reorder_hold: Option<Time>,
    hold_armed: bool,
    /// How many duplicate ACKs a flush emits (the sender's dupack
    /// threshold, so one flush triggers exactly one fast retransmit).
    flush_dupacks: u32,
    completed: bool,
    /// Data packets that arrived out of order (reordering metric).
    stat_ooo: u64,
}

impl Receiver {
    pub fn new(size: u64, reorder_hold: Option<Time>, flush_dupacks: u32) -> Receiver {
        assert!(size > 0);
        Receiver {
            size,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            reorder_hold,
            hold_armed: false,
            flush_dupacks,
            completed: false,
            stat_ooo: 0,
        }
    }

    /// Number of data packets that arrived out of order.
    pub fn ooo_packets(&self) -> u64 {
        self.stat_ooo
    }

    /// Next expected byte.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Whether every byte has arrived.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Bytes currently buffered out of order.
    pub fn buffered_bytes(&self) -> u64 {
        self.ooo.iter().map(|(s, e)| e - s).sum()
    }

    /// A data segment arrived.
    pub fn on_data(&mut self, seg: SegmentIn, now: Time, out: &mut Vec<RecvAction>) {
        let SegmentIn {
            seq,
            len,
            ecn,
            sent_at,
            path,
            retx,
        } = seg;
        let end = seq + u64::from(len);
        let advanced;
        if seq <= self.rcv_nxt {
            // In-order (or overlapping duplicate): advance and drain any
            // newly contiguous buffered ranges.
            self.rcv_nxt = self.rcv_nxt.max(end);
            self.drain_contiguous();
            advanced = true;
        } else {
            self.insert_ooo(seq, end);
            self.stat_ooo += 1;
            advanced = false;
        }

        let became_complete = !self.completed && self.rcv_nxt >= self.size;
        if became_complete {
            self.completed = true;
        }

        if advanced {
            out.push(RecvAction::SendAck {
                ack: self.rcv_nxt,
                ecn_echo: ecn,
                echo_ts: sent_at,
                echo_path: path,
                echo_retx: retx,
            });
            if self.ooo.is_empty() && self.hold_armed {
                self.hold_armed = false;
                out.push(RecvAction::DisarmHold);
            }
            if became_complete {
                out.push(RecvAction::Complete);
            }
            return;
        }

        // Out-of-order arrival.
        match self.reorder_hold {
            None => {
                // Standard TCP: immediate duplicate ACK.
                out.push(RecvAction::SendAck {
                    ack: self.rcv_nxt,
                    ecn_echo: ecn,
                    echo_ts: sent_at,
                    echo_path: path,
                    echo_retx: retx,
                });
            }
            Some(hold) => {
                // Reordering mask: stay silent, give the gap time to fill.
                if !self.hold_armed {
                    self.hold_armed = true;
                    out.push(RecvAction::ArmHold {
                        deadline: now + hold,
                    });
                }
            }
        }
    }

    /// The reorder-buffer flush timer fired: the gap did not fill in
    /// time, treat it as loss by emitting enough duplicate ACKs to
    /// trigger one fast retransmit, then keep holding for the repair.
    pub fn on_hold_timer(&mut self, now: Time, out: &mut Vec<RecvAction>) {
        if !self.hold_armed {
            return; // stale timer
        }
        if self.ooo.is_empty() {
            self.hold_armed = false;
            return;
        }
        for _ in 0..self.flush_dupacks {
            out.push(RecvAction::SendAck {
                ack: self.rcv_nxt,
                ecn_echo: false,
                echo_ts: Time::MAX,
                echo_path: PathId::UNSET,
                echo_retx: true, // no RTT sample from synthetic dupacks
            });
        }
        let hold = self
            .reorder_hold
            .expect("hold timer without reorder buffer");
        out.push(RecvAction::ArmHold {
            deadline: now + hold,
        });
    }

    fn drain_contiguous(&mut self) {
        while let Some((&s, &e)) = self.ooo.iter().next() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.remove(&s);
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
    }

    fn insert_ooo(&mut self, mut start: u64, mut end: u64) {
        // Merge with any overlapping or adjacent ranges.
        // Candidates: the predecessor range and successors starting
        // before `end`.
        if let Some((&s, &e)) = self.ooo.range(..=start).next_back() {
            if e >= start {
                start = s;
                end = end.max(e);
                self.ooo.remove(&s);
            }
        }
        let succs: Vec<u64> = self.ooo.range(start..=end).map(|(&s, _)| s).collect();
        for s in succs {
            let e = self
                .ooo
                .remove(&s)
                .expect("key collected from this map just above");
            end = end.max(e);
        }
        self.ooo.insert(start, end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1460;

    fn recv(size: u64) -> Receiver {
        Receiver::new(size, None, 3)
    }

    fn on_pkt(r: &mut Receiver, seq: u64, len: u64, out: &mut Vec<RecvAction>) {
        r.on_data(
            SegmentIn {
                seq,
                len: len as u32,
                ecn: false,
                sent_at: Time::from_us(1),
                path: PathId(0),
                retx: false,
            },
            Time::from_us(10),
            out,
        );
    }

    fn acks(out: &[RecvAction]) -> Vec<u64> {
        out.iter()
            .filter_map(|a| match a {
                RecvAction::SendAck { ack, .. } => Some(*ack),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn in_order_arrival_acks_cumulatively() {
        let mut r = recv(3 * MSS);
        let mut out = Vec::new();
        for i in 0..3 {
            on_pkt(&mut r, i * MSS, MSS, &mut out);
        }
        assert_eq!(acks(&out), vec![MSS, 2 * MSS, 3 * MSS]);
        assert!(out.contains(&RecvAction::Complete));
        assert!(r.completed());
    }

    #[test]
    fn out_of_order_emits_dupacks_then_jumps() {
        let mut r = recv(3 * MSS);
        let mut out = Vec::new();
        on_pkt(&mut r, 0, MSS, &mut out); // ack MSS
        on_pkt(&mut r, 2 * MSS, MSS, &mut out); // dup ack MSS
        assert_eq!(acks(&out), vec![MSS, MSS]);
        on_pkt(&mut r, MSS, MSS, &mut out); // fills gap: ack jumps to 3*MSS
        assert_eq!(acks(&out), vec![MSS, MSS, 3 * MSS]);
        assert!(r.completed());
    }

    #[test]
    fn duplicate_data_is_idempotent() {
        let mut r = recv(2 * MSS);
        let mut out = Vec::new();
        on_pkt(&mut r, 0, MSS, &mut out);
        on_pkt(&mut r, 0, MSS, &mut out); // exact duplicate
        assert_eq!(acks(&out), vec![MSS, MSS]);
        assert_eq!(r.rcv_nxt(), MSS);
        on_pkt(&mut r, MSS, MSS, &mut out);
        assert!(r.completed());
        // Complete fires exactly once.
        let completes = out
            .iter()
            .filter(|a| matches!(a, RecvAction::Complete))
            .count();
        assert_eq!(completes, 1);
    }

    #[test]
    fn ooo_ranges_merge() {
        let mut r = recv(10 * MSS);
        let mut out = Vec::new();
        // Holes everywhere: 3 disjoint ranges that later merge.
        on_pkt(&mut r, 4 * MSS, MSS, &mut out);
        on_pkt(&mut r, 2 * MSS, MSS, &mut out);
        on_pkt(&mut r, 3 * MSS, MSS, &mut out); // bridges 2..5
        assert_eq!(r.buffered_bytes(), 3 * MSS);
        on_pkt(&mut r, 0, 2 * MSS, &mut out); // fills head: drains to 5*MSS
        assert_eq!(r.rcv_nxt(), 5 * MSS);
        assert_eq!(r.buffered_bytes(), 0);
    }

    #[test]
    fn reorder_buffer_suppresses_dupacks_until_flush() {
        let mut r = Receiver::new(5 * MSS, Some(Time::from_us(200)), 3);
        let mut out = Vec::new();
        on_pkt(&mut r, 0, MSS, &mut out);
        out.clear();
        on_pkt(&mut r, 2 * MSS, MSS, &mut out);
        on_pkt(&mut r, 3 * MSS, MSS, &mut out);
        // No dupacks; one hold arm.
        assert!(acks(&out).is_empty());
        assert_eq!(
            out.iter()
                .filter(|a| matches!(a, RecvAction::ArmHold { .. }))
                .count(),
            1
        );
        // Gap fills in time: cumulative jump, hold disarmed.
        out.clear();
        on_pkt(&mut r, MSS, MSS, &mut out);
        assert_eq!(acks(&out), vec![4 * MSS]);
        assert!(out.contains(&RecvAction::DisarmHold));
    }

    #[test]
    fn reorder_buffer_flush_emits_threshold_dupacks() {
        let mut r = Receiver::new(5 * MSS, Some(Time::from_us(200)), 3);
        let mut out = Vec::new();
        on_pkt(&mut r, 0, MSS, &mut out);
        on_pkt(&mut r, 2 * MSS, MSS, &mut out);
        out.clear();
        r.on_hold_timer(Time::from_us(300), &mut out);
        let a = acks(&out);
        assert_eq!(a, vec![MSS, MSS, MSS], "exactly DUPACK_THRESH duplicates");
        // Synthetic dupacks carry no RTT sample.
        for act in &out {
            if let RecvAction::SendAck { echo_retx, .. } = act {
                assert!(*echo_retx);
            }
        }
        // Re-armed for the repair.
        assert!(out.iter().any(|a| matches!(a, RecvAction::ArmHold { .. })));
    }

    #[test]
    fn stale_hold_timer_is_ignored() {
        let mut r = Receiver::new(5 * MSS, Some(Time::from_us(200)), 3);
        let mut out = Vec::new();
        r.on_hold_timer(Time::from_us(300), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tail_segment_completes_flow() {
        let mut r = recv(MSS + 100);
        let mut out = Vec::new();
        on_pkt(&mut r, 0, MSS, &mut out);
        assert!(!r.completed());
        on_pkt(&mut r, MSS, 100, &mut out);
        assert!(r.completed());
        assert_eq!(acks(&out), vec![MSS, MSS + 100]);
    }

    #[test]
    fn echo_fields_propagate() {
        let mut r = recv(2 * MSS);
        let mut out = Vec::new();
        r.on_data(
            SegmentIn {
                seq: 0,
                len: MSS as u32,
                ecn: true,
                sent_at: Time::from_us(42),
                path: PathId(3),
                retx: true,
            },
            Time::from_us(99),
            &mut out,
        );
        match out[0] {
            RecvAction::SendAck {
                ack,
                ecn_echo,
                echo_ts,
                echo_path,
                echo_retx,
            } => {
                assert_eq!(ack, MSS);
                assert!(ecn_echo);
                assert_eq!(echo_ts, Time::from_us(42));
                assert_eq!(echo_path, PathId(3));
                assert!(echo_retx);
            }
            _ => panic!("expected ack"),
        }
    }
}
