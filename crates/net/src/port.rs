//! An output port: two strict-priority FIFO queues, a tail-drop buffer
//! shared across both, and DCTCP-style ECN marking on the low-priority
//! (data) queue.

// Hot path: a port cannot panic mid-run (DESIGN.md §13).
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use std::collections::VecDeque;

use hermes_sim::Time;

use crate::packet::Packet;
use crate::topology::LinkCfg;
use crate::types::Priority;

/// Per-port counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct PortStats {
    /// Packets fully serialized onto the link.
    pub tx_pkts: u64,
    /// Bytes fully serialized onto the link.
    pub tx_bytes: u64,
    /// Packets CE-marked at this port.
    pub ecn_marks: u64,
    /// Packets tail-dropped for lack of buffer.
    pub drops_full: u64,
    /// High-water mark of *offered* queue occupancy in bytes: queued
    /// bytes after a successful enqueue, or queued bytes plus the
    /// rejected arrival at drop time. Including the dropped arrival is
    /// deliberate — the mark answers "how much buffer would this port
    /// have needed", which the post-drop queue depth under-reports.
    pub max_qbytes: u64,
}

/// One output port with its attached link.
pub struct Port {
    pub link: LinkCfg,
    /// CE-mark low-priority arrivals when the low queue exceeds this.
    pub ecn_threshold: u64,
    /// Tail-drop when total *queued* bytes would exceed this. The packet
    /// currently being serialized is deliberately NOT counted against
    /// the limit: it has already left the buffer for the wire, matching
    /// switch ASICs that account egress buffer occupancy after the
    /// scheduler pulls a frame (see DESIGN.md §11). A port can therefore
    /// hold up to `buf_limit` queued bytes plus one in-flight packet.
    pub buf_limit: u64,
    /// Whether CE marking is enabled at all. Healthy ports mark; a port
    /// on an ECN-muted switch ([`SpineFailure::ecn_mute`]) forwards
    /// normally but never marks, starving congestion-sensing LBs of
    /// signal while the queue silently grows.
    ///
    /// [`SpineFailure::ecn_mute`]: crate::SpineFailure
    pub marking: bool,
    high: VecDeque<Box<Packet>>,
    low: VecDeque<Box<Packet>>,
    high_bytes: u64,
    low_bytes: u64,
    /// The packet currently being serialized, if any.
    in_flight: Option<Box<Packet>>,
    pub stats: PortStats,
}

/// Outcome of an enqueue attempt.
#[derive(Debug)]
pub enum Enqueue {
    /// Queued (possibly CE-marked).
    Queued,
    /// Tail-dropped: buffer full. The rejected packet is handed back so
    /// the caller can ledger the drop and recycle the allocation into
    /// the fabric's [`PacketPool`](crate::PacketPool).
    Dropped(Box<Packet>),
}

impl Enqueue {
    /// Whether the packet was accepted.
    #[inline]
    pub fn is_queued(&self) -> bool {
        matches!(self, Enqueue::Queued)
    }
}

impl Port {
    pub fn new(link: LinkCfg, ecn_threshold: u64, buf_limit: u64) -> Port {
        Port {
            link,
            ecn_threshold,
            buf_limit,
            marking: true,
            high: VecDeque::new(),
            low: VecDeque::new(),
            high_bytes: 0,
            low_bytes: 0,
            in_flight: None,
            stats: PortStats::default(),
        }
    }

    /// Total bytes waiting (not counting the packet on the wire).
    #[inline]
    pub fn queued_bytes(&self) -> u64 {
        self.high_bytes + self.low_bytes
    }

    /// Bytes waiting in the low-priority (data) queue — the quantity the
    /// ECN marker looks at.
    #[inline]
    pub fn low_queue_bytes(&self) -> u64 {
        self.low_bytes
    }

    /// Whether the port is currently serializing a packet.
    #[inline]
    pub fn busy(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Try to enqueue. Applies tail-drop and ECN marking.
    pub fn enqueue(&mut self, mut pkt: Box<Packet>) -> Enqueue {
        let sz = pkt.size as u64;
        if self.queued_bytes() + sz > self.buf_limit {
            self.stats.drops_full += 1;
            // Sample the high-water mark with the rejected arrival
            // included: occupancy *offered* to the buffer at drop time.
            self.stats.max_qbytes = self.stats.max_qbytes.max(self.queued_bytes() + sz);
            return Enqueue::Dropped(pkt);
        }
        match pkt.prio {
            Priority::High => {
                self.high_bytes += sz;
                self.high.push_back(pkt);
            }
            Priority::Low => {
                self.low_bytes += sz;
                // DCTCP marking: CE when the instantaneous data queue
                // (including this arrival) exceeds K — unless the
                // switch's marking engine is muted (gray failure).
                if self.marking && pkt.ecn_capable && self.low_bytes > self.ecn_threshold {
                    pkt.ecn_marked = true;
                    self.stats.ecn_marks += 1;
                }
                self.low.push_back(pkt);
            }
        }
        self.stats.max_qbytes = self.stats.max_qbytes.max(self.queued_bytes());
        Enqueue::Queued
    }

    /// If idle and non-empty, move the next packet (strict priority:
    /// high first) onto the wire and return its serialization time.
    /// Returns `None` if already busy or empty.
    pub fn begin_tx(&mut self) -> Option<Time> {
        if self.in_flight.is_some() {
            return None;
        }
        let pkt = if let Some(p) = self.high.pop_front() {
            self.high_bytes -= p.size as u64;
            p
        } else if let Some(p) = self.low.pop_front() {
            self.low_bytes -= p.size as u64;
            p
        } else {
            return None;
        };
        let t = Time::tx_time(pkt.size as u64, self.link.rate_bps);
        self.in_flight = Some(pkt);
        Some(t)
    }

    /// Serialization finished: take the packet off the wire.
    ///
    /// Panics if no transmission was in progress (a scheduling bug).
    pub fn complete_tx(&mut self) -> Box<Packet> {
        #[expect(
            clippy::expect_used,
            reason = "documented contract: the runtime only schedules TxDone while a packet is in flight"
        )]
        let pkt = self
            .in_flight
            .take()
            .expect("complete_tx with no transmission in flight");
        self.stats.tx_pkts += 1;
        self.stats.tx_bytes += pkt.size as u64;
        pkt
    }

    /// Number of packets waiting (both priorities).
    pub fn queued_pkts(&self) -> usize {
        self.high.len() + self.low.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{FlowId, HostId, PathId};

    fn link() -> LinkCfg {
        LinkCfg::new(1_000_000_000, Time::from_us(1))
    }

    fn data(len: u32) -> Box<Packet> {
        Box::new(Packet::data(FlowId(1), HostId(0), HostId(1), 0, len, false))
    }

    fn ack() -> Box<Packet> {
        Box::new(Packet::ack(
            FlowId(1),
            HostId(1),
            HostId(0),
            crate::packet::AckInfo {
                ack: 0,
                ecn_echo: false,
                echo_ts: Time::ZERO,
                echo_path: PathId::DIRECT,
                echo_retx: false,
            },
        ))
    }

    /// A high-priority arrival overtakes low-priority packets that were
    /// enqueued earlier, as long as none of them has started serializing.
    #[test]
    fn high_priority_overtakes_earlier_low() {
        let mut p = Port::new(link(), 30_000, 100_000);
        assert!(p.enqueue(data(1460)).is_queued());
        assert!(p.enqueue(ack()).is_queued());
        p.begin_tx();
        assert_eq!(p.complete_tx().prio, Priority::High, "ACK leaves first");
        p.begin_tx();
        assert_eq!(p.complete_tx().prio, Priority::Low, "then the data");
        assert_eq!(p.queued_pkts(), 0);
    }

    /// Strict priority does not preempt: once a low-priority packet is
    /// on the wire, a high-priority arrival waits for it to finish, then
    /// goes next.
    #[test]
    fn high_priority_waits_for_in_flight_low() {
        let mut p = Port::new(link(), 30_000, 100_000);
        p.enqueue(data(1460));
        p.begin_tx(); // the data packet is now serializing
        p.enqueue(ack());
        assert!(p.begin_tx().is_none(), "must not preempt the wire");
        assert_eq!(p.complete_tx().prio, Priority::Low);
        p.begin_tx();
        assert_eq!(p.complete_tx().prio, Priority::High);
    }

    #[test]
    fn tx_time_matches_link_rate() {
        let mut p = Port::new(link(), 30_000, 100_000);
        p.enqueue(data(1460));
        let t = p.begin_tx().unwrap();
        assert_eq!(t, Time::from_us(12)); // 1500 B at 1 Gbps
        assert!(p.busy());
        assert!(p.begin_tx().is_none(), "must not preempt");
        let pkt = p.complete_tx();
        assert_eq!(pkt.size, 1500);
        assert!(!p.busy());
    }

    #[test]
    fn ecn_marks_when_low_queue_exceeds_threshold() {
        let mut p = Port::new(link(), 3_000, 1_000_000);
        // First two packets: 1500, 3000 bytes queued — second crosses K.
        p.enqueue(data(1460));
        p.enqueue(data(1460));
        p.enqueue(data(1460));
        p.begin_tx();
        let a = p.complete_tx();
        assert!(!a.ecn_marked, "first packet queued below threshold");
        p.begin_tx();
        let b = p.complete_tx();
        assert!(
            !b.ecn_marked,
            "second packet exactly at 3000 > 3000 is false"
        );
        p.begin_tx();
        let c = p.complete_tx();
        assert!(c.ecn_marked, "third packet queued above threshold");
        assert_eq!(p.stats.ecn_marks, 1);
    }

    #[test]
    fn muted_port_never_marks_but_still_forwards() {
        let mut p = Port::new(link(), 3_000, 1_000_000);
        p.marking = false;
        for _ in 0..5 {
            assert!(p.enqueue(data(1460)).is_queued(), "mute must not drop");
        }
        assert_eq!(p.stats.ecn_marks, 0, "muted marking engine stays silent");
        let mut drained = 0;
        while p.begin_tx().is_some() {
            assert!(!p.complete_tx().ecn_marked);
            drained += 1;
        }
        assert_eq!(drained, 5);
        // Re-enabling marking restores DCTCP behavior.
        p.marking = true;
        p.enqueue(data(1460));
        p.enqueue(data(1460));
        p.enqueue(data(1460));
        assert_eq!(p.stats.ecn_marks, 1, "third arrival crosses K again");
    }

    #[test]
    fn non_ecn_capable_never_marked() {
        let mut p = Port::new(link(), 0, 1_000_000);
        let mut u = Box::new(Packet::udp(
            FlowId(2),
            HostId(0),
            HostId(1),
            1460,
            PathId(0),
        ));
        u.ecn_capable = false;
        p.enqueue(u);
        p.begin_tx();
        assert!(!p.complete_tx().ecn_marked);
    }

    #[test]
    fn high_priority_queue_does_not_mark() {
        let mut p = Port::new(link(), 0, 1_000_000);
        for _ in 0..10 {
            p.enqueue(ack());
        }
        assert_eq!(p.stats.ecn_marks, 0);
    }

    #[test]
    fn tail_drop_on_full_buffer() {
        let mut p = Port::new(link(), 100_000, 3_000);
        assert!(p.enqueue(data(1460)).is_queued());
        assert!(p.enqueue(data(1460)).is_queued());
        match p.enqueue(data(1460)) {
            Enqueue::Dropped(pkt) => assert_eq!(pkt.size, 1500, "packet handed back intact"),
            Enqueue::Queued => panic!("third packet must tail-drop"),
        }
        assert_eq!(p.stats.drops_full, 1);
        assert_eq!(p.queued_pkts(), 2);
    }

    /// The high-water mark reports *offered* occupancy: at drop time it
    /// includes the arrival that was rejected, not just what fit.
    #[test]
    fn high_water_mark_includes_dropped_arrival() {
        let mut p = Port::new(link(), 100_000, 3_000);
        p.enqueue(data(1460));
        p.enqueue(data(1460));
        assert_eq!(p.stats.max_qbytes, 3_000, "two packets fit exactly");
        assert!(!p.enqueue(data(1460)).is_queued());
        assert_eq!(
            p.stats.max_qbytes, 4_500,
            "drop-time sample counts the rejected 1500-byte arrival"
        );
        assert_eq!(p.queued_bytes(), 3_000, "queue itself is unchanged");
    }

    /// `buf_limit` governs *queued* bytes only: the in-flight packet has
    /// left the buffer for the wire and frees its share of the limit.
    /// This is the explicit accounting choice documented in DESIGN.md §11.
    #[test]
    fn buf_limit_excludes_in_flight_packet() {
        let mut p = Port::new(link(), 100_000, 3_000);
        p.enqueue(data(1460));
        p.begin_tx(); // 1500 bytes now on the wire, zero queued
        assert_eq!(p.queued_bytes(), 0);
        assert!(p.enqueue(data(1460)).is_queued());
        assert!(
            p.enqueue(data(1460)).is_queued(),
            "limit covers the 3000 queued bytes; the wire packet is exempt"
        );
        assert!(!p.enqueue(data(1460)).is_queued(), "queue itself is full");
    }

    #[test]
    fn byte_accounting_is_conserved() {
        let mut p = Port::new(link(), 100_000, 1_000_000);
        for _ in 0..5 {
            p.enqueue(data(1000));
        }
        assert_eq!(p.queued_bytes(), 5 * 1040);
        let mut drained = 0;
        while p.begin_tx().is_some() {
            drained += p.complete_tx().size as u64;
        }
        assert_eq!(drained, 5 * 1040);
        assert_eq!(p.queued_bytes(), 0);
        assert_eq!(p.stats.tx_pkts, 5);
        assert_eq!(p.stats.tx_bytes, 5 * 1040);
    }

    #[test]
    #[should_panic(expected = "no transmission in flight")]
    fn complete_without_begin_panics() {
        let mut p = Port::new(link(), 0, 1_000_000);
        p.complete_tx();
    }
}
