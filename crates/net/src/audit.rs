//! Runtime auditing: packet-conservation accounting, rolling
//! event-trace digests for determinism self-checks, and (behind the
//! `audit` feature) an exact per-packet ledger.
//!
//! The always-on pieces are O(1) per event — a couple of counters and,
//! when a caller asks, one census over the fabric's ports — so they run
//! in every build. The ledger tracks the precise set of outstanding
//! packet ids and is compiled in only with `--features audit`.

use std::fmt;

use hermes_sim::Time;

use crate::fabric::Event;
use crate::types::NodeId;

/// The 64-bit FNV prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// `FNV_PRIME^k` (wrapping) for `k` in `0..=8`: absorbing `k` zero bytes.
const FNV_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Rolling FNV-1a (64-bit) over a stream of words.
///
/// Used to fingerprint an entire event trace: feeding every dispatched
/// event through [`digest_event`] yields a single value that two
/// same-seed runs must reproduce exactly. Any divergence — a reordered
/// event, a different packet id, a shifted timestamp — changes the
/// digest with overwhelming probability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FnvDigest(u64);

impl Default for FnvDigest {
    fn default() -> FnvDigest {
        FnvDigest::new()
    }
}

impl FnvDigest {
    /// The FNV-1a offset basis.
    pub fn new() -> FnvDigest {
        FnvDigest(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb one word (little-endian byte order).
    ///
    /// Byte-wise FNV-1a of a zero byte is `h ^ 0` then `* P`, so a byte
    /// followed by `k` zero bytes is one multiply by `P^(k+1)`: this
    /// costs one multiply per nonzero byte above byte 0 plus one for the
    /// word's tail, not eight, for the identical value. Event words are
    /// mostly zero bytes.
    #[inline]
    pub fn push(&mut self, v: u64) {
        // Byte 0 goes in unconditionally: a zero byte xors nothing in.
        let mut h = self.0 ^ (v & 0xFF);
        // `last` is the byte xored in last, its multiply still owed;
        // `rest` holds the nonzero bytes above it.
        let mut last = 0;
        let mut rest = v & !0xFF;
        while rest != 0 {
            let next = (rest.trailing_zeros() / 8) as usize;
            h = h.wrapping_mul(FNV_POW[next - last]) ^ (rest >> (8 * next) & 0xFF);
            rest &= !(0xFF << (8 * next));
            last = next;
        }
        self.0 = h.wrapping_mul(FNV_POW[8 - last]);
    }

    /// The digest so far.
    #[inline]
    pub fn value(&self) -> u64 {
        self.0
    }
}

fn node_code(n: NodeId) -> u64 {
    match n {
        NodeId::Host(h) => u64::from(h.0),
        NodeId::Leaf(l) => (1 << 32) | u64::from(l.0),
        NodeId::Spine(s) => (2 << 32) | u64::from(s.0),
    }
}

/// Absorb one dispatched event (with its dispatch time) into `d`.
///
/// The encoding covers everything that identifies the event — kind,
/// location, packet identity, timer token — so the digest pins the full
/// event interleaving, not just the event count.
pub fn digest_event(d: &mut FnvDigest, at: Time, ev: &Event) {
    d.push(at.as_ns());
    match ev {
        Event::TxDone { node, port } => {
            d.push(1);
            d.push(node_code(*node));
            d.push(*port as u64);
        }
        Event::Arrive { node, pkt } => {
            d.push(2);
            d.push(node_code(*node));
            d.push(pkt.id);
            d.push(pkt.flow.0);
        }
        Event::HostTimer { host, token } => {
            d.push(3);
            d.push(u64::from(host.0));
            d.push(*token);
        }
        Event::Global { token } => {
            d.push(4);
            d.push(*token);
        }
    }
}

/// Two independent accountings of every packet the fabric ever saw.
///
/// The global counters (`injected`, `delivered`, `drops_*`) are bumped
/// at injection and retirement; `in_flight` is a physical census of
/// where packets currently sit (port queues, serialization, link
/// propagation). Conservation demands the two agree at *every* instant:
/// a packet that leaks (dropped without accounting, delivered twice,
/// forgotten in a queue) breaks [`ConservationReport::balanced`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConservationReport {
    /// Packets handed to the fabric by hosts.
    pub injected: u64,
    /// Packets delivered to destination hosts.
    pub delivered: u64,
    /// Packets destroyed by injected switch failures.
    pub drops_failure: u64,
    /// Packets dropped because no live path existed.
    pub drops_disconnected: u64,
    /// Packets tail-dropped at full port buffers.
    pub drops_full: u64,
    /// Census of packets physically inside the fabric right now
    /// (queued, serializing, or propagating on a link).
    pub in_flight: u64,
}

impl ConservationReport {
    /// Total packets dropped, for any reason.
    pub fn dropped(&self) -> u64 {
        self.drops_failure + self.drops_disconnected + self.drops_full
    }

    /// Whether every injected packet is accounted for.
    pub fn balanced(&self) -> bool {
        self.injected == self.delivered + self.dropped() + self.in_flight
    }
}

impl fmt::Display for ConservationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected={} delivered={} drops(failure={}, disconnected={}, full={}) in_flight={}{}",
            self.injected,
            self.delivered,
            self.drops_failure,
            self.drops_disconnected,
            self.drops_full,
            self.in_flight,
            if self.balanced() { "" } else { " [IMBALANCED]" }
        )
    }
}

/// Exact per-packet ledger: the set of packet ids that are inside the
/// fabric. Catches duplicate ids, double deliveries, and drops of
/// packets that were never injected — failure modes the aggregate
/// counters can cancel out.
#[cfg(feature = "audit")]
#[derive(Debug, Default)]
pub struct Ledger {
    outstanding: std::collections::BTreeSet<u64>,
}

#[cfg(feature = "audit")]
impl Ledger {
    /// A packet entered the fabric.
    pub fn injected(&mut self, id: u64) {
        assert!(self.outstanding.insert(id), "packet id {id} injected twice");
    }

    /// A packet left the fabric (delivered or dropped, any cause).
    pub fn retired(&mut self, id: u64) {
        assert!(
            self.outstanding.remove(&id),
            "packet {id} retired twice or never injected"
        );
    }

    /// How many packets are currently inside the fabric.
    pub fn outstanding(&self) -> u64 {
        self.outstanding.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::types::{FlowId, HostId, LeafId};

    #[test]
    fn digest_is_deterministic_and_order_sensitive() {
        let mut a = FnvDigest::new();
        let mut b = FnvDigest::new();
        let mut c = FnvDigest::new();
        for v in [1u64, 2, 3] {
            a.push(v);
            b.push(v);
        }
        for v in [3u64, 2, 1] {
            c.push(v);
        }
        assert_eq!(a.value(), b.value());
        assert_ne!(a.value(), c.value(), "permuted stream must differ");
        assert_ne!(FnvDigest::new().value(), a.value());
    }

    /// The definition `push` must equal: FNV-1a over the word's eight
    /// little-endian bytes, one xor and one multiply per byte.
    fn push_bytewise(h: u64, v: u64) -> u64 {
        v.to_le_bytes().iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        })
    }

    #[test]
    fn push_equals_the_bytewise_definition() {
        let mut rng = hermes_sim::SimRng::new(7);
        let mut words = vec![0u64, u64::MAX, 0xFF << 56, 1 << 63];
        for byte in 0..8 {
            for b in [1u64, 0x80, 0xFF] {
                words.push(b << (8 * byte));
            }
        }
        for i in 0..1_100_000u64 {
            // Keep a random subset of a random word's bytes: every
            // zero-run shape, weighted toward sparse words like the event
            // encoding's. Every eighth word keeps all eight.
            let dense = i.is_multiple_of(8);
            let keep = if dense { !0 } else { rng.u64() & rng.u64() };
            let mask = (0..8).fold(0u64, |m, b| m | ((keep >> b & 1) * 0xFF) << (8 * b));
            words.push(rng.u64() & mask);
        }
        // One rolling digest, so every word also starts from a
        // different state.
        let (mut fast, mut slow) = (FnvDigest::new(), FnvDigest::new().value());
        for &w in &words {
            fast.push(w);
            slow = push_bytewise(slow, w);
            assert_eq!(fast.value(), slow, "push({w:#018x}) left the FNV-1a stream");
        }
        assert_eq!(FNV_POW[1], FNV_PRIME);
        assert_eq!(
            FNV_POW[8],
            push_bytewise(1, 0),
            "P^8 absorbs an all-zero word"
        );
    }

    #[test]
    fn event_encoding_separates_kinds_and_fields() {
        let now = Time::from_us(5);
        let mk = |ev: &Event| {
            let mut d = FnvDigest::new();
            digest_event(&mut d, now, ev);
            d.value()
        };
        let tx = Event::TxDone {
            node: NodeId::Leaf(LeafId(1)),
            port: 2,
        };
        let tx2 = Event::TxDone {
            node: NodeId::Spine(crate::types::SpineId(1)),
            port: 2,
        };
        let timer = Event::HostTimer {
            host: HostId(1),
            token: 2,
        };
        let global = Event::Global { token: 2 };
        let arrive = Event::Arrive {
            node: NodeId::Host(HostId(1)),
            pkt: Box::new(Packet::data(
                FlowId(9),
                HostId(0),
                HostId(1),
                0,
                1460,
                false,
            )),
        };
        let vals = [mk(&tx), mk(&tx2), mk(&timer), mk(&global), mk(&arrive)];
        for i in 0..vals.len() {
            for j in (i + 1)..vals.len() {
                assert_ne!(vals[i], vals[j], "events {i} and {j} collide");
            }
        }
    }

    #[test]
    fn report_balance_arithmetic() {
        let mut r = ConservationReport {
            injected: 100,
            delivered: 80,
            drops_failure: 5,
            drops_disconnected: 3,
            drops_full: 2,
            in_flight: 10,
        };
        assert!(r.balanced());
        assert_eq!(r.dropped(), 10);
        r.delivered += 1; // a phantom delivery breaks the balance
        assert!(!r.balanced());
        assert!(r.to_string().contains("IMBALANCED"));
    }

    #[cfg(feature = "audit")]
    #[test]
    fn ledger_tracks_outstanding_exactly() {
        let mut l = Ledger::default();
        l.injected(1);
        l.injected(2);
        assert_eq!(l.outstanding(), 2);
        l.retired(1);
        assert_eq!(l.outstanding(), 1);
    }

    #[cfg(feature = "audit")]
    #[test]
    #[should_panic(expected = "retired twice")]
    fn ledger_rejects_double_retirement() {
        let mut l = Ledger::default();
        l.injected(1);
        l.retired(1);
        l.retired(1);
    }
}
