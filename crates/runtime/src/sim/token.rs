//! The typed token of every timer and global event. In the queue and
//! the trace digest a token is a raw `u64`, `kind(3) | id(40) | gen(21)`
//! from the low bits up; only [`Token`] packs or unpacks it.

use hermes_net::{Event, HostId};

use crate::timer::GEN_MASK;

const ID_BITS: u32 = 40;
const ID_MASK: u64 = (1 << ID_BITS) - 1;

/// Largest TCP flow id [`crate::Simulation::add_flow`] accepts: a timer
/// token has room for 40 bits of id, and a wider id would alias another
/// flow's timers.
pub const MAX_FLOW_ID: u64 = ID_MASK;

/// What a timer or global event means when it pops.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Token {
    /// A flow's retransmission timer, at the sender.
    Rto { flow: u64, gen: u64 },
    /// A flow's receive-side reorder-hold timer, at the receiver.
    Hold { flow: u64, gen: u64 },
    /// The next pending flow arrives.
    Arrival,
    /// The rack agents' probe tick.
    ProbeTick,
    /// A periodic sampler, by index.
    Sampler(usize),
    /// A UDP source's next packet, by index.
    Udp(usize),
    /// A fault-plan entry, by index.
    Fault(usize),
}

impl Token {
    /// The raw token. A generation wraps within its 21 bits.
    pub(crate) fn encode(self) -> u64 {
        let (kind, id, gen) = match self {
            Token::Rto { flow, gen } => (0, flow, gen),
            Token::Hold { flow, gen } => (1, flow, gen),
            Token::Arrival => (2, 0, 0),
            Token::ProbeTick => (3, 0, 0),
            Token::Sampler(i) => (4, i as u64, 0),
            Token::Udp(i) => (5, i as u64, 0),
            Token::Fault(i) => (6, i as u64, 0),
        };
        debug_assert!(id <= ID_MASK, "token id {id} wider than {ID_BITS} bits");
        kind | (id << 3) | ((gen & GEN_MASK) << (3 + ID_BITS))
    }

    /// The token a raw value encodes. Only [`Token::encode`] makes raw
    /// tokens, so an unknown kind is a bug.
    pub(crate) fn decode(raw: u64) -> Token {
        let (id, gen) = ((raw >> 3) & ID_MASK, raw >> (3 + ID_BITS));
        match raw & 7 {
            0 => Token::Rto { flow: id, gen },
            1 => Token::Hold { flow: id, gen },
            2 => Token::Arrival,
            3 => Token::ProbeTick,
            4 => Token::Sampler(id as usize),
            5 => Token::Udp(id as usize),
            6 => Token::Fault(id as usize),
            _ => unreachable!("bad event token {raw:#x}"),
        }
    }

    /// This token as a `Global` event.
    pub(crate) fn global(self) -> Event {
        Event::Global {
            token: self.encode(),
        }
    }

    /// This token as a `HostTimer` event at `host`.
    pub(crate) fn at_host(self, host: HostId) -> Event {
        Event::HostTimer {
            host,
            token: self.encode(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every variant against the raw value the pre-enum packing
    /// (`kind | id << 3 | (gen & GEN_MASK) << 43`) produced: the digest
    /// hashes these bits, so they must never move.
    #[test]
    fn encode_is_pinned_to_the_raw_layout() {
        let pinned = [
            (Token::Rto { flow: 5, gen: 7 }, 61_572_651_155_496),
            (
                Token::Rto {
                    flow: MAX_FLOW_ID,
                    gen: 1,
                },
                17_592_186_044_408,
            ),
            (
                Token::Hold {
                    flow: MAX_FLOW_ID,
                    gen: GEN_MASK,
                },
                0xFFFF_FFFF_FFFF_FFF9,
            ),
            (Token::Arrival, 2),
            (Token::ProbeTick, 3),
            (Token::Sampler(1), 12),
            (Token::Udp(3), 29),
            (Token::Fault(9), 78),
        ];
        for (token, raw) in pinned {
            assert_eq!(token.encode(), raw, "{token:?}");
            assert_eq!(Token::decode(raw), token, "{raw:#x}");
        }
    }

    #[test]
    fn generations_wrap_within_their_bits() {
        let wrapped = Token::Hold {
            flow: 3,
            gen: GEN_MASK + 2,
        };
        assert_eq!(wrapped.encode(), 8_796_093_022_233);
        assert_eq!(
            Token::decode(wrapped.encode()),
            Token::Hold { flow: 3, gen: 1 }
        );
    }

    #[test]
    fn timers_are_host_events_and_the_rest_global() {
        let rto = Token::Rto { flow: 4, gen: 2 };
        assert!(matches!(
            rto.at_host(HostId(9)),
            Event::HostTimer { host: HostId(9), token } if token == rto.encode()
        ));
        assert!(matches!(
            Token::Fault(1).global(),
            Event::Global { token: 14 }
        ));
    }

    #[test]
    #[should_panic(expected = "bad event token")]
    fn an_unknown_kind_is_a_bug() {
        Token::decode(7);
    }
}
