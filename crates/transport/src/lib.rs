//! # hermes-transport — DCTCP / TCP NewReno for the simulated fabric
//!
//! Pure transport state machines (no I/O, no timers of their own):
//!
//! * [`Sender`] — NewReno with the DCTCP extension: slow start,
//!   congestion avoidance, fast retransmit/recovery, RTO with
//!   exponential backoff, per-window ECN-fraction window reduction.
//! * [`Receiver`] — cumulative ACKs with out-of-order reassembly and an
//!   optional JUGGLER-style reordering buffer (used to build Presto*,
//!   the paper's reordering-masked Presto variant).
//! * [`TransportCfg`] — DCTCP or the plain-TCP profile of §5.4; the
//!   paper's other §5.1 parameters (IW = 10, RTO_min = 10 ms) are
//!   constants of the sender.
//!
//! Both machines communicate with the runtime through action buffers
//! ([`SendAction`] / [`RecvAction`]), which keeps every window-arithmetic
//! rule unit-testable without a network and lets the runtime attach
//! paths, stamp packets, and manage timers however it likes.
//!
//! One deliberate simplification, documented in `DESIGN.md`: the
//! receiver acknowledges every data packet (no delayed ACKs). DCTCP's
//! two-state ECE echo machine exists solely to keep marks accurate
//! *under* delayed ACKs, so immediate per-packet echo preserves the α
//! estimate exactly.

mod config;
mod receiver;
mod sender;

pub use config::TransportCfg;
pub use receiver::{Receiver, RecvAction, SegmentIn};
pub use sender::{SendAction, Sender, SenderStats, DUPACK_THRESH};
