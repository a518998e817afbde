//! # hermes-sim — deterministic discrete-event simulation engine
//!
//! This crate provides the minimal substrate that every other crate in
//! the Hermes reproduction builds on:
//!
//! * [`Time`] — simulated time in integer nanoseconds, with convenience
//!   constructors ([`Time::from_us`], [`Time::from_ms`], …) and saturating
//!   arithmetic.
//! * [`EventQueue`] — a priority queue of `(Time, payload)` entries with
//!   *deterministic tie-breaking*: events scheduled for the same instant
//!   fire in the order they were scheduled. Together with the seeded
//!   [`SimRng`], this makes every simulation bit-reproducible. It is
//!   [`LaneQueue`], FIFO lanes for recurring delays in front of a
//!   binary heap; the plain binary-heap [`HeapQueue`] honors the
//!   identical contract and is always compiled as the reference model
//!   the differential tests drive it against — it is not selectable as
//!   the simulator's queue.
//! * [`SimRng`] — a seeded, splittable random number generator wrapper so
//!   that independent subsystems (flow generation, load balancers, failure
//!   injection) can draw from decorrelated streams derived from one master
//!   seed.
//!
//! The engine is intentionally synchronous and single-threaded: a
//! packet-level fabric simulation is CPU-bound with totally ordered
//! events, so an async runtime would add nondeterminism for no benefit.
//!
//! ```
//! use hermes_sim::{EventQueue, Time};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(Time::from_us(5), "b");
//! q.schedule(Time::from_us(1), "a");
//! q.schedule(Time::from_us(5), "c"); // same time as "b", scheduled later
//!
//! assert_eq!(q.pop().unwrap().1, "a");
//! assert_eq!(q.pop().unwrap().1, "b");
//! assert_eq!(q.pop().unwrap().1, "c");
//! ```

// Engine layer: no float arithmetic outside the expected modules, and
// the hot path cannot panic mid-run (DESIGN.md §13).
#![warn(
    clippy::float_arithmetic,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod lanes;
mod queue;
mod rng;
mod time;

pub use lanes::LaneQueue;
pub use queue::HeapQueue;
pub use rng::SimRng;
pub use time::Time;

/// The event queue the simulator runs on: [`LaneQueue`].
/// [`HeapQueue`] honors the same `(time, seq)` total-order contract and
/// exists only as the oracle the lane queue is tested against.
pub type EventQueue<E> = LaneQueue<E>;
