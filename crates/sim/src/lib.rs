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
//!   [`SimRng`], this makes every simulation bit-reproducible. Two
//!   implementations honor the identical contract — the hierarchical
//!   timing wheel [`WheelQueue`] (default) and the binary-heap
//!   [`HeapQueue`] (select with `--features heap-queue`); the alias
//!   picks one, and both are always compiled so differential tests can
//!   drive them against each other.
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

mod queue;
mod rng;
mod time;
mod wheel;

pub use queue::HeapQueue;
pub use rng::SimRng;
pub use time::Time;
pub use wheel::WheelQueue;

/// The event queue the simulator runs on. Both implementations honor the
/// same `(time, seq)` total-order contract, so flipping the feature must
/// not change any event trace — CI's perf-smoke job asserts exactly that
/// by comparing same-seed digests across schedulers.
#[cfg(feature = "heap-queue")]
pub type EventQueue<E> = HeapQueue<E>;
/// The event queue the simulator runs on (timing wheel, default).
#[cfg(not(feature = "heap-queue"))]
pub type EventQueue<E> = WheelQueue<E>;

/// Which scheduler backs [`EventQueue`] in this build; surfaced by the
/// perf harness so BENCH_perf.json rows are self-describing.
#[cfg(feature = "heap-queue")]
pub const SCHEDULER: &str = "heap";
/// Which scheduler backs [`EventQueue`] in this build (timing wheel).
#[cfg(not(feature = "heap-queue"))]
pub const SCHEDULER: &str = "wheel";
