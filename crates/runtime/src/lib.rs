//! # hermes-runtime — the experiment harness
//!
//! Wires together the substrates:
//!
//! * a [`SimConfig`] names a topology, a [`Scheme`], a transport
//!   profile, and a master seed;
//! * [`Simulation`] instantiates the fabric, one transport state machine
//!   pair per flow, the load balancer (one `EdgeLb` per host, one
//!   `Hermes` per rack, or one `FabricLb` in the switches — it owns
//!   them all, nothing is shared by handle), the per-rack probe ticks,
//!   UDP competitors, and periodic queue/progress samplers;
//! * `sim.rs` is the wiring and run loop; its `transport`, `probe` and
//!   `token` modules hold per-flow dispatch (every edge-LB hook behind
//!   one per-flow seam), probing and the typed event token;
//! * a built [`Simulation`] is `Send` (asserted at compile time): it
//!   can be constructed on one thread and run on another;
//! * everything shares one deterministic event queue, so a (config,
//!   seed) pair fully determines every packet of a run.
//!
//! Every bench binary and integration test builds on this crate.

// Engine layer: no float arithmetic outside the expected modules
// (DESIGN.md §13).
#![warn(clippy::float_arithmetic)]

mod config;
mod sim;
mod timer;

pub use config::{presto_weights_for, Scheme, SimConfig, REORDER_HOLD};
pub use sim::{Probe, SimStats, Simulation, MAX_FLOW_ID};
