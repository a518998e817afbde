//! # hermes-runtime — the experiment harness
//!
//! Wires together the substrates:
//!
//! * a [`SimConfig`] names a topology, a [`Scheme`], a transport
//!   profile, and a master seed;
//! * [`Simulation`] instantiates the fabric, one transport state machine
//!   pair per flow, the load balancer (per-host `EdgeLb`s or one
//!   `FabricLb` in the switches), Hermes' per-rack probe agents, UDP
//!   competitors, and periodic queue/progress samplers;
//! * everything shares one deterministic event queue, so a (config,
//!   seed) pair fully determines every packet of a run.
//!
//! Every bench binary and integration test builds on this crate.

mod config;
pub mod selfcheck;
mod sim;

pub use config::{presto_weights_for, Scheme, SimConfig, DEFAULT_REORDER_HOLD};
pub use selfcheck::{assert_deterministic, fingerprint, RunFingerprint};
pub use sim::{Probe, SimStats, Simulation};
