//! # hermes-net — packet-level leaf-spine fabric
//!
//! The network substrate the Hermes reproduction runs on: an
//! output-queued, store-and-forward, two-tier Clos (leaf-spine) fabric
//! with
//!
//! * explicit per-packet routing (a [`PathId`] names the spine a packet
//!   crosses — the simulator-native equivalent of the paper's XPath
//!   path control),
//! * two strict-priority queues per port with DCTCP-style ECN marking on
//!   the data queue (§4's switch configuration),
//! * switch failure injection — silent random drops and deterministic
//!   packet blackholes (§2.1, §5.3.3),
//! * hook traits for edge-based ([`EdgeLb`]) and switch-based
//!   ([`FabricLb`]) load balancers.
//!
//! The fabric knows nothing about transports: it moves [`Packet`]s
//! between hosts and reports deliveries; `hermes-transport` implements
//! DCTCP on top, and `hermes-runtime` wires the two together.

// Engine layer: no float arithmetic outside the expected modules
// (DESIGN.md §13).
#![warn(clippy::float_arithmetic)]

pub mod audit;
mod fabric;
mod failure;
mod faultplan;
mod lbapi;
mod packet;
mod pool;
mod port;
mod rate;
mod topology;
mod types;

pub use audit::{ConservationReport, FnvDigest};
pub use fabric::{Event, Fabric, FabricStats};
pub use failure::{flow_unit, pair_unit, Blackhole, FlowBlackhole, SpineFailure};
pub use faultplan::{FaultAction, FaultEvent, FaultPlan, PlanError};
pub use lbapi::{EdgeLb, FabricLb, FlowCtx, LinkRef, PinnedPath, ProbeTarget, Uplinks};
pub use packet::{AckInfo, LbMeta, Packet, PacketKind, ACK_SIZE, HDR, MSS, PROBE_SIZE};
pub use pool::{PacketPool, PoolStats};
pub use port::{Enqueue, Port, PortStats};
pub use rate::Dre;
pub use topology::{LinkCfg, QueueCfg, Topology};
pub use types::{FlowId, HostId, LeafId, NodeId, PathId, Priority, SpineId};
