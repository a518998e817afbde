//! # hermes-lb — baseline datacenter load balancers
//!
//! Every scheme the paper's evaluation (§5) compares Hermes against:
//!
//! | Scheme | Kind | Granularity | Congestion awareness |
//! |---|---|---|---|
//! | [`Ecmp`] | edge | flow | oblivious |
//! | [`PrestoSpray`] (Presto*) | edge | packet (weighted) | oblivious |
//! | [`CloveEcn`] | edge | flowlet | end-host ECN weights |
//! | [`LetFlow`] | switch | flowlet | oblivious (implicit) |
//! | [`Conga`] | switch | flowlet | global (in-band feedback) |
//!
//! Edge schemes implement `hermes_net::EdgeLb`; switch schemes implement
//! `hermes_net::FabricLb`. Hermes itself lives in `hermes-core`.

mod clove;
mod conga;
mod ecmp;
mod flowlet;
mod letflow;
mod spray;

pub use clove::CloveEcn;
pub use conga::Conga;
pub use ecmp::Ecmp;
pub use flowlet::{FlowletTable, FLOWLET_TIMEOUT};
pub use letflow::LetFlow;
pub use spray::PrestoSpray;
