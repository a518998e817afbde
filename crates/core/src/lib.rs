//! # hermes-core — the Hermes load balancer (SIGCOMM 2017)
//!
//! The paper's primary contribution, as an edge (hypervisor-side)
//! module with one owner per rack: a [`Hermes`] holds its rack's
//! [`RackSensing`] table by value and serves every host under the leaf.
//!
//! * **Comprehensive sensing** (§3.1) — [`PathState`] fuses RTT and ECN
//!   into the good/gray/congested characterization of Algorithm 1, and
//!   detects the two production switch-failure modes: packet blackholes
//!   (3 timeouts with nothing ACKed) and silent random drops (high
//!   retransmission fraction on an uncongested path).
//! * **Active probing** (§3.1.3) — per-rack probe agents probe two
//!   random paths plus the previously best path per destination rack
//!   (power of two choices with memory); results land in the rack's
//!   [`RackSensing`], which every host of the rack reads.
//! * **Timely yet cautious rerouting** (§3.2, Algorithm 2) — [`Hermes`]
//!   implements `hermes_net::EdgeLb` (the sending host is `ctx.src`;
//!   its local sending rates stay per host): per-packet granularity,
//!   immediate reaction to failures/timeouts, and a cost-benefit gate
//!   (`S`, `R`, `Δ_RTT`, `Δ_ECN`) before any congestion-driven reroute.
//! * [`HermesParams`] — the Table 4 parameters an experiment varies or
//!   the §3.3 rules of thumb derive from the topology, plus ablation
//!   switches for the Fig. 18 experiments; the rest of Table 4 are
//!   constants ([`T_ECN`], [`SIZE_THRESHOLD`], …).

mod hermes;
mod params;
mod sensing;
mod state;

pub use hermes::{Hermes, DELTA_ECN, PROBE_CHOICES, SIZE_THRESHOLD};
pub use params::HermesParams;
pub use sensing::RackSensing;
pub use state::{
    PathState, PathType, ECN_EWMA, FAILURE_QUIET_PERIOD, RECOVERY_PROBE_COUNT, RETX_FAIL_FRACTION,
    RETX_MIN_SAMPLES, RETX_WINDOW, RTT_EWMA, STALE_HORIZON, TIMEOUT_FAIL_COUNT, T_ECN,
};
