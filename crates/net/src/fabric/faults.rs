//! Fault application. [`Fabric::apply_fault`] is the one entry point a
//! [`crate::FaultPlan`] replays through; the spine, link and outage
//! mutators behind it are private to the fabric, so no other crate can
//! bypass the event queue with them.

use super::Fabric;
use crate::failure::SpineFailure;
use crate::faultplan::FaultAction;
use crate::topology::{buffer_limit, ecn_threshold};
use crate::types::{LeafId, NodeId, SpineId};

impl Fabric {
    /// Inject a failure at a spine switch.
    pub(super) fn set_spine_failure(&mut self, spine: SpineId, f: SpineFailure) {
        self.failures[spine.0 as usize] = f;
        // ECN mute lives at the muted switch's egress ports — only its
        // own marking engine goes quiet; leaf ports downstream keep
        // marking normally (which is why the mute is not modeled by
        // clearing the packet's ecn_capable bit).
        for l in 0..self.topo.n_leaves {
            if let Some(port) = self.ports.get_mut(NodeId::Spine(spine), l) {
                port.marking = !f.ecn_mute;
            }
        }
    }

    /// Current failure state of a spine switch.
    pub fn spine_failure(&self, spine: SpineId) -> SpineFailure {
        self.failures[spine.0 as usize]
    }

    /// Transiently take one leaf↔spine link down (or back up). The link
    /// must exist in the topology; packets forwarded onto it while down
    /// are destroyed (`drops_failure`), in both directions. Packets
    /// already queued on the port keep draining — the link's transmit
    /// side is what "fails", as when a transceiver loses light.
    pub(super) fn set_link_down(&mut self, leaf: LeafId, spine: SpineId, down: bool) {
        assert!(
            self.topo.up[leaf.0 as usize][spine.0 as usize].is_some(),
            "cannot flap a link the topology cut permanently"
        );
        self.link_down[leaf.0 as usize][spine.0 as usize] = down;
    }

    /// Whether a leaf↔spine link is transiently down.
    pub fn link_is_down(&self, leaf: LeafId, spine: SpineId) -> bool {
        self.link_down[leaf.0 as usize][spine.0 as usize]
    }

    /// Change one leaf↔spine link's rate mid-run (both directions).
    /// ECN threshold and buffer limit are rescaled to the new rate, as a
    /// reconfigured switch port would be. Takes effect from the next
    /// packet dequeue — transmission time is computed when serialization
    /// starts, so the packet currently on the wire is unaffected.
    pub(super) fn set_link_rate(&mut self, leaf: LeafId, spine: SpineId, rate_bps: u64) {
        assert!(rate_bps > 0, "a live link needs a nonzero rate");
        let ecn = ecn_threshold(rate_bps);
        let buf = buffer_limit(rate_bps);
        let up = (NodeId::Leaf(leaf), self.ports.up_idx(spine));
        let down = (NodeId::Spine(spine), leaf.0 as usize);
        for (node, idx) in [up, down] {
            let port = self
                .ports
                .get_mut(node, idx)
                .expect("cannot re-rate a link the topology cut");
            port.link.rate_bps = rate_bps;
            port.ecn_threshold = ecn;
            port.buf_limit = buf;
        }
    }

    /// Restore one leaf↔spine link to its topology-configured rate.
    pub(super) fn restore_link_rate(&mut self, leaf: LeafId, spine: SpineId) {
        let orig = self.topo.up[leaf.0 as usize][spine.0 as usize]
            .expect("cannot restore a link the topology cut")
            .rate_bps;
        self.set_link_rate(leaf, spine, orig);
    }

    /// Current rate of a leaf↔spine link, `None` if the topology cut it.
    pub fn link_rate_bps(&self, leaf: LeafId, spine: SpineId) -> Option<u64> {
        self.leaf_up(leaf, spine).map(|p| p.link.rate_bps)
    }

    /// Take a whole spine out of (or back into) service: every link the
    /// topology wired to it goes down (or up) at once.
    pub(super) fn set_spine_down(&mut self, spine: SpineId, down: bool) {
        for l in 0..self.topo.n_leaves {
            if self.topo.up[l][spine.0 as usize].is_some() {
                self.link_down[l][spine.0 as usize] = down;
            }
        }
    }

    /// Apply one scheduled fault action. This is the single entry point
    /// the runtime's event dispatcher uses to replay a
    /// [`crate::FaultPlan`]; calling it from anywhere outside the event
    /// queue breaks trace determinism (the `clippy::disallowed_methods`
    /// entry in `clippy.toml` enforces this).
    pub fn apply_fault(&mut self, action: &FaultAction) {
        match *action {
            FaultAction::SetSpineFailure { spine, failure } => {
                self.set_spine_failure(spine, failure);
            }
            FaultAction::ClearSpineFailure { spine } => {
                self.set_spine_failure(spine, SpineFailure::healthy());
            }
            // The gray-failure actions merge into the spine's existing
            // state (read-modify-write) so concurrent windows of
            // different failure modes on one switch compose instead of
            // clobbering each other.
            FaultAction::FlowBlackhole {
                spine,
                victim_fraction,
            } => {
                let f = self
                    .spine_failure(spine)
                    .with_flow_blackhole(victim_fraction);
                self.set_spine_failure(spine, f);
            }
            FaultAction::EcnMute { spine } => {
                let f = self.spine_failure(spine).with_ecn_mute(true);
                self.set_spine_failure(spine, f);
            }
            FaultAction::EcnUnmute { spine } => {
                let f = self.spine_failure(spine).with_ecn_mute(false);
                self.set_spine_failure(spine, f);
            }
            FaultAction::LinkDown { leaf, spine } => self.set_link_down(leaf, spine, true),
            FaultAction::LinkUp { leaf, spine } => self.set_link_down(leaf, spine, false),
            FaultAction::SetLinkRate {
                leaf,
                spine,
                rate_bps,
            } => self.set_link_rate(leaf, spine, rate_bps),
            FaultAction::RestoreLinkRate { leaf, spine } => self.restore_link_rate(leaf, spine),
            FaultAction::SpineDown { spine } => self.set_spine_down(spine, true),
            FaultAction::SpineUp { spine } => self.set_spine_down(spine, false),
        }
    }
}
