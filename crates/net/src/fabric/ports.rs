//! The fabric's ports and the one index convention that addresses them.
//!
//! A port is named by `(node, idx)` — the same pair `Event::TxDone`
//! carries:
//!
//! * a host has one port, `idx = 0`, up to its leaf;
//! * a leaf has `0..hosts_per_leaf` down to its host slots, then
//!   `hosts_per_leaf + s` up to spine `s`;
//! * a spine has `idx = l` down to leaf `l`.
//!
//! Leaf uplinks and spine downlinks are `None` where the topology cut
//! the link.

use crate::port::Port;
use crate::topology::{LinkCfg, Topology};
use crate::types::{HostId, LeafId, NodeId, SpineId};

pub(super) struct PortTable {
    hosts_per_leaf: usize,
    host: Vec<Port>,
    leaf: Vec<Vec<Option<Port>>>,
    spine: Vec<Vec<Option<Port>>>,
}

impl PortTable {
    pub(super) fn new(topo: &Topology) -> PortTable {
        let q = &topo.queue;
        let mk = |link: LinkCfg| {
            Port::new(
                link,
                q.ecn_threshold(link.rate_bps),
                q.buffer(link.rate_bps),
            )
        };
        // Host NICs: deep buffer, no marking (marking lives in switches).
        let host = (0..topo.n_hosts())
            .map(|_| Port::new(topo.host_link, u64::MAX, 8_000_000))
            .collect();
        let leaf = (0..topo.n_leaves)
            .map(|l| {
                let mut v: Vec<Option<Port>> = (0..topo.hosts_per_leaf)
                    .map(|_| Some(mk(topo.host_link)))
                    .collect();
                v.extend((0..topo.n_spines).map(|s| topo.up[l][s].map(mk)));
                v
            })
            .collect();
        let spine = (0..topo.n_spines)
            .map(|s| (0..topo.n_leaves).map(|l| topo.up[l][s].map(mk)).collect())
            .collect();
        PortTable {
            hosts_per_leaf: topo.hosts_per_leaf,
            host,
            leaf,
            spine,
        }
    }

    /// Index of a leaf's uplink toward `spine`.
    #[inline]
    pub(super) fn up_idx(&self, spine: SpineId) -> usize {
        self.hosts_per_leaf + spine.0 as usize
    }

    /// The port at `(node, idx)`; `None` where the topology cut the link
    /// (or for a host's nonexistent second port).
    #[inline]
    pub(super) fn get(&self, node: NodeId, idx: usize) -> Option<&Port> {
        match node {
            NodeId::Host(h) => self.host.get(h.0 as usize).filter(|_| idx == 0),
            NodeId::Leaf(l) => self.leaf[l.0 as usize][idx].as_ref(),
            NodeId::Spine(s) => self.spine[s.0 as usize][idx].as_ref(),
        }
    }

    #[inline]
    pub(super) fn get_mut(&mut self, node: NodeId, idx: usize) -> Option<&mut Port> {
        match node {
            NodeId::Host(h) => self.host.get_mut(h.0 as usize).filter(|_| idx == 0),
            NodeId::Leaf(l) => self.leaf[l.0 as usize][idx].as_mut(),
            NodeId::Spine(s) => self.spine[s.0 as usize][idx].as_mut(),
        }
    }

    /// Where a packet leaving `(node, idx)` arrives.
    pub(super) fn peer(&self, node: NodeId, idx: usize) -> NodeId {
        let hpl = self.hosts_per_leaf;
        match node {
            NodeId::Host(h) => NodeId::Leaf(LeafId((h.0 as usize / hpl) as u16)),
            NodeId::Leaf(l) if idx < hpl => NodeId::Host(HostId((l.0 as usize * hpl + idx) as u32)),
            NodeId::Leaf(_) => NodeId::Spine(SpineId((idx - hpl) as u16)),
            NodeId::Spine(_) => NodeId::Leaf(LeafId(idx as u16)),
        }
    }

    /// Every live port in the fabric.
    pub(super) fn iter(&self) -> impl Iterator<Item = &Port> {
        let switches = self.leaf.iter().chain(&self.spine).flatten().flatten();
        self.host.iter().chain(switches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `peer` and the index convention round-trip for every port, and
    /// `iter` visits each live port exactly once.
    #[test]
    fn peer_and_indices_round_trip_on_every_port() {
        let mut cut = Topology::testbed();
        cut.cut_link(LeafId(0), SpineId(1));
        for topo in [Topology::testbed(), Topology::sim_baseline(), cut] {
            let t = PortTable::new(&topo);
            let mut live = topo.n_hosts();
            for h in (0..topo.n_hosts()).map(|h| HostId(h as u32)) {
                // host ↔ leaf slot
                let (leaf, slot) = (topo.host_leaf(h), topo.host_slot(h));
                assert_eq!(t.peer(NodeId::Host(h), 0), NodeId::Leaf(leaf));
                assert_eq!(t.peer(NodeId::Leaf(leaf), slot), NodeId::Host(h));
                assert!(t.get(NodeId::Leaf(leaf), slot).is_some());
                live += 1;
            }
            for l in 0..topo.n_leaves {
                for s in 0..topo.n_spines {
                    // leaf uplink ↔ spine downlink
                    let (leaf, spine) = (LeafId(l as u16), SpineId(s as u16));
                    let up = t.up_idx(spine);
                    assert_eq!(t.peer(NodeId::Leaf(leaf), up), NodeId::Spine(spine));
                    assert_eq!(t.peer(NodeId::Spine(spine), l), NodeId::Leaf(leaf));
                    let wired = topo.up[l][s].is_some();
                    assert_eq!(t.get(NodeId::Leaf(leaf), up).is_some(), wired);
                    assert_eq!(t.get(NodeId::Spine(spine), l).is_some(), wired);
                    live += 2 * usize::from(wired);
                }
            }
            assert_eq!(t.iter().count(), live);
        }
    }
}
