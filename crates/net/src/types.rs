//! Identifier newtypes shared across the fabric.
//!
//! Everything is a small integer index into dense `Vec`s; the newtypes
//! exist so that a host index can never be confused with a leaf index at
//! a call site.

use std::fmt;

/// A server (end host). Hosts are numbered fabric-wide,
/// `leaf * hosts_per_leaf + slot`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct HostId(pub u32);

/// A leaf (top-of-rack) switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LeafId(pub u16);

/// A spine (core) switch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SpineId(pub u16);

/// Any node in the fabric.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum NodeId {
    Host(HostId),
    Leaf(LeafId),
    Spine(SpineId),
}

/// A flow (one sender→receiver byte stream, or a probe/UDP pseudo-flow).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u64);

/// An end-to-end path between two racks.
///
/// In a two-tier leaf-spine fabric a path is fully determined by the
/// spine it crosses, so `PathId` is the spine index. Intra-rack traffic
/// uses [`PathId::DIRECT`]; [`PathId::UNSET`] means "not chosen yet"
/// (switch-based schemes choose at the source leaf).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(pub u16);

impl PathId {
    /// Intra-rack: no spine crossing.
    pub const DIRECT: PathId = PathId(u16::MAX);
    /// Path not yet selected (to be resolved at the source leaf).
    pub const UNSET: PathId = PathId(u16::MAX - 1);

    /// The spine this path crosses, if it is a real spine path.
    #[inline]
    pub fn spine(self) -> Option<SpineId> {
        if self == PathId::DIRECT || self == PathId::UNSET {
            None
        } else {
            Some(SpineId(self.0))
        }
    }

    /// Construct from a spine index.
    #[inline]
    pub fn via(spine: SpineId) -> PathId {
        PathId(spine.0)
    }

    /// Whether this is a concrete spine path.
    #[inline]
    pub fn is_spine(self) -> bool {
        self.spine().is_some()
    }

    /// Telemetry encoding: the spine index, or -1 for direct/unset.
    #[inline]
    pub fn telemetry_code(self) -> i64 {
        self.spine().map_or(-1, |s| i64::from(s.0))
    }
}

impl fmt::Debug for PathId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == PathId::DIRECT {
            write!(f, "Path(direct)")
        } else if *self == PathId::UNSET {
            write!(f, "Path(unset)")
        } else {
            write!(f, "Path(s{})", self.0)
        }
    }
}

/// Strict scheduling priority of a packet at every output port.
///
/// Mirrors the paper's switch configuration (§4): pure ACKs (and probe
/// responses) ride the high-priority queue so that reverse-path queueing
/// does not pollute RTT measurements; everything else is best-effort.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Priority {
    High,
    Low,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_sentinels_are_distinct() {
        assert_ne!(PathId::DIRECT, PathId::UNSET);
        assert!(PathId::DIRECT.spine().is_none());
        assert!(PathId::UNSET.spine().is_none());
        assert!(!PathId::DIRECT.is_spine());
    }

    #[test]
    fn path_roundtrips_spine() {
        let p = PathId::via(SpineId(3));
        assert_eq!(p.spine(), Some(SpineId(3)));
        assert!(p.is_spine());
        assert_eq!(p.telemetry_code(), 3);
        assert_eq!(PathId::DIRECT.telemetry_code(), -1);
        assert_eq!(PathId::UNSET.telemetry_code(), -1);
    }

    #[test]
    fn debug_formats() {
        assert_eq!(format!("{:?}", PathId::via(SpineId(2))), "Path(s2)");
        assert_eq!(format!("{:?}", PathId::DIRECT), "Path(direct)");
        assert_eq!(format!("{:?}", PathId::UNSET), "Path(unset)");
    }
}
