//! Packet arena: a free-list of recycled `Box<Packet>` allocations.
//!
//! Every packet a simulation forwards lives in a `Box<Packet>` so the
//! event queue moves 8-byte pointers, not 100-byte structs. Without a
//! pool that costs one heap allocation per injected packet on the
//! `host_send` hot path and one free per drop/delivery. The pool turns
//! that round trip into a `Vec` push/pop plus a plain `Packet` store
//! (every [`Packet`] field is `Copy`, so `*slot = pkt` is a memcpy —
//! no drop glue runs).
//!
//! # Lifetime rules (see DESIGN.md §11)
//!
//! * Boxes are handed out by [`PacketPool::boxed`] and come back via
//!   [`PacketPool::recycle`] when the fabric retires a packet: tail
//!   drop, failure/blackhole/disconnected drop, or delivery after the
//!   runtime has consumed the payload.
//! * Recycling is *optional for correctness* — a box that is simply
//!   dropped (e.g. by a test that never returns it) is freed normally;
//!   the pool just loses the reuse.
//! * A recycled box's contents are stale until `boxed` overwrites them;
//!   the pool never reads packet fields.
//! * The free list is capped so a drain-heavy phase cannot pin an
//!   unbounded high-water mark of dead allocations, and trimmed toward
//!   its epoch low-water mark on sustained underuse so a burst's
//!   high-water mark is released once the burst drains.

// Hot path: the pool cannot panic mid-run (DESIGN.md §13).
#![warn(
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use hermes_sim::Time;

use crate::packet::{Packet, PacketKind};
use crate::types::{FlowId, HostId, PathId, Priority};

/// Counters for pool effectiveness; surfaced through
/// [`Fabric::pool_stats`](crate::Fabric::pool_stats) and the perf
/// harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct PoolStats {
    /// Boxes allocated fresh because the free list was empty.
    pub fresh: u64,
    /// Boxes handed out from the free list (allocations avoided).
    pub reused: u64,
    /// Boxes returned to the free list.
    pub recycled: u64,
    /// Boxes dropped on return because the free list was at capacity.
    pub discarded: u64,
    /// Parked boxes freed by the underuse trim policy (see
    /// [`PacketPool::TRIM_PERIOD`]).
    pub trimmed: u64,
}

/// A bounded free-list of packet allocations.
pub struct PacketPool {
    #[expect(
        clippy::vec_box,
        reason = "the boxes are the payload: `boxed` hands parked allocations back out, \
                  and a `Vec<Packet>` would discard the very thing being recycled"
    )]
    free: Vec<Box<Packet>>,
    cap: usize,
    stats: PoolStats,
    /// Pool operations (boxed/recycle) since the last trim epoch ended.
    ops_since_trim: u32,
    /// Smallest free-list length observed this epoch: boxes that sat
    /// parked through every operation of the epoch, i.e. provably unused
    /// surplus.
    epoch_min_free: usize,
}

impl Default for PacketPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketPool {
    /// Free-list bound: comfortably above the packets-in-flight
    /// high-water mark of the largest bench topology, small enough
    /// (64Ki boxes ≈ a few MiB) that an idle pool is cheap to keep.
    pub const DEFAULT_CAP: usize = 1 << 16;

    /// A pool with the default capacity bound.
    pub fn new() -> PacketPool {
        PacketPool::with_capacity(Self::DEFAULT_CAP)
    }

    /// A pool retaining at most `cap` free boxes.
    pub fn with_capacity(cap: usize) -> PacketPool {
        PacketPool {
            free: Vec::new(),
            cap,
            stats: PoolStats::default(),
            ops_since_trim: 0,
            epoch_min_free: 0,
        }
    }

    /// Operations per trim epoch. At each epoch boundary half of the
    /// epoch's low-water free-list surplus — boxes that sat parked
    /// through *every* operation of the epoch — is freed, so a
    /// burst-then-idle workload releases its dead high-water allocation
    /// geometrically instead of pinning it for the rest of the run.
    /// Driven purely by operation counts (no wall clock, no RNG), so
    /// trimming is deterministic and digest-neutral.
    pub const TRIM_PERIOD: u32 = 4096;

    /// Box `pkt`, reusing a recycled allocation when one is available.
    #[inline]
    pub fn boxed(&mut self, pkt: Packet) -> Box<Packet> {
        let slot = match self.free.pop() {
            Some(mut slot) => {
                *slot = pkt;
                self.stats.reused += 1;
                slot
            }
            None => {
                self.stats.fresh += 1;
                Box::new(pkt)
            }
        };
        self.note_op();
        slot
    }

    /// Identity stamped on parked boxes: no live packet or flow ever
    /// carries it, so a stale id surfacing anywhere downstream (a
    /// ledger entry, a telemetry record) is immediately recognizable
    /// as a pool bug rather than a plausible-looking misattribution.
    pub const POISON_ID: u64 = u64::MAX;

    /// Return a retired packet's allocation to the free list. Boxes
    /// beyond the capacity bound are freed instead of retained.
    ///
    /// The parked packet's whole identity-bearing surface is poisoned on
    /// the way in: `boxed` overwrites the entire struct on reuse, but a
    /// retired packet's fields must never be observable between recycle
    /// and reuse — e.g. by a telemetry or audit hook reading a box it
    /// should no longer hold (see `tests` for the regressions).
    #[inline]
    pub fn recycle(&mut self, mut pkt: Box<Packet>) {
        if self.free.len() < self.cap {
            self.stats.recycled += 1;
            Self::poison(&mut pkt);
            self.free.push(pkt);
        } else {
            self.stats.discarded += 1;
        }
        self.note_op();
    }

    /// Scrub every field a downstream hook could mistake for live packet
    /// state: identity (`id`, `flow`, endpoints), routing (`path`,
    /// `prio`), ECN bits, sizes, timestamps, and LB metadata. `kind`
    /// collapses to the payload-free `Udp` so no stale seq/ack numbers
    /// survive either.
    fn poison(pkt: &mut Packet) {
        pkt.id = Self::POISON_ID;
        pkt.flow = FlowId(Self::POISON_ID);
        pkt.src = HostId(u32::MAX);
        pkt.dst = HostId(u32::MAX);
        pkt.size = 0;
        pkt.kind = PacketKind::Udp;
        pkt.ecn_capable = false;
        pkt.ecn_marked = false;
        pkt.path = PathId::UNSET;
        pkt.prio = Priority::Low;
        pkt.sent_at = Time::MAX;
        pkt.meta = crate::packet::LbMeta::default();
    }

    /// Record one pool operation; at epoch boundaries, release half of
    /// the free list's provably-unused surplus.
    #[inline]
    fn note_op(&mut self) {
        self.epoch_min_free = self.epoch_min_free.min(self.free.len());
        self.ops_since_trim += 1;
        if self.ops_since_trim >= Self::TRIM_PERIOD {
            self.trim_epoch();
        }
    }

    fn trim_epoch(&mut self) {
        let surplus = self.epoch_min_free / 2;
        if surplus > 0 {
            // len >= epoch_min_free >= surplus: the minimum bounds the
            // current length from below, so the subtraction is safe.
            self.free.truncate(self.free.len() - surplus);
            self.stats.trimmed += surplus as u64;
            // Return the Vec's own spare capacity too once it dwarfs the
            // live list; otherwise the boxes are freed but the pointer
            // array still pins its high-water allocation.
            if self.free.capacity() > 64 && self.free.capacity() / 2 > self.free.len() {
                self.free.shrink_to(self.free.len().max(64));
            }
        }
        self.ops_since_trim = 0;
        self.epoch_min_free = self.free.len();
    }

    /// Effectiveness counters.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Boxes currently parked on the free list.
    pub fn free_len(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packet;
    use crate::types::{FlowId, HostId};

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), HostId(0), HostId(1), seq, 1460, false)
    }

    #[test]
    fn reuses_recycled_allocations() {
        let mut pool = PacketPool::new();
        let a = pool.boxed(pkt(0));
        let addr = std::ptr::addr_of!(*a) as usize;
        pool.recycle(a);
        let b = pool.boxed(pkt(7));
        assert_eq!(std::ptr::addr_of!(*b) as usize, addr, "allocation reused");
        match b.kind {
            crate::packet::PacketKind::Data { seq, .. } => {
                assert_eq!(seq, 7, "contents fully overwritten on reuse");
            }
            _ => panic!("wrong kind"),
        }
        let s = pool.stats();
        assert_eq!((s.fresh, s.reused, s.recycled), (1, 1, 1));
    }

    #[test]
    fn capacity_bound_discards_excess() {
        let mut pool = PacketPool::with_capacity(2);
        let boxes: Vec<_> = (0..4).map(|i| pool.boxed(pkt(i))).collect();
        for b in boxes {
            pool.recycle(b);
        }
        assert_eq!(pool.free_len(), 2);
        let s = pool.stats();
        assert_eq!((s.recycled, s.discarded), (2, 2));
    }

    #[test]
    fn recycled_identity_is_poisoned_until_reuse() {
        // Regression: a retired packet's (id, flow) must not survive on
        // the free list, where a later hook reading a stale box would
        // attribute events to the wrong flow.
        let mut pool = PacketPool::new();
        let mut a = pool.boxed(pkt(0));
        a.id = 42;
        a.flow = FlowId(7);
        pool.recycle(a);
        // While parked, the box carries the poison identity, not flow 7.
        assert_eq!(pool.free[0].id, PacketPool::POISON_ID);
        assert_eq!(pool.free[0].flow, FlowId(PacketPool::POISON_ID));
        // Reuse hands out the *new* packet's identity, fully fresh.
        let mut b = pool.boxed(pkt(3));
        b.id = 99;
        assert_eq!(b.flow, FlowId(1));
        assert_eq!(b.id, 99);
    }

    #[test]
    fn dropped_enqueue_recycle_does_not_leak_flow_id() {
        // The Enqueue::Dropped path hands the rejected box back for
        // recycling; the next allocation must carry only the fresh
        // packet's flow id.
        let mut port = crate::port::Port::new(
            crate::topology::LinkCfg::new(10_000_000_000, hermes_sim::Time::from_us(1)),
            1_000_000,
            100, // buffer smaller than one packet: every enqueue drops
        );
        let mut pool = PacketPool::new();
        let mut doomed = pool.boxed(pkt(5));
        doomed.flow = FlowId(1234);
        match port.enqueue(doomed) {
            crate::port::Enqueue::Dropped(b) => pool.recycle(b),
            crate::port::Enqueue::Queued => panic!("expected tail drop"),
        }
        let reused = pool.boxed(Packet::data(
            FlowId(2),
            HostId(0),
            HostId(1),
            0,
            1460,
            false,
        ));
        assert_eq!(reused.flow, FlowId(2), "stale flow id leaked through reuse");
        assert_ne!(reused.flow, FlowId(1234));
    }

    #[test]
    fn empty_pool_allocates_fresh() {
        let mut pool = PacketPool::new();
        assert_eq!(pool.free_len(), 0);
        let _a = pool.boxed(pkt(0));
        let _b = pool.boxed(pkt(1));
        assert_eq!(pool.stats().fresh, 2);
        assert_eq!(pool.stats().reused, 0);
    }

    /// Regression: the full identity-bearing surface is scrubbed while a
    /// box is parked, not just (id, flow) — path tags, ECN bits, sizes
    /// and timestamps must be unreadable between recycle and reuse.
    #[test]
    fn recycle_poisons_the_full_identity_surface() {
        let mut pool = PacketPool::new();
        let mut a = pool.boxed(pkt(9));
        a.id = 42;
        a.flow = FlowId(7);
        a.path = crate::types::PathId(3);
        a.ecn_capable = true;
        a.ecn_marked = true;
        a.prio = Priority::High;
        a.sent_at = hermes_sim::Time::from_us(123);
        a.meta.lb_tag = 5;
        a.meta.fb_valid = true;
        pool.recycle(a);
        let parked = &pool.free[0];
        assert_eq!(parked.id, PacketPool::POISON_ID);
        assert_eq!(parked.flow, FlowId(PacketPool::POISON_ID));
        assert_eq!(parked.src, HostId(u32::MAX));
        assert_eq!(parked.dst, HostId(u32::MAX));
        assert_eq!(parked.size, 0);
        assert!(matches!(parked.kind, crate::packet::PacketKind::Udp));
        assert!(!parked.ecn_capable && !parked.ecn_marked);
        assert_eq!(parked.path, crate::types::PathId::UNSET);
        assert_eq!(parked.prio, Priority::Low);
        assert_eq!(parked.sent_at, hermes_sim::Time::MAX);
        assert_eq!(parked.meta.lb_tag, crate::packet::LbMeta::default().lb_tag);
        assert!(!parked.meta.fb_valid);
    }

    /// Burst-then-idle: a drained burst's free-list high-water mark is
    /// released geometrically by the epoch trim instead of pinned for
    /// the rest of the run.
    #[test]
    fn sustained_underuse_trims_the_free_list() {
        let mut pool = PacketPool::new();
        // Burst: 10k boxes out, all recycled.
        let burst: Vec<_> = (0..10_000).map(|i| pool.boxed(pkt(i))).collect();
        for b in burst {
            pool.recycle(b);
        }
        // A few epoch boundaries already passed while the burst drained
        // back, so some early trimming may have happened; the bulk of
        // the surplus is still parked.
        assert!(pool.free_len() > 4_000, "burst did not park its boxes");
        // Idle phase: single-packet churn for several epochs. The free
        // list's low-water mark stays high, so each epoch frees half.
        for i in 0..(6 * PacketPool::TRIM_PERIOD as u64) {
            let b = pool.boxed(pkt(i));
            pool.recycle(b);
        }
        assert!(
            pool.free_len() < 1_000,
            "free list still holds {} boxes after sustained underuse",
            pool.free_len()
        );
        assert!(
            pool.stats().trimmed > 9_000,
            "trim stat should record the released surplus, got {}",
            pool.stats().trimmed
        );
        // The churn itself kept being served from the pool.
        assert_eq!(pool.stats().fresh, 10_000);
    }

    /// An active pool (free list regularly near-empty) must NOT trim:
    /// the low-water mark is what protects working capacity.
    #[test]
    fn active_pool_is_not_trimmed() {
        let mut pool = PacketPool::new();
        let outstanding: Vec<_> = (0..64).map(|i| pool.boxed(pkt(i))).collect();
        for b in outstanding {
            pool.recycle(b);
        }
        // Every epoch drains the list completely at least once.
        for round in 0..(3 * PacketPool::TRIM_PERIOD as u64 / 64) {
            let out: Vec<_> = (0..64).map(|i| pool.boxed(pkt(round * 64 + i))).collect();
            assert_eq!(pool.free_len(), 0, "all 64 boxes in flight");
            for b in out {
                pool.recycle(b);
            }
        }
        assert_eq!(pool.stats().trimmed, 0, "working capacity was trimmed");
        assert_eq!(pool.free_len(), 64);
    }
}
