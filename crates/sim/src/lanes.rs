//! Event scheduler: FIFO lanes for recurring delays in front of a binary
//! heap.
//!
//! A drop-in replacement for the plain binary-heap
//! [`HeapQueue`](crate::HeapQueue) honoring the identical `(time, seq)`
//! total-order contract: pops are nondecreasing in time, and events
//! scheduled for the same instant fire in scheduling order. Same (config,
//! seed) runs therefore produce byte-identical event traces under either
//! queue — the differential property tests in `tests/proptests.rs` drive
//! both against each other.
//!
//! # Lanes
//!
//! A simulator schedules almost everything at a handful of constant
//! delays — link propagation, the serialization time of a full segment
//! and of an ACK, the RTO floor. Entries scheduled with one delay `d` are
//! already in `(at, seq)` order: `at = now + d` never decreases because
//! `now` never does, and `seq` always increases. So [`LANES`] plain FIFOs
//! sit in front of the heap, each keyed by one delay: `schedule` computes
//! `d = at − now` and, on a key match, the schedule is a `push_back`. The
//! queue's minimum is the smaller of the earliest lane head (the heads are
//! cached as packed `(at, seq)` keys with their argmin, refreshed after
//! each lane pop) and the heap's top; both are compared as packed keys,
//! so an equal-`at` tie between them is broken by seq.
//!
//! Admission keeps one-off delays out: a delay that misses every lane
//! takes one only if it is already among the last [`LANES`] misses (a
//! doorkeeper ring) *and* some lane is empty — the least recently used
//! empty lane is re-keyed to it. Everything else goes to the heap, the
//! fallback for delays that do not recur (flow arrivals set up at time
//! zero, fault-plan events, arbitrary timers). A lane is re-keyed only
//! while empty, so no entry ever moves between a lane and the heap.
//!
//! # Memory
//!
//! Each lane owns one ring buffer, allocated by its first push; the heap
//! owns one vector. Both grow in exact ~1.25× steps rather than doubling
//! (capacity slack is what peak RSS pays for). The pop that empties a
//! lane trims it to [`KEEP_CAP`] entries, and a pop that leaves a heap of
//! more than [`KEEP_CAP`] capacity less than a quarter full shrinks it to
//! twice its length, so a burst does not pin its high-water allocation.
//! [`LaneQueue::retained_bytes`] counts both.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::Time;

/// Capacity ceiling a lane keeps across drains; the heap is trimmed
/// only above it.
const KEEP_CAP: usize = 1024;

/// FIFO lanes in front of the heap. Every pop selects among all lane
/// heads, so more lanes cost every event; eight cover the simulator's
/// recurring delays with room to spare.
const LANES: usize = 8;

/// Packed `(at, seq)` of an empty lane's head: above every real entry's,
/// because no entry carries seq `u64::MAX`.
const NO_HEAD: u128 = u128::MAX;

/// Entries to add to a full buffer holding `len`: exact ~1.25× steps
/// instead of the std collections' doubling.
#[inline]
fn growth(len: usize) -> usize {
    (len / 4).max(32)
}

/// A scheduled event: absolute due time plus the global schedule sequence
/// number that breaks same-instant ties FIFO.
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// `(at, seq)` packed so one integer comparison orders two entries.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_ns()) << 64) | u128::from(self.seq)
    }
}

// The heap orders entries by key, reversed: `BinaryHeap` is a max-heap.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

/// The due time of a packed `(at, seq)` key.
#[inline]
fn key_time(key: u128) -> Time {
    Time::from_ns((key >> 64) as u64)
}

/// A FIFO of entries all scheduled `delay` after the `now` of their
/// schedule, hence in `(at, seq)` order by construction.
struct Lane<E> {
    /// Packed `(at, seq)` of the front entry; [`NO_HEAD`] while empty.
    head: u128,
    /// The delay (ns) this lane serves; re-keyed only while it is empty.
    delay: u64,
    /// Seq of the latest push: the least recently used empty lane is the
    /// one a newly admitted delay takes.
    used: u64,
    entries: VecDeque<Entry<E>>,
}

impl<E> Lane<E> {
    /// An empty lane keyed to `u64::MAX` — a delay only a schedule at
    /// `Time::MAX` made at time zero has.
    fn new() -> Lane<E> {
        Lane {
            head: NO_HEAD,
            delay: u64::MAX,
            used: 0,
            entries: VecDeque::new(),
        }
    }
}

/// A deterministic future-event list: FIFO lanes for recurring delays in
/// front of a binary heap.
///
/// Semantics match [`HeapQueue`](crate::HeapQueue) exactly:
///
/// * Pops in nondecreasing time order.
/// * Ties broken by scheduling order (FIFO among same-instant events).
/// * Tracks `now`, the time of the most recently popped event, and
///   rejects scheduling into the past (debug assertion; release clamps
///   and counts the clamp — see [`LaneQueue::clamp_count`]).
pub struct LaneQueue<E> {
    /// One FIFO per recurring delay.
    lanes: [Lane<E>; LANES],
    /// The smallest lane head (packed `(at, seq)`, [`NO_HEAD`] when every
    /// lane is empty) and the index of its lane.
    lane_min: u128,
    best: usize,
    /// Delays of the most recent lane misses, newest first: a delay
    /// found here on its next miss is recurring and may take a lane.
    doorkeeper: [u64; LANES],
    /// Every entry no lane took.
    heap: BinaryHeap<Entry<E>>,
    /// Time of the most recently popped event.
    now: Time,
    seq: u64,
    len: usize,
    /// Schedules that went to the heap instead of a lane.
    fallback: u64,
    /// Past-time schedules clamped to `now` (release builds). Nonzero
    /// means a caller violated causality — surfaced through
    /// `hermes-runtime::selfcheck` so the bug cannot vanish silently.
    clamped: u64,
}

impl<E> Default for LaneQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> LaneQueue<E> {
    /// An empty queue with `now == Time::ZERO`.
    pub fn new() -> Self {
        LaneQueue {
            lanes: std::array::from_fn(|_| Lane::new()),
            lane_min: NO_HEAD,
            best: 0,
            doorkeeper: [u64::MAX; LANES],
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            len: 0,
            fallback: 0,
            clamped: 0,
        }
    }

    /// The time of the most recently popped event (simulated "now").
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `payload` to fire at absolute time `at`.
    ///
    /// Scheduling strictly before `now` is a logic error in the caller
    /// (events cannot fire in the past); debug builds assert, release
    /// builds clamp to `now` to stay safe — and count the clamp so the
    /// causality violation stays visible (see [`Self::clamp_count`]).
    pub fn schedule(&mut self, at: Time, payload: E) {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at} < {}",
            self.now
        );
        if at < self.now {
            self.clamped += 1;
        }
        let at = at.max(self.now);
        let e = Entry {
            at,
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.len += 1;
        let delay = at.as_ns() - self.now.as_ns();
        if let Some(i) = self.lane_for(delay) {
            let key = e.key();
            // ANALYZER: allow(panic-surface, lane_for() returns a position in self.lanes)
            let lane = &mut self.lanes[i];
            if lane.head == NO_HEAD {
                lane.head = key;
                if key < self.lane_min {
                    (self.lane_min, self.best) = (key, i);
                }
            }
            lane.used = e.seq;
            if lane.entries.len() == lane.entries.capacity() {
                lane.entries.reserve_exact(growth(lane.entries.len()));
            }
            lane.entries.push_back(e);
            return;
        }
        self.fallback += 1;
        if self.heap.len() == self.heap.capacity() {
            self.heap.reserve_exact(growth(self.heap.len()));
        }
        self.heap.push(e);
    }

    /// Schedule `payload` to fire `delay` after `now`.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_due(Time::MAX)
    }

    /// Pop the earliest event if it is due at or before `horizon`;
    /// otherwise leave the queue (and `now`) untouched.
    pub fn pop_due(&mut self, horizon: Time) -> Option<(Time, E)> {
        let top = self.heap.peek().map_or(NO_HEAD, Entry::key);
        let min = top.min(self.lane_min);
        if min == NO_HEAD || key_time(min) > horizon {
            return None;
        }
        let e = if top < self.lane_min {
            self.pop_heap()
        } else {
            self.pop_lane()
        }?;
        self.len -= 1;
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Pop the heap's top, shrinking a mostly empty buffer.
    fn pop_heap(&mut self) -> Option<Entry<E>> {
        let e = self.heap.pop()?;
        let (len, cap) = (self.heap.len(), self.heap.capacity());
        if cap > KEEP_CAP && len < cap / 4 {
            self.heap.shrink_to(len * 2);
        }
        Some(e)
    }

    /// Pop the earliest lane head and refresh the cached argmin.
    fn pop_lane(&mut self) -> Option<Entry<E>> {
        let lane = self.lanes.get_mut(self.best)?;
        let e = lane.entries.pop_front()?;
        lane.head = lane.entries.front().map_or(NO_HEAD, Entry::key);
        if lane.entries.is_empty() && lane.entries.capacity() > KEEP_CAP {
            // Trim the burst high-water mark while the ring is empty (the
            // only time shrinking copies nothing).
            lane.entries.shrink_to(KEEP_CAP);
        }
        let argmin = |(b, min), (i, l): (usize, &Lane<E>)| {
            if l.head < min {
                (i, l.head)
            } else {
                (b, min)
            }
        };
        (self.best, self.lane_min) = self.lanes.iter().enumerate().fold((0, NO_HEAD), argmin);
        Some(e)
    }

    /// The lane serving `delay`, if any: a key match, else — for a delay
    /// the doorkeeper saw among the last [`LANES`] misses — the least
    /// recently used empty lane, re-keyed. `None` sends the schedule to
    /// the heap.
    #[inline]
    fn lane_for(&mut self, delay: u64) -> Option<usize> {
        self.lanes
            .iter()
            .position(|l| l.delay == delay)
            .or_else(|| self.admit(delay))
    }

    /// The miss path of [`Self::lane_for`].
    #[cold]
    fn admit(&mut self, delay: u64) -> Option<usize> {
        let recurring = self.doorkeeper.contains(&delay);
        self.doorkeeper.rotate_right(1);
        self.doorkeeper[0] = delay;
        if !recurring {
            return None;
        }
        let (i, lane) = self
            .lanes
            .iter_mut()
            .enumerate()
            .filter(|(_, l)| l.head == NO_HEAD)
            .min_by_key(|(_, l)| l.used)?;
        lane.delay = delay;
        Some(i)
    }

    /// Advance `now` to `t` without popping anything.
    ///
    /// Contract: `t >= now`, and no pending event may be due strictly
    /// before `t` (events due exactly at `t` are fine — they pop next).
    /// This is the primitive behind packet-train batching: the caller
    /// has proven the instant `t` is the next thing to happen and
    /// processes it without a scheduler round-trip.
    pub fn advance_to(&mut self, t: Time) {
        debug_assert!(
            t >= self.now,
            "advance_to went backwards: {t} < {}",
            self.now
        );
        debug_assert!(
            self.peek_time().is_none_or(|p| p >= t),
            "advance_to must not pass pending events"
        );
        self.now = t;
    }

    /// Timestamp of the next event without popping it: the earlier of the
    /// smallest lane head and the heap's top.
    pub fn peek_time(&self) -> Option<Time> {
        let top = self.heap.peek().map_or(NO_HEAD, Entry::key);
        let min = top.min(self.lane_min);
        (min != NO_HEAD).then(|| key_time(min))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (monotone counter).
    pub fn scheduled_count(&self) -> u64 {
        self.seq
    }

    /// Past-time schedules that release builds clamped to `now`.
    /// Always 0 in a causality-respecting run; debug builds assert
    /// instead of counting.
    pub fn clamp_count(&self) -> u64 {
        self.clamped
    }

    /// Schedules that went to the heap rather than a lane (monotone
    /// counter). Only delays that do not recur belong there; a share of
    /// [`Self::scheduled_count`] that grows means the lanes stopped
    /// carrying the run.
    pub fn fallback_count(&self) -> u64 {
        self.fallback
    }

    /// Approximate retained heap footprint of the queue's own buffers in
    /// bytes (lane rings and the heap's vector); used by the memory
    /// regression tests, not by the hot path.
    pub fn retained_bytes(&self) -> usize {
        let rings: usize = self.lanes.iter().map(|l| l.entries.capacity()).sum();
        (rings + self.heap.capacity()) * std::mem::size_of::<Entry<E>>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Due time of the pins [`all_lanes_pinned`] plants: later than
    /// anything a test schedules.
    const PIN: u64 = 1 << 40;

    /// A queue whose lanes all hold a far-future entry, so a lane can be
    /// neither hit nor re-keyed and every schedule a test makes reaches
    /// the heap. Each pin's first sighting also sits in the heap.
    fn all_lanes_pinned<E>(pin: impl Fn() -> E) -> LaneQueue<E> {
        let mut q = LaneQueue::new();
        for k in 0..LANES as u64 {
            q.schedule(Time::from_ns(PIN + k), pin());
            q.schedule(Time::from_ns(PIN + k), pin());
        }
        assert!(q.lanes.iter().all(|l| l.head != NO_HEAD));
        assert_eq!(q.fallback_count(), LANES as u64);
        q
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = LaneQueue::new();
        q.schedule(Time::from_us(3), 3u32);
        q.schedule(Time::from_us(1), 1);
        q.schedule(Time::from_us(2), 2);
        assert_eq!(q.pop().unwrap(), (Time::from_us(1), 1));
        assert_eq!(q.pop().unwrap(), (Time::from_us(2), 2));
        assert_eq!(q.pop().unwrap(), (Time::from_us(3), 3));
        assert!(q.pop().is_none());
    }

    /// The first schedule at a delay goes to the heap and the other 99
    /// to a lane: the same-instant tie between the two is broken by seq.
    #[test]
    fn ties_break_fifo() {
        let mut q = LaneQueue::new();
        for i in 0..100u32 {
            q.schedule(Time::from_us(7), i);
        }
        assert_eq!(q.fallback_count(), 1);
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    /// With every lane busy, same-instant entries all land in the heap
    /// and still pop in scheduling order.
    #[test]
    fn heap_ties_break_fifo() {
        let mut q = all_lanes_pinned(|| u32::MAX);
        for i in 0..50u32 {
            q.schedule(Time::from_ns(100), i);
        }
        assert_eq!(q.fallback_count(), LANES as u64 + 50);
        for i in 0..50u32 {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(100), i));
        }
        assert_eq!(q.peek_time(), Some(Time::from_ns(PIN)));
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = LaneQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time::from_us(10), ());
        q.pop();
        assert_eq!(q.now(), Time::from_us(10));
        q.schedule_in(Time::from_us(5), ());
        assert_eq!(q.peek_time(), Some(Time::from_us(15)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = LaneQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::from_us(1), ());
        q.schedule(Time::from_us(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_count(), 2);
    }

    /// `advance_to` only moves `now`: pending events stay poppable in
    /// order, and later schedules are relative to the new `now`.
    #[test]
    fn advance_to_keeps_pending_events_in_order() {
        let mut q = LaneQueue::new();
        for at in [130u64, 140, 150, 200] {
            q.schedule(Time::from_ns(at), at);
        }
        assert_eq!(q.pop().unwrap().1, 130);
        q.advance_to(Time::from_ns(140));
        assert_eq!((q.now(), q.len()), (Time::from_ns(140), 3));
        q.schedule_in(Time::from_ns(5), 145);
        q.schedule_in(Time::ZERO, 141);
        for want in [140u64, 141, 145, 150, 200] {
            assert_eq!(q.pop().unwrap().1, want);
        }
        assert!(q.pop().is_none());
        // Advancing an empty queue is also legal (pure cursor move).
        q.advance_to(Time::from_us(25));
        assert_eq!(q.now(), Time::from_us(25));
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_stops_at_the_horizon_without_moving_now() {
        let mut q = LaneQueue::new();
        q.schedule(Time::from_ns(10), "near");
        q.schedule(Time::from_us(5), "far");
        assert_eq!(q.pop_due(Time::from_ns(9)), None);
        assert_eq!(q.pop_due(Time::from_ns(10)).unwrap().1, "near");
        assert_eq!(q.pop_due(Time::from_us(4)), None);
        assert_eq!((q.now(), q.len()), (Time::from_ns(10), 1));
        assert_eq!(q.pop_due(Time::from_us(5)).unwrap().1, "far");
        assert_eq!(q.pop_due(Time::MAX), None);
    }

    /// Two schedules 5 µs out tie across the heap (the delay's first
    /// sighting) and a lane (its second). A `pop_due` below the tie must
    /// leave `now` where it is.
    #[test]
    fn pop_due_below_a_lane_heap_tie_leaves_now_untouched() {
        let mut q = LaneQueue::new();
        q.schedule_in(Time::from_us(5), "heap");
        q.schedule_in(Time::from_us(5), "lane");
        assert_eq!(q.fallback_count(), 1);
        assert_eq!(q.pop_due(Time::from_ns(100)), None);
        assert_eq!((q.now(), q.len()), (Time::ZERO, 2));
        q.schedule_in(Time::from_ns(100), "early");
        assert_eq!(q.pop_due(Time::from_ns(100)).unwrap().1, "early");
        for want in ["heap", "lane"] {
            assert_eq!(
                q.pop_due(Time::from_us(5)).unwrap(),
                (Time::from_us(5), want)
            );
        }
        assert_eq!(q.pop_due(Time::MAX), None);
    }

    /// Admission: a delay seen once stays in the heap; seen again among
    /// the last `LANES` misses it takes a lane, and every later schedule
    /// at it skips the heap. A delay whose sighting has left the
    /// doorkeeper ring counts as new.
    #[test]
    fn one_off_delays_never_hold_a_lane_but_recurring_ones_do() {
        let mut q = LaneQueue::new();
        for d in 1..=20u64 {
            q.schedule_in(Time::from_ns(1_000 * d), d);
        }
        assert_eq!(q.fallback_count(), 20);
        assert!(q.lanes.iter().all(|l| l.head == NO_HEAD));
        for i in 0..5 {
            q.schedule_in(Time::from_ns(1_200), 100 + i);
        }
        assert_eq!(q.fallback_count(), 21, "only the first 1 200-ns schedule");
        assert_eq!(q.lanes.iter().filter(|l| l.head != NO_HEAD).count(), 1);
        // 1 000 ns was last seen nine misses ago: out of the ring.
        q.schedule_in(Time::from_ns(1_000), 1);
        assert_eq!(q.fallback_count(), 22);
        assert_eq!(q.lanes.iter().filter(|l| l.head != NO_HEAD).count(), 1);
        let mut last = Time::ZERO;
        for _ in 0..26 {
            let (t, _) = q.pop().unwrap();
            assert!(t >= last);
            last = t;
        }
        assert!(q.is_empty());
    }

    /// With every lane busy a recurring delay falls back to the heap; a
    /// lane is re-keyed only once empty, and then the least recently
    /// used empty one.
    #[test]
    fn recurring_delays_rekey_the_least_recently_used_empty_lane() {
        let lane_of = |q: &LaneQueue<u64>, d: u64| q.lanes.iter().position(|l| l.delay == d);
        let mut q = LaneQueue::new();
        for d in (1..=LANES as u64).map(|k| 100 * k) {
            q.schedule_in(Time::from_ns(d), d);
            q.schedule_in(Time::from_ns(d), d);
        }
        assert_eq!(lane_of(&q, 100), Some(0));
        assert_eq!(lane_of(&q, 300), Some(2));
        q.schedule_in(Time::from_ns(900), 900);
        q.schedule_in(Time::from_ns(900), 900);
        assert_eq!(lane_of(&q, 900), None, "no empty lane to take");
        assert_eq!(q.fallback_count(), LANES as u64 + 2);
        // Empty the 100-, 200- and 300-ns lanes (and their heap twins).
        for want in [100, 100, 200, 200, 300, 300] {
            assert_eq!(q.pop().unwrap().1, want);
        }
        // 900 ns is still in the doorkeeper ring: it takes the emptied
        // lane pushed to longest ago, the 100-ns one.
        q.schedule_in(Time::from_ns(900), 1_200);
        assert_eq!(lane_of(&q, 900), Some(0));
        assert_eq!(lane_of(&q, 100), None);
        assert_eq!(q.fallback_count(), LANES as u64 + 2);
        // The 200-ns lane is next in line.
        q.schedule_in(Time::from_ns(5), 305);
        q.schedule_in(Time::from_ns(5), 305);
        assert_eq!(lane_of(&q, 5), Some(1));
        let mut last = Time::ZERO;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
        }
    }

    /// Equal `at` in two lanes (and the heap) pops by seq: lane A (50 ns,
    /// the lower index) and lane B (100 ns) both hold an entry due at
    /// 100 ns, A's scheduled later, when a pop from lane C (20 ns)
    /// refreshes the argmin over the heads.
    #[test]
    fn equal_at_across_two_lanes_pops_by_seq() {
        let mut q = LaneQueue::new();
        for (d, lane) in [(50, "laneA@50"), (100, "laneB@100"), (20, "laneC@20")] {
            q.schedule_in(Time::from_ns(d), "heap");
            q.schedule_in(Time::from_ns(d), lane);
        }
        for want in [
            (20, "heap"),
            (20, "laneC@20"),
            (50, "heap"),
            (50, "laneA@50"),
        ] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(want.0), want.1));
        }
        q.schedule_in(Time::from_ns(50), "laneA@100");
        q.schedule_in(Time::from_ns(20), "laneC@70");
        assert_eq!(q.fallback_count(), 3);
        for want in [
            (70, "laneC@70"),
            (100, "heap"),
            (100, "laneB@100"),
            (100, "laneA@100"),
        ] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(want.0), want.1));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn max_time_is_representable() {
        let mut q = LaneQueue::new();
        q.schedule(Time::MAX, "sentinel");
        q.schedule(Time::from_ns(5), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap(), (Time::MAX, "sentinel"));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_matches_heap() {
        // Cheap deterministic LCG-driven differential run against the
        // reference heap; the heavier randomized version lives in
        // tests/proptests.rs.
        let mut lanes = LaneQueue::new();
        let mut heap = crate::HeapQueue::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..2000u32 {
            let delay = Time::from_ns(next() % 10_000);
            lanes.schedule_in(delay, round);
            heap.schedule_in(delay, round);
            if next() % 3 == 0 {
                assert_eq!(lanes.pop(), heap.pop());
                assert_eq!(lanes.now(), heap.now());
            }
            assert_eq!(lanes.peek_time(), heap.peek_time());
            assert_eq!(lanes.len(), heap.len());
        }
        loop {
            let (l, h) = (lanes.pop(), heap.pop());
            assert_eq!(l, h);
            if l.is_none() {
                break;
            }
        }
    }

    /// Trim-on-drain: a one-off burst must not pin its high-water
    /// allocation. The pops that drain it leave the retained buffers
    /// back under the lane and heap ceilings — whether the burst sat in
    /// the heap (distinct times, so no delay recurs) or filled a lane.
    #[test]
    fn burst_buffers_are_trimmed_after_drain() {
        /// Where the burst lands, the due time of schedule `i`, and how
        /// many schedules reach the heap.
        type Burst = (&'static str, fn(u64) -> u64, u64);
        let n = 50_000u64;
        let cases: [Burst; 2] = [("the heap", |i| (1 << 20) + i, n), ("a lane", |_| 10, 1)];
        for (place, at, fallback) in cases {
            let mut q = LaneQueue::new();
            for i in 0..n {
                q.schedule(Time::from_ns(at(i)), i);
            }
            assert_eq!(q.fallback_count(), fallback, "{place}");
            let peak = q.retained_bytes();
            for _ in 0..n {
                q.pop().unwrap();
            }
            let after = q.retained_bytes();
            assert!(
                peak > 1_000_000,
                "a burst in {place} should have grown a large buffer ({peak} B)"
            );
            assert!(
                after < 300_000,
                "drained queue retains {after} B after a burst in {place} — trim-on-drain failed"
            );
            assert!(q.is_empty());
        }
    }

    /// A fresh queue owns no buffers; one schedule allocates one small
    /// heap buffer, not a doubling-sized one.
    #[test]
    fn buffers_are_allocated_lazily() {
        let q: LaneQueue<u32> = LaneQueue::new();
        assert_eq!(
            q.retained_bytes(),
            0,
            "a fresh queue must own no heap buffers"
        );
        let mut q = LaneQueue::new();
        q.schedule(Time::from_ns(100), 1u32);
        assert_eq!(q.retained_bytes(), 32 * std::mem::size_of::<Entry<u32>>());
    }

    #[test]
    fn clamp_count_is_zero_for_causal_schedules() {
        let mut q = LaneQueue::new();
        q.schedule(Time::from_us(1), ());
        q.pop();
        q.schedule_in(Time::from_us(1), ());
        assert_eq!(q.clamp_count(), 0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_clamps_past_scheduling() {
        let mut q = LaneQueue::new();
        q.schedule(Time::from_us(10), 1u32);
        q.pop();
        q.schedule(Time::from_us(1), 2); // in the past: clamped to now
        assert_eq!(q.clamp_count(), 1, "the clamp must be visible in a stat");
        assert_eq!(q.pop().unwrap(), (Time::from_us(10), 2));
    }

    /// A clamped schedule is due now with the largest seq: it lands
    /// behind the entries already due now and ahead of later ones —
    /// whether it reaches the heap (the 0-ns delay's first sighting) or
    /// a lane (its second).
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_clamped_schedule_queues_behind_due_now_entries() {
        let mut q = LaneQueue::new();
        // The first 640-ns schedule reaches the heap, the next two a lane.
        for (at, name) in [
            (640, "popped"),
            (640, "due-now"),
            (640, "due-now-2"),
            (650, "later"),
        ] {
            q.schedule(Time::from_ns(at), name);
        }
        q.pop();
        q.schedule(Time::from_ns(3), "clamped-heap");
        q.schedule(Time::from_ns(3), "clamped-lane");
        assert_eq!((q.clamp_count(), q.fallback_count()), (2, 3));
        for want in [
            (640, "due-now"),
            (640, "due-now-2"),
            (640, "clamped-heap"),
            (640, "clamped-lane"),
            (650, "later"),
        ] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(want.0), want.1));
        }
    }
}
