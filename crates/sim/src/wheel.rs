//! Hierarchical timing-wheel event scheduler.
//!
//! A drop-in replacement for the binary-heap [`HeapQueue`](crate::HeapQueue)
//! honoring the identical `(time, seq)` total-order contract: pops are
//! nondecreasing in time, and events scheduled for the same instant fire
//! in scheduling order. Same (config, seed) runs therefore produce
//! byte-identical event traces under either scheduler — the differential
//! property tests in `tests/proptests.rs` drive both against each other.
//!
//! # Structure
//!
//! The unit of draining is the *window*: the [`SLOTS`] nanoseconds that
//! share `now >> BITS` with the cursor. Every pending event of the window
//! lives in `ready`, a run sorted by `(at, seq)`, and `pop` is a
//! `pop_front` until the run is empty. Later events are covered by
//! [`LEVELS`] wheels of [`SLOTS`] slots each; level `l` slots are
//! `2^(6·l)` ns wide, so a level-1 slot is exactly one window. An event
//! due at `at` outside the window lives at
//!
//! ```text
//! level = msb(at ^ now) / 6          (highest base-64 digit that differs; ≥ 1)
//! slot  = (at >> (6 · level)) & 63   (the time's digit at that level)
//! ```
//!
//! Two consequences of this placement drive the whole design:
//!
//! * **No intra-level wraparound.** At its own level an event's slot digit
//!   is strictly greater than the cursor's digit (a smaller digit would
//!   mean `at < now`), so the first occupied slot of a level — a single
//!   `trailing_zeros` on the occupancy bitmap — holds the level's minimum.
//! * **Levels are time-ordered.** Every level-`l+1` event is strictly
//!   later than every level-`l` event and all are later than the window,
//!   so the global minimum is the front of `ready`, else the first
//!   occupied slot of the lowest occupied level: `peek_time` is
//!   O(levels) with no mutation and no cached state to invalidate.
//!
//! A schedule into the window is a sorted insert into `ready` — a fresh
//! schedule has the largest seq, so it goes behind every entry with
//! `at <=` its own: a `push_back` in the common case. Only when the run
//! is empty does `pop` jump the cursor to the next event's timestamp and
//! *cascade* (see `WheelQueue::move_cursor`): the one bucket the jump
//! strands is re-homed, the new window lands in `ready`, and one sort by
//! `(at, seq)` restores the order. The jump skips empty slots, so sparse
//! far-future schedules (RTO timers, fault injections) cost O(levels),
//! not O(elapsed ticks), and a dense schedule pays it once per window,
//! not once per event.
//!
//! # Memory model (DESIGN.md §16)
//!
//! * **Lazy levels.** A level's 64-bucket array (≈ 2 KB) is boxed on
//!   first use; short-horizon simulations never materialize the high ones.
//! * **Pooled buckets, trim-on-drain.** A bucket is a `Vec` that owns no
//!   buffer while empty. Its first entry takes one from a bounded pool
//!   ([`SPILL_POOL_MAX`] buffers of at most [`SPILL_KEEP_CAP`] entries),
//!   it grows in exact ~1.25× steps, and draining it returns the buffer
//!   to the pool or — oversized or surplus — frees it, so a burst that
//!   piles thousands of events into one slot does not pin its high-water
//!   allocation (the regression that put the PR-4 wheel at 144 MB peak
//!   RSS vs the heap's 19 MB). The level-1 bucket that becomes the window
//!   hands its buffer to the `ready` ring, which is trimmed to
//!   [`READY_KEEP_CAP`] by the pop that empties it.

use std::collections::VecDeque;

use crate::Time;

/// log2 of the slot count per level — and of the window width in ns.
const BITS: u32 = 6;
/// Slots per wheel level; also the width of the `ready` window in ns.
const SLOTS: usize = 1 << BITS;
/// Wheel levels above the window (levels 1..=10); with the window's own
/// six bits, 11 × 6 = 66 bits covers the full `u64` nanosecond domain.
const LEVELS: usize = 10;

/// Bucket buffers with more capacity than this are freed on drain
/// instead of pooled, so one burst cannot pin a huge dead allocation.
const SPILL_KEEP_CAP: usize = 512;

/// Bound on the number of pooled bucket buffers. Generous reuse keeps
/// the cascade from churning the allocator (churn fragments the arena,
/// which shows up directly in peak RSS); the worst-case pooled bytes
/// (64 × 512 entries) stay comfortably bounded.
const SPILL_POOL_MAX: usize = 64;

/// Capacity ceiling retained by the `ready` ring across drains.
const READY_KEEP_CAP: usize = 1024;

/// A scheduled event: absolute due time plus the global schedule sequence
/// number that breaks same-instant ties FIFO.
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

/// One wheel slot: unordered entries, in a buffer from the queue's spill
/// pool while the slot is occupied. Only ever drained whole.
type Bucket<E> = Vec<Entry<E>>;

/// One lazily-allocated wheel level: occupancy bitmap, per-slot minima,
/// and the 64 buckets.
struct Level<E> {
    /// Bitmap of non-empty slots.
    occupied: u64,
    /// Minimum due time per slot (`Time::MAX` when empty). Exact,
    /// because buckets are only ever drained whole, never partially.
    min: [Time; SLOTS],
    buckets: [Bucket<E>; SLOTS],
}

impl<E> Level<E> {
    fn boxed() -> Box<Level<E>> {
        Box::new(Level {
            occupied: 0,
            min: [Time::MAX; SLOTS],
            buckets: std::array::from_fn(|_| Vec::new()),
        })
    }
}

/// The base-64 digit of `t` that indexes a slot at `level`.
#[inline]
fn digit(t: Time, level: usize) -> usize {
    ((t.as_ns() >> (BITS * level as u32)) & (SLOTS as u64 - 1)) as usize
}

/// The level of the highest digit in which `a` and `b` differ: msb index
/// of the xor / 6, so at most 63 / 6 = [`LEVELS`]; 0 ⇔ same window.
#[inline]
fn level_between(a: Time, b: Time) -> usize {
    ((63 - ((a.as_ns() ^ b.as_ns()) | 1).leading_zeros()) / BITS) as usize
}

/// A deterministic future-event list backed by a hierarchical timing
/// wheel.
///
/// Semantics match [`HeapQueue`](crate::HeapQueue) exactly:
///
/// * Pops in nondecreasing time order.
/// * Ties broken by scheduling order (FIFO among same-instant events).
/// * Tracks `now`, the time of the most recently popped event, and
///   rejects scheduling into the past (debug assertion; release clamps
///   and counts the clamp — see [`WheelQueue::clamp_count`]).
pub struct WheelQueue<E> {
    /// Levels 1..=10, allocated on first use (index = level − 1).
    levels: [Option<Box<Level<E>>>; LEVELS],
    /// Every pending event of the cursor's window, sorted by `(at, seq)`.
    ready: VecDeque<Entry<E>>,
    /// Bounded pool of drained bucket buffers awaiting reuse.
    spill_pool: Vec<Bucket<E>>,
    /// Time of the most recently popped event; also the wheel cursor all
    /// placements are relative to.
    now: Time,
    seq: u64,
    len: usize,
    /// Past-time schedules clamped to `now` (release builds). Nonzero
    /// means a caller violated causality — surfaced through
    /// `hermes-runtime::selfcheck` so the bug cannot vanish silently.
    clamped: u64,
}

impl<E> Default for WheelQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> WheelQueue<E> {
    /// An empty queue with `now == Time::ZERO`.
    pub fn new() -> Self {
        WheelQueue {
            levels: std::array::from_fn(|_| None),
            ready: VecDeque::new(),
            spill_pool: Vec::new(),
            now: Time::ZERO,
            seq: 0,
            len: 0,
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
        if level_between(at, self.now) != 0 {
            self.place(e);
        } else if self.ready.back().is_none_or(|last| last.at <= at) {
            self.ready.push_back(e);
        } else {
            // A fresh schedule carries the largest seq seen so far, so it
            // sorts behind every entry with `at <=` its own.
            let idx = self.ready.partition_point(|p| p.at <= at);
            self.ready.insert(idx, e);
        }
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
        // With the run empty, jump the cursor straight to the next
        // occupied instant, which pulls its whole window into `ready`.
        let next = self.peek_time().filter(|&t| t <= horizon)?;
        if self.ready.is_empty() {
            self.move_cursor(next);
        }
        let e = self.ready.pop_front()?;
        self.len -= 1;
        self.now = e.at;
        if self.ready.is_empty() && self.ready.capacity() > READY_KEEP_CAP {
            // Trim the ring's burst high-water mark while it is empty
            // (the only time shrinking copies nothing).
            self.ready.shrink_to(READY_KEEP_CAP);
        }
        Some((e.at, e.payload))
    }

    /// Advance the cursor to `t` without popping anything.
    ///
    /// Contract: `t >= now`, and no pending event may be due strictly
    /// before `t` (events due exactly at `t` are fine — they pop next).
    /// This is the primitive behind packet-train batching: the caller
    /// has proven the instant `t` is the next thing to happen and
    /// processes it without a scheduler round-trip, so the queue only
    /// needs its notion of "now" moved — inside the window that is all
    /// this does; a later window cascades like a pop's jump.
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
        self.move_cursor(t);
    }

    /// Timestamp of the next event without popping it: the front of the
    /// run, else the first occupied slot of the lowest occupied level.
    pub fn peek_time(&self) -> Option<Time> {
        if let Some(e) = self.ready.front() {
            return Some(e.at);
        }
        let lvl = self.levels.iter().flatten().find(|l| l.occupied != 0)?;
        // ANALYZER: allow(panic-surface, occupied != 0 so trailing_zeros <= 63 < SLOTS)
        Some(lvl.min[lvl.occupied.trailing_zeros() as usize])
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

    /// Approximate retained heap footprint of the queue's own buffers in
    /// bytes (levels, bucket buffers, spill pool, ready ring). O(levels ×
    /// slots); used by the memory regression tests and diagnostics, not
    /// by the hot path.
    pub fn retained_bytes(&self) -> usize {
        let levels = self.levels.iter().flatten();
        let buckets = levels.clone().flat_map(|lvl| &lvl.buckets);
        let entries: usize = buckets.chain(&self.spill_pool).map(Vec::capacity).sum();
        levels.count() * std::mem::size_of::<Level<E>>()
            + (entries + self.ready.capacity()) * std::mem::size_of::<Entry<E>>()
    }

    /// Bucket an entry due outside the cursor's window.
    fn place(&mut self, e: Entry<E>) {
        let level = level_between(e.at, self.now);
        debug_assert!(level != 0, "same-window events belong in `ready`");
        let slot = digit(e.at, level);
        // ANALYZER: allow(panic-surface, callers keep level 0 in `ready` and level_between() <= LEVELS)
        let lvl = self.levels[level - 1].get_or_insert_with(Level::boxed);
        lvl.occupied |= 1 << slot;
        // ANALYZER: allow(panic-surface, digit() masks slot to SLOTS-1)
        if e.at < lvl.min[slot] {
            // ANALYZER: allow(panic-surface, same slot bound as the read above)
            lvl.min[slot] = e.at;
        }
        let bucket = &mut lvl.buckets[slot]; // ANALYZER: allow(panic-surface, same slot bound as min)
        if bucket.capacity() == 0 {
            *bucket = self.spill_pool.pop().unwrap_or_default();
        }
        if bucket.len() == bucket.capacity() {
            // Grow in exact ~1.25× steps instead of Vec's doubling:
            // capacity slack is what the peak-RSS budget pays for,
            // and a crowded bucket at 2× slack across hundreds of
            // buckets was a double-digit-MB overhead on fig12.
            let grow = (bucket.len() / 4).max(32);
            bucket.reserve_exact(grow);
        }
        bucket.push(e);
    }

    /// Move the cursor to `t` (no pending event is earlier) and, if that
    /// leaves the window, *cascade*: re-home the events the move strands
    /// in a slot the cursor now indexes (a "pos slot").
    ///
    /// Let `L` be the level of the highest digit the move changes. Every
    /// bucketed event shares the cursor's digits above its own level and
    /// none is earlier than `t`, so the levels below `L` are empty; pos
    /// slots above `L` were drained when the cursor entered them, and
    /// nothing is ever placed into a pos slot. Exactly one bucket is
    /// stranded — level `L`'s pos slot. At level 1 it spans exactly the
    /// new window and moves into `ready` wholesale; higher up each event
    /// goes to `ready` if it shares the window, else strictly lower in
    /// level. Bucket-internal order never reaches the caller: the run is
    /// sorted by `(at, seq)` at the end (seqs are unique, so the order
    /// is total).
    fn move_cursor(&mut self, t: Time) {
        debug_assert!(t >= self.now, "event queue went backwards");
        let level = level_between(self.now, t);
        self.now = t;
        if level == 0 {
            return;
        }
        debug_assert!(
            (1..=LEVELS).zip(&self.levels).all(|(l, lvl)| l == level
                || lvl
                    .as_deref()
                    .is_none_or(|lvl| lvl.occupied >> digit(t, l) & 1 == 0)),
            "a cursor move strands one bucket, at the level of its highest changed digit"
        );
        let pos = digit(t, level);
        // ANALYZER: allow(panic-surface, level is nonzero here and level_between() <= LEVELS)
        let Some(lvl) = self.levels[level - 1].as_deref_mut() else {
            return;
        };
        if lvl.occupied & (1 << pos) == 0 {
            return;
        }
        lvl.occupied &= !(1 << pos);
        // ANALYZER: allow(panic-surface, digit() masks pos to SLOTS-1)
        lvl.min[pos] = Time::MAX;
        let mut bucket = std::mem::take(&mut lvl.buckets[pos]); // ANALYZER: allow(panic-surface, same pos bound as min)
        if level > 1 {
            // Drain from the tail and shrink geometrically as the
            // buffer empties: a crowded bucket's entries are being
            // copied into fresh lower-level storage, and holding the
            // old buffer at full capacity for the whole redeposit
            // transiently doubles the bucket's footprint — which is
            // exactly what peak-RSS measures.
            while let Some(e) = bucket.pop() {
                if level_between(e.at, t) == 0 {
                    self.ready.push_back(e);
                } else {
                    self.place(e);
                }
                if bucket.len() >= SPILL_KEEP_CAP && bucket.capacity() >= bucket.len() * 2 {
                    bucket.shrink_to(bucket.len());
                }
            }
        } else if self.ready.is_empty() {
            // The bucket's buffer becomes the ring (O(1) both ways).
            bucket = std::mem::replace(&mut self.ready, bucket.into()).into();
        } else {
            // Only reachable if `advance_to` was told to pass pending
            // events; keep them rather than lose them.
            self.ready.extend(bucket.drain(..));
        }
        self.retire_spill(bucket);
        self.ready
            .make_contiguous()
            .sort_unstable_by_key(|e| (e.at, e.seq));
    }

    /// Trim-on-drain: a drained bucket's buffer rotates into the bounded
    /// spill pool; oversized or surplus buffers are freed so burst
    /// high-water allocations are not pinned for the run's rest.
    fn retire_spill(&mut self, spill: Bucket<E>) {
        debug_assert!(spill.is_empty());
        if spill.capacity() > 0
            && spill.capacity() <= SPILL_KEEP_CAP
            && self.spill_pool.len() < SPILL_POOL_MAX
        {
            self.spill_pool.push(spill);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_us(3), 3u32);
        q.schedule(Time::from_us(1), 1);
        q.schedule(Time::from_us(2), 2);
        assert_eq!(q.pop().unwrap(), (Time::from_us(1), 1));
        assert_eq!(q.pop().unwrap(), (Time::from_us(2), 2));
        assert_eq!(q.pop().unwrap(), (Time::from_us(3), 3));
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = WheelQueue::new();
        for i in 0..100u32 {
            q.schedule(Time::from_us(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = WheelQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time::from_us(10), ());
        q.pop();
        assert_eq!(q.now(), Time::from_us(10));
        q.schedule_in(Time::from_us(5), ());
        assert_eq!(q.peek_time(), Some(Time::from_us(15)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = WheelQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::from_us(1), ());
        q.schedule(Time::from_us(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_count(), 2);
    }

    /// Same-instant events that start life in *different places* — a
    /// level-2 bucket, a level-1 bucket after a cursor move, and the
    /// `ready` run itself — must still pop FIFO. This is the
    /// stale-pos-slot cascade path.
    #[test]
    fn equal_times_across_levels_stay_fifo() {
        let mut q = WheelQueue::new();
        // At now=0: both land at level 2, slot 1 (5000 >> 12 == 4100 >> 12).
        q.schedule(Time::from_ns(5000), "a");
        q.schedule(Time::from_ns(4100), "b");
        assert_eq!(q.pop().unwrap(), (Time::from_ns(4100), "b"));
        // The jump to 4100 cascaded "a" down to level 1; "c" joins its
        // bucket at the same instant with a larger seq, and "x" shares
        // their window (4992 >> 6 == 5000 >> 6) with a larger one still.
        q.schedule(Time::from_ns(5000), "c");
        q.schedule(Time::from_ns(4992), "x");
        assert_eq!(q.pop().unwrap(), (Time::from_ns(4992), "x"));
        // The window is in `ready` now; "d" is inserted into the run.
        q.schedule(Time::from_ns(5000), "d");
        for want in ["a", "c", "d"] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(5000), want));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn level_boundaries_cascade_correctly() {
        // Straddle the 64-ns (window / level 1), 4096-ns (level 1/2)
        // and 262144-ns (level 2/3) boundaries in one run.
        let ats = [63u64, 64, 65, 4095, 4096, 4097, 262_143, 262_144, 262_145];
        let mut q = WheelQueue::new();
        for at in ats {
            q.schedule(Time::from_ns(at), at);
        }
        for want in ats {
            let (t, v) = q.pop().unwrap();
            assert_eq!((t, v), (Time::from_ns(want), want));
        }
        assert!(q.pop().is_none());
    }

    /// A schedule into the cursor's window is a sorted insert: behind an
    /// already-pending entry at the same instant, ahead of later ones.
    #[test]
    fn same_window_schedules_insert_in_time_then_fifo_order() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_ns(10), "first@10");
        q.schedule(Time::from_ns(20), "@20");
        q.schedule(Time::from_ns(10), "second@10");
        q.schedule(Time::from_ns(9), "@9");
        assert_eq!(q.peek_time(), Some(Time::from_ns(9)));
        for want in [(9, "@9"), (10, "first@10"), (10, "second@10"), (20, "@20")] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(want.0), want.1));
        }
        assert!(q.pop().is_none());
    }

    /// `advance_to` inside the window only moves `now`; the rest of the
    /// run stays poppable in order and later schedules still sort in.
    #[test]
    fn advance_within_window_keeps_ready_in_order() {
        let mut q = WheelQueue::new();
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
    }

    /// A level-2 bucket and the level-1 bucket that drain into the same
    /// window in one cascade come out `(at, seq)`-ordered, whichever
    /// reached `ready` first.
    #[test]
    fn buckets_from_two_levels_merge_into_one_sorted_window() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_ns(4200), "far-late"); // level 2 from now=0
        q.schedule(Time::from_ns(4170), "far-early");
        q.schedule(Time::from_ns(4097), "step");
        assert_eq!(q.pop().unwrap().1, "step");
        // Relative to 4097 the window of 4200 (4160..4224) is level 1:
        // these two share a bucket with nothing above them...
        q.schedule(Time::from_ns(4200), "near-late");
        q.schedule(Time::from_ns(4165), "near-early");
        // ...while the first two were re-placed into that same bucket
        // by the jump, ahead of them in buffer order but not in time.
        let want = [
            (4165, "near-early"),
            (4170, "far-early"),
            (4200, "far-late"),
            (4200, "near-late"),
        ];
        for (at, name) in want {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(at), name));
        }
        // A level-2 bucket (8300 >> 12 != 4200 >> 12) draining straight
        // into the window it jumps to is sorted the same way.
        q.schedule(Time::from_ns(8300), "late");
        q.schedule(Time::from_ns(8290), "early");
        q.schedule(Time::from_ns(8300), "late-2");
        for (at, name) in [(8290, "early"), (8300, "late"), (8300, "late-2")] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(at), name));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn pop_due_stops_at_the_horizon_without_moving_now() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_ns(10), "in-window");
        q.schedule(Time::from_us(5), "bucketed");
        assert_eq!(q.pop_due(Time::from_ns(9)), None);
        assert_eq!(q.pop_due(Time::from_ns(10)).unwrap().1, "in-window");
        assert_eq!(q.pop_due(Time::from_us(4)), None);
        assert_eq!((q.now(), q.len()), (Time::from_ns(10), 1));
        assert_eq!(q.pop_due(Time::from_us(5)).unwrap().1, "bucketed");
        assert_eq!(q.pop_due(Time::MAX), None);
    }

    #[test]
    fn far_jumps_skip_empty_slots() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_secs(3600), 1u32);
        q.schedule(Time::from_ns(1), 0);
        assert_eq!(q.pop().unwrap().1, 0);
        assert_eq!(q.peek_time(), Some(Time::from_secs(3600)));
        assert_eq!(q.pop().unwrap(), (Time::from_secs(3600), 1));
        assert_eq!(q.now(), Time::from_secs(3600));
    }

    #[test]
    fn max_time_is_representable() {
        let mut q = WheelQueue::new();
        q.schedule(Time::MAX, "sentinel");
        q.schedule(Time::from_ns(5), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        assert_eq!(q.pop().unwrap(), (Time::MAX, "sentinel"));
        assert!(q.is_empty());
    }

    /// A bucket that outgrows its first buffer grows in place and
    /// still pops in exact FIFO order.
    #[test]
    fn crowded_bucket_spills_and_stays_fifo() {
        let mut q = WheelQueue::new();
        // All in one level-1 bucket (same slot digit), more than the
        // 32 entries its first buffer holds.
        for i in 0..50u32 {
            q.schedule(Time::from_ns(100), i);
        }
        for i in 0..50u32 {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(100), i));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn interleaved_schedule_pop_matches_heap() {
        // Cheap deterministic LCG-driven differential run against the
        // heap; the heavier randomized version lives in tests/proptests.rs.
        let mut wheel = WheelQueue::new();
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
            wheel.schedule_in(delay, round);
            heap.schedule_in(delay, round);
            if next() % 3 == 0 {
                assert_eq!(wheel.pop(), heap.pop());
                assert_eq!(wheel.now(), heap.now());
            }
            assert_eq!(wheel.peek_time(), heap.peek_time());
            assert_eq!(wheel.len(), heap.len());
        }
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
    }

    /// `advance_to` moves the cursor (and re-buckets stranded slots)
    /// without disturbing pending events or FIFO order.
    #[test]
    fn advance_to_rebuckets_without_losing_events() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_ns(100), "a");
        q.schedule(Time::from_ns(70), "b");
        q.schedule(Time::from_ns(100), "c");
        // 69 is strictly before every pending event; the jump forces the
        // same cascade a pop to 69 would have done.
        q.advance_to(Time::from_ns(69));
        assert_eq!(q.now(), Time::from_ns(69));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap(), (Time::from_ns(70), "b"));
        assert_eq!(q.pop().unwrap(), (Time::from_ns(100), "a"));
        assert_eq!(q.pop().unwrap(), (Time::from_ns(100), "c"));
        assert!(q.pop().is_none());
    }

    /// Advancing exactly onto a pending event's timestamp surfaces it
    /// into `ready` so the next pop returns it at the right instant.
    #[test]
    fn advance_to_event_time_keeps_it_poppable() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_us(10), 1u32);
        q.advance_to(Time::from_us(10));
        assert_eq!(q.now(), Time::from_us(10));
        assert_eq!(q.pop().unwrap(), (Time::from_us(10), 1));
        // Advancing an empty queue is also legal (pure cursor move).
        q.advance_to(Time::from_us(25));
        assert_eq!(q.now(), Time::from_us(25));
        assert!(q.pop().is_none());
    }

    /// Trim-on-drain: a one-off burst must not pin its high-water
    /// allocation. The pop that drains it leaves the retained buffers
    /// back at the bounded pool + ready ceiling — whether the burst sat
    /// in one crowded far bucket or went straight into the `ready` run
    /// of a queue that never leaves its window.
    #[test]
    fn burst_buffers_are_trimmed_after_drain() {
        for at in [1u64 << 20, 10] {
            let mut q = WheelQueue::new();
            let n = 50_000u64;
            for i in 0..n {
                q.schedule(Time::from_ns(at), i);
            }
            let peak = q.retained_bytes();
            for _ in 0..n {
                q.pop().unwrap();
            }
            let after = q.retained_bytes();
            assert!(
                peak > 1_000_000,
                "burst at {at} ns should have grown a large buffer ({peak} B)"
            );
            assert!(
                after < 300_000,
                "drained wheel retains {after} B after a burst at {at} ns — trim-on-drain failed"
            );
            assert!(q.is_empty());
        }
    }

    /// Levels are allocated lazily: a short-horizon queue touches only
    /// the low levels, keeping the idle footprint small.
    #[test]
    fn untouched_levels_stay_unallocated() {
        let q: WheelQueue<u32> = WheelQueue::new();
        assert_eq!(
            q.retained_bytes(),
            0,
            "a fresh queue must own no heap buffers"
        );
        let mut q = WheelQueue::new();
        q.schedule(Time::from_ns(100), 1u32);
        let one_level = std::mem::size_of::<Level<u32>>() + 32 * std::mem::size_of::<Entry<u32>>();
        assert!(
            (1..=one_level).contains(&q.retained_bytes()),
            "a near-term schedule must allocate one level and one bucket buffer"
        );
    }

    #[test]
    fn clamp_count_is_zero_for_causal_schedules() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_us(1), ());
        q.pop();
        q.schedule_in(Time::from_us(1), ());
        assert_eq!(q.clamp_count(), 0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_clamps_past_scheduling() {
        let mut q = WheelQueue::new();
        q.schedule(Time::from_us(10), 1u32);
        q.pop();
        q.schedule(Time::from_us(1), 2); // in the past: clamped to now
        assert_eq!(q.clamp_count(), 1, "the clamp must be visible in a stat");
        assert_eq!(q.pop().unwrap(), (Time::from_us(10), 2));
    }

    /// A clamped schedule is due now with the largest seq: it lands
    /// behind the entries already due now and ahead of later ones.
    #[cfg(not(debug_assertions))]
    #[test]
    fn release_clamped_schedule_queues_behind_due_now_entries() {
        let mut q = WheelQueue::new();
        for (at, name) in [(640, "popped"), (640, "due-now"), (650, "later")] {
            q.schedule(Time::from_ns(at), name);
        }
        q.pop();
        q.schedule(Time::from_ns(3), "clamped");
        for want in [(640, "due-now"), (640, "clamped"), (650, "later")] {
            assert_eq!(q.pop().unwrap(), (Time::from_ns(want.0), want.1));
        }
    }
}
