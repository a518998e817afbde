//! Binary-heap event queue — the original scheduler, kept as the
//! reference model the lane queue in [`crate::lanes`] is tested
//! against; not selectable as the simulator's queue.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::Time;

/// An entry in the heap. Ordering is `(time, seq)` — earliest time first,
/// and for equal times, earliest *scheduled* first. `BinaryHeap` is a
/// max-heap, so comparisons are reversed.
struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (time, seq) = greater priority.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A deterministic future-event list.
///
/// * Pops in nondecreasing time order.
/// * Ties broken by scheduling order (FIFO among same-instant events),
///   which makes simulations reproducible regardless of heap internals.
/// * Tracks `now`, the time of the most recently popped event, and
///   rejects scheduling into the past (debug assertion).
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
    now: Time,
    /// Past-time schedules clamped to `now` (release builds); see
    /// [`HeapQueue::clamp_count`].
    clamped: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// An empty queue with `now == Time::ZERO`.
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: Time::ZERO,
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
        self.heap.push(Entry {
            at,
            seq: self.seq,
            payload,
        });
        self.seq += 1;
    }

    /// Schedule `payload` to fire `delay` after `now`.
    pub fn schedule_in(&mut self, delay: Time, payload: E) {
        self.schedule(self.now + delay, payload);
    }

    /// Pop the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now, "event queue went backwards");
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Pop the earliest event if it is due at or before `horizon`;
    /// otherwise leave the queue (and `now`) untouched.
    pub fn pop_due(&mut self, horizon: Time) -> Option<(Time, E)> {
        if self.peek_time()? > horizon {
            return None;
        }
        self.pop()
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = HeapQueue::new();
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
        let mut q = HeapQueue::new();
        for i in 0..100u32 {
            q.schedule(Time::from_us(7), i);
        }
        for i in 0..100u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn now_advances_with_pops() {
        let mut q = HeapQueue::new();
        assert_eq!(q.now(), Time::ZERO);
        q.schedule(Time::from_us(10), ());
        q.pop();
        assert_eq!(q.now(), Time::from_us(10));
        // schedule_in is relative to the popped time.
        q.schedule_in(Time::from_us(5), ());
        assert_eq!(q.peek_time(), Some(Time::from_us(15)));
    }

    #[test]
    fn len_and_counters() {
        let mut q = HeapQueue::new();
        assert!(q.is_empty());
        q.schedule(Time::from_us(1), ());
        q.schedule(Time::from_us(2), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_count(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_count(), 2);
    }

    #[test]
    fn pop_due_stops_at_the_horizon_without_moving_now() {
        let mut q = HeapQueue::new();
        q.schedule(Time::from_ns(10), "near");
        q.schedule(Time::from_us(5), "far");
        assert_eq!(q.pop_due(Time::from_ns(9)), None);
        assert_eq!(q.pop_due(Time::from_ns(10)).unwrap().1, "near");
        assert_eq!(q.pop_due(Time::from_us(4)), None);
        assert_eq!((q.now(), q.len()), (Time::from_ns(10), 1));
        assert_eq!(q.pop_due(Time::from_us(5)).unwrap().1, "far");
        assert_eq!(q.pop_due(Time::MAX), None);
    }

    #[test]
    fn clamp_count_is_zero_for_causal_schedules() {
        let mut q = HeapQueue::new();
        q.schedule(Time::from_us(1), ());
        q.pop();
        q.schedule_in(Time::from_us(1), ());
        assert_eq!(q.clamp_count(), 0);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn release_clamps_past_scheduling() {
        let mut q = HeapQueue::new();
        q.schedule(Time::from_us(10), 1u32);
        q.pop();
        q.schedule(Time::from_us(1), 2); // in the past: clamped to now
        assert_eq!(q.clamp_count(), 1, "the clamp must be visible in a stat");
        assert_eq!(q.pop().unwrap(), (Time::from_us(10), 2));
    }
}
