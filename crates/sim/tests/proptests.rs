//! Property-based tests for the discrete-event engine invariants.

use hermes_sim::{EventQueue, HeapQueue, LaneQueue, SimRng, Time};
use proptest::prelude::*;

/// One scripted step against both queue implementations.
#[derive(Debug, Clone)]
enum QueueOp {
    /// Schedule at `now + delay_ns`.
    ScheduleIn(u64),
    /// Pop one event (no-op allowed when both queues are empty).
    Pop,
    /// Pop one event if it is due within `now + horizon_ns`.
    PopDue(u64),
}

/// Delays the recurring arm draws from: the simulator's own recurring
/// shapes (same instant, ACK and segment serialization, link
/// propagation, the RTO floor) plus a few more — more delays than the
/// queue has lanes, so lanes are re-keyed.
const RECURRING_NS: [u64; 12] = [
    0, 32, 52, 63, 64, 1_200, 4_096, 5_000, 10_000, 262_144, 1_000_000, 10_000_000,
];

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    // The sparse arm mixes same-instant collisions (0), short steps and
    // far jumps; most of its delays never repeat, so the heap carries
    // its scripts. The dense arm stays within 128 ns of `now`, so delays
    // repeat often and lanes and the heap interleave at equal and
    // adjacent instants. The recurring arm draws most delays
    // from a fixed set, so lane hits, doorkeeper admissions, LRU
    // re-keying and equal-`at` ties between lanes and between a lane and
    // the heap dominate its scripts; extra draws over the six shortest
    // delays pile up same-instant ties, and one-offs keep the heap and
    // the all-lanes-busy fallback in play.
    let sparse = prop_oneof![
        3 => (0u64..8).prop_map(QueueOp::ScheduleIn),
        3 => (0u64..200).prop_map(QueueOp::ScheduleIn),
        2 => (3_500u64..5_000).prop_map(QueueOp::ScheduleIn),
        1 => (1u64 << 20..1u64 << 34).prop_map(QueueOp::ScheduleIn),
        4 => Just(QueueOp::Pop),
        1 => (0u64..10_000).prop_map(QueueOp::PopDue),
    ];
    let dense = prop_oneof![
        4 => (0u64..64).prop_map(QueueOp::ScheduleIn),
        2 => (64u64..128).prop_map(QueueOp::ScheduleIn),
        3 => Just(QueueOp::Pop),
        1 => (0u64..128).prop_map(QueueOp::PopDue),
    ];
    let recurring = prop_oneof![
        6 => (0..RECURRING_NS.len()).prop_map(|i| QueueOp::ScheduleIn(RECURRING_NS[i])),
        2 => (0usize..6).prop_map(|i| QueueOp::ScheduleIn(RECURRING_NS[i])),
        1 => (0u64..20_000).prop_map(QueueOp::ScheduleIn),
        5 => Just(QueueOp::Pop),
        1 => (0u64..12_000).prop_map(QueueOp::PopDue),
        1 => (0..RECURRING_NS.len()).prop_map(|i| QueueOp::PopDue(RECURRING_NS[i])),
    ];
    prop_oneof![
        proptest::collection::vec(sparse, 1..400),
        proptest::collection::vec(dense, 1..400),
        proptest::collection::vec(recurring, 1..400),
    ]
}

proptest! {
    // Debug builds run the usual 64 scripts; the release run of
    // this crate's tests, which CI makes for the release-only clamp
    // tests, drives 4096 through the differential.
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 64 } else { 4096 }))]

    /// Differential oracle: the lane queue and the plain binary heap
    /// must agree on every pop, peek, `now`, and length for any
    /// interleaving of schedules and pops — this is what lets the lane
    /// queue replace the heap without changing a single event trace.
    #[test]
    fn lanes_match_heap_differentially(ops in queue_ops()) {
        let mut lanes: LaneQueue<usize> = LaneQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::ScheduleIn(delay) => {
                    lanes.schedule_in(Time::from_ns(*delay), i);
                    heap.schedule_in(Time::from_ns(*delay), i);
                }
                QueueOp::Pop => {
                    prop_assert_eq!(lanes.pop(), heap.pop());
                    prop_assert_eq!(lanes.now(), heap.now());
                }
                QueueOp::PopDue(horizon) => {
                    let horizon = lanes.now() + Time::from_ns(*horizon);
                    prop_assert_eq!(lanes.pop_due(horizon), heap.pop_due(horizon));
                    prop_assert_eq!(lanes.now(), heap.now());
                }
            }
            prop_assert_eq!(lanes.peek_time(), heap.peek_time());
            prop_assert_eq!(lanes.len(), heap.len());
        }
        // Drain both to the end; full pop sequences must be identical.
        loop {
            let (l, h) = (lanes.pop(), heap.pop());
            prop_assert_eq!(l, h);
            if l.is_none() {
                break;
            }
        }
        prop_assert_eq!(lanes.scheduled_count(), heap.scheduled_count());
        // Every schedule in the script was causal (delays are relative to
        // now), so neither queue may have counted a clamp.
        prop_assert_eq!(lanes.clamp_count(), 0);
        prop_assert_eq!(heap.clamp_count(), 0);
    }
}

proptest! {
    /// Equal-time FIFO ordering holds in *both* implementations: events
    /// scheduled for the same instant pop in scheduling order, whether
    /// they sit in the lane queue's heap, in a lane, or in both.
    #[test]
    fn fifo_among_equal_times_both_schedulers(
        groups in proptest::collection::vec((0u64..130, 1usize..10), 1..30),
    ) {
        let mut lanes: LaneQueue<usize> = LaneQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut n = 0usize;
        for (t, count) in &groups {
            for _ in 0..*count {
                lanes.schedule(Time::from_ns(*t), n);
                heap.schedule(Time::from_ns(*t), n);
                expected.push((*t, n));
                n += 1;
            }
        }
        expected.sort_by_key(|&(t, seq)| (t, seq));
        for (want_t, want_id) in expected {
            let (wt, wid) = lanes.pop().unwrap();
            let (ht, hid) = heap.pop().unwrap();
            prop_assert_eq!((wt.as_ns(), wid), (want_t, want_id));
            prop_assert_eq!((ht.as_ns(), hid), (want_t, want_id));
        }
        prop_assert!(lanes.pop().is_none() && heap.pop().is_none());
    }

    /// Popped timestamps are nondecreasing for any schedule order.
    #[test]
    fn pops_are_time_ordered(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(Time::from_ns(*t), i);
        }
        let mut last = Time::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Same-instant events fire in scheduling order no matter how many
    /// collide.
    #[test]
    fn fifo_among_equal_times(groups in proptest::collection::vec((0u64..100, 1usize..20), 1..30)) {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut n = 0usize;
        for (t, count) in &groups {
            for _ in 0..*count {
                q.schedule(Time::from_us(*t), n);
                expected.push((*t, n));
                n += 1;
            }
        }
        expected.sort_by_key(|&(t, seq)| (t, seq));
        let mut got = Vec::new();
        while let Some((t, id)) = q.pop() {
            got.push((t.as_us(), id));
        }
        prop_assert_eq!(got, expected);
    }

    /// Every scheduled event is popped exactly once.
    #[test]
    fn conservation(times in proptest::collection::vec(0u64..10_000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(Time::from_ns(*t), i);
        }
        let mut seen = vec![false; times.len()];
        while let Some((_, id)) = q.pop() {
            prop_assert!(!seen[id], "event {} popped twice", id);
            seen[id] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// tx_time is monotone in bytes and antitone in rate.
    #[test]
    fn tx_time_monotonicity(bytes in 1u64..1_000_000, rate in 1u64..100_000_000_000) {
        let t = Time::tx_time(bytes, rate);
        prop_assert!(Time::tx_time(bytes + 1, rate) >= t);
        prop_assert!(Time::tx_time(bytes, rate + 1) <= t);
        // Exact bound: t >= bits/rate seconds.
        let lower = (bytes as u128 * 8 * 1_000_000_000 / rate as u128) as u64;
        prop_assert!(t.as_ns() >= lower);
        prop_assert!(t.as_ns() <= lower + 1);
    }

    /// RNG: below() stays in range, exp() is nonnegative and finite.
    #[test]
    fn rng_ranges(seed in 0u64..u64::MAX, n in 1usize..1000) {
        let mut r = SimRng::new(seed);
        prop_assert!(r.below(n) < n);
        let e = r.exp(5.0);
        prop_assert!(e.is_finite() && e >= 0.0);
    }

    /// Splitting with the same label is stable; distinct labels give
    /// distinct streams (overwhelmingly).
    #[test]
    fn rng_split_stability(seed in 0u64..u64::MAX, a in 0u64..1000, b in 1001u64..2000) {
        let root = SimRng::new(seed);
        let mut x = root.split(a);
        let mut x2 = root.split(a);
        let mut y = root.split(b);
        prop_assert_eq!(x.u64(), x2.u64());
        prop_assert_ne!(x.u64(), y.u64());
    }

    /// Time addition saturates instead of wrapping: for any operands the
    /// sum is well-defined, commutative, and monotone.
    #[test]
    fn time_add_saturates(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (Time::from_ns(a), Time::from_ns(b));
        let sum = ta + tb;
        prop_assert_eq!(sum, tb + ta);
        prop_assert!(sum >= ta && sum >= tb, "addition must be monotone");
        prop_assert_eq!(sum.as_ns(), a.saturating_add(b));
        prop_assert_eq!(ta + Time::ZERO, ta);
    }

    /// Saturating subtraction never underflows and inverts addition
    /// whenever the sum did not saturate.
    #[test]
    fn time_sub_saturates(a in any::<u64>(), b in any::<u64>()) {
        let (ta, tb) = (Time::from_ns(a), Time::from_ns(b));
        let diff = ta.saturating_sub(tb);
        prop_assert_eq!(diff.as_ns(), a.saturating_sub(b));
        if a >= b {
            prop_assert_eq!(diff + tb, ta, "sub must invert add when no clamp");
            prop_assert_eq!(ta - tb, diff, "Sub and saturating_sub agree when legal");
        } else {
            prop_assert_eq!(diff, Time::ZERO);
        }
    }

    /// Scalar multiplication saturates at the representable maximum and
    /// is exact below it.
    #[test]
    fn time_mul_saturates(ns in any::<u64>(), k in 0u64..10_000) {
        let t = Time::from_ns(ns) * k;
        prop_assert_eq!(t.as_ns(), ns.saturating_mul(k));
        // ×0 and ×1 identities (through black_box so the erasing-op and
        // identity-op lints do not fold the multiplication away).
        let zero = std::hint::black_box(0u64);
        let one = std::hint::black_box(1u64);
        prop_assert_eq!(Time::from_ns(ns) * zero, Time::ZERO);
        prop_assert_eq!(Time::from_ns(ns) * one, Time::from_ns(ns));
    }

    /// Float scaling clamps to [ZERO, MAX] for any finite factor,
    /// including negatives, and roundtrips through from_secs_f64.
    #[test]
    fn time_mul_f64_clamps(us in 0u64..1_000_000_000, f in -1e12f64..1e12) {
        let t = Time::from_us(us).mul_f64(f);
        prop_assert!(t >= Time::ZERO);
        if f <= 0.0 {
            prop_assert_eq!(t, Time::ZERO, "negative scaling clamps to zero");
        }
        let neg = Time::from_secs_f64(-(us as f64));
        prop_assert_eq!(neg, Time::ZERO, "negative seconds clamp to zero");
    }
}
