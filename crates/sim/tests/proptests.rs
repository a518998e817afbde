//! Property-based tests for the discrete-event engine invariants.

use hermes_sim::{EventQueue, HeapQueue, SimRng, Time, WheelQueue};
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
    /// Advance the cursor toward `now + delta_ns` without popping,
    /// clamped to the next pending event so the advance_to contract
    /// (never pass a pending event) holds by construction.
    Advance(u64),
}

fn queue_ops() -> impl Strategy<Value = Vec<QueueOp>> {
    // The sparse arm mixes same-instant collisions (0), sub-window
    // steps, level-boundary straddles (≈64, ≈4096) and far jumps, so one
    // script exercises sorted inserts into the ready run, level-1
    // buckets and multi-level cascades. The dense arm stays within two
    // 64-ns windows of `now`, so same-window sorted inserts, in-window
    // `advance_to` and window-boundary straddles dominate its scripts.
    let sparse = prop_oneof![
        3 => (0u64..8).prop_map(QueueOp::ScheduleIn),
        3 => (0u64..200).prop_map(QueueOp::ScheduleIn),
        2 => (3_500u64..5_000).prop_map(QueueOp::ScheduleIn),
        1 => (1u64 << 20..1u64 << 34).prop_map(QueueOp::ScheduleIn),
        4 => Just(QueueOp::Pop),
        1 => (0u64..10_000).prop_map(QueueOp::PopDue),
        1 => (0u64..10_000).prop_map(QueueOp::Advance),
    ];
    let dense = prop_oneof![
        4 => (0u64..64).prop_map(QueueOp::ScheduleIn),
        2 => (64u64..128).prop_map(QueueOp::ScheduleIn),
        3 => Just(QueueOp::Pop),
        1 => (0u64..128).prop_map(QueueOp::PopDue),
        2 => (0u64..64).prop_map(QueueOp::Advance),
    ];
    prop_oneof![
        proptest::collection::vec(sparse, 1..400),
        proptest::collection::vec(dense, 1..400),
    ]
}

proptest! {
    /// Differential oracle: the timing wheel and the legacy binary heap
    /// must agree on every pop, peek, `now`, and length for any
    /// interleaving of schedules and pops — this is what lets the
    /// `EventQueue` alias flip between them without changing a single
    /// event trace.
    #[test]
    fn wheel_matches_heap_differentially(ops in queue_ops()) {
        let mut wheel: WheelQueue<usize> = WheelQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                QueueOp::ScheduleIn(delay) => {
                    wheel.schedule_in(Time::from_ns(*delay), i);
                    heap.schedule_in(Time::from_ns(*delay), i);
                }
                QueueOp::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now(), heap.now());
                }
                QueueOp::PopDue(horizon) => {
                    let horizon = wheel.now() + Time::from_ns(*horizon);
                    prop_assert_eq!(wheel.pop_due(horizon), heap.pop_due(horizon));
                    prop_assert_eq!(wheel.now(), heap.now());
                }
                QueueOp::Advance(delta) => {
                    // Clamp the target to the next pending event (trains
                    // never advance past one in the fabric either).
                    let want = wheel.now() + Time::from_ns(*delta);
                    let target = wheel.peek_time().map_or(want, |p| p.min(want));
                    wheel.advance_to(target);
                    heap.advance_to(target);
                    prop_assert_eq!(wheel.now(), heap.now());
                }
            }
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
            prop_assert_eq!(wheel.len(), heap.len());
        }
        // Drain both to the end; full pop sequences must be identical.
        loop {
            let (w, h) = (wheel.pop(), heap.pop());
            prop_assert_eq!(w, h);
            if w.is_none() {
                break;
            }
        }
        prop_assert_eq!(wheel.scheduled_count(), heap.scheduled_count());
        // Every schedule in the script was causal (delays are relative to
        // now), so neither queue may have counted a clamp.
        prop_assert_eq!(wheel.clamp_count(), 0);
        prop_assert_eq!(heap.clamp_count(), 0);
    }

    /// Equal-time FIFO ordering holds in *both* implementations: events
    /// scheduled for the same instant pop in scheduling order, even when
    /// the instants collide across wheel-level boundaries.
    #[test]
    fn fifo_among_equal_times_both_schedulers(
        groups in proptest::collection::vec((0u64..130, 1usize..10), 1..30),
    ) {
        let mut wheel: WheelQueue<usize> = WheelQueue::new();
        let mut heap: HeapQueue<usize> = HeapQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut n = 0usize;
        for (t, count) in &groups {
            for _ in 0..*count {
                wheel.schedule(Time::from_ns(*t), n);
                heap.schedule(Time::from_ns(*t), n);
                expected.push((*t, n));
                n += 1;
            }
        }
        expected.sort_by_key(|&(t, seq)| (t, seq));
        for (want_t, want_id) in expected {
            let (wt, wid) = wheel.pop().unwrap();
            let (ht, hid) = heap.pop().unwrap();
            prop_assert_eq!((wt.as_ns(), wid), (want_t, want_id));
            prop_assert_eq!((ht.as_ns(), hid), (want_t, want_id));
        }
        prop_assert!(wheel.pop().is_none() && heap.pop().is_none());
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
