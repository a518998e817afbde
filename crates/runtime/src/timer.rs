//! A flow's retransmission timer, kept to at most one queued event.
//!
//! The sender re-arms its RTO on every new ACK, nearly always *later*
//! than the deadline already queued. Scheduling a fresh event per
//! re-arm, and dropping all but the last by a generation check when
//! they pop, made superseded re-arms the largest population of the
//! event queue. [`LazyTimer`] instead keeps the deadline beside the
//! due time of its one queued event. A re-arm that moves the deadline
//! later only records it; when the queued event pops early it is
//! re-scheduled at the deadline. A re-arm that moves the deadline
//! earlier schedules a new event under a new generation, which makes
//! the queued one stale. Either way the timer fires at exactly the last
//! deadline armed, as the eager form did.

use hermes_sim::Time;

/// Mask of the generation field of a timer token; generations wrap
/// within it.
pub(crate) const GEN_MASK: u64 = (1 << 21) - 1;

/// What a popped timer event means.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Popped {
    /// Superseded by an earlier re-arm, or disarmed: drop it.
    Stale,
    /// The deadline moved later: schedule the same token at this instant.
    Resched(Time),
    /// The deadline is now: the timer fired.
    Fire,
}

/// A one-shot timer that keeps at most one live event in the queue.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LazyTimer {
    /// When the timer fires; `Time::MAX` while disarmed.
    deadline: Time,
    /// Due time of the queued event that carries `gen`; `Time::MAX`
    /// if there is none.
    queued: Time,
    /// Generation of the newest scheduled event; any other is stale.
    gen: u64,
}

impl LazyTimer {
    pub(crate) const fn new() -> LazyTimer {
        LazyTimer {
            deadline: Time::MAX,
            queued: Time::MAX,
            gen: 0,
        }
    }

    /// Arm the timer for `deadline` (clamped to `now`). Returns the
    /// instant and generation of an event to schedule, or `None` when
    /// the queued event is due no later than the new deadline.
    pub(crate) fn arm(&mut self, deadline: Time, now: Time) -> Option<(Time, u64)> {
        self.deadline = deadline.max(now);
        if self.deadline >= self.queued {
            return None;
        }
        self.queued = self.deadline;
        self.gen = (self.gen + 1) & GEN_MASK;
        Some((self.deadline, self.gen))
    }

    /// Disarm the timer. A queued event stays queued and pops stale.
    pub(crate) fn disarm(&mut self) {
        self.deadline = Time::MAX;
    }

    /// An event carrying generation `gen` popped at `now`.
    pub(crate) fn pop(&mut self, gen: u64, now: Time) -> Popped {
        if gen != self.gen {
            return Popped::Stale;
        }
        debug_assert_eq!(self.queued, now, "timer event popped off its due time");
        self.queued = Time::MAX;
        if self.deadline == Time::MAX {
            Popped::Stale
        } else if self.deadline > now {
            self.queued = self.deadline;
            Popped::Resched(self.deadline)
        } else {
            self.deadline = Time::MAX;
            Popped::Fire
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_sim::HeapQueue;
    use proptest::prelude::*;

    /// One step of a timer script. Delays are in microseconds.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        /// Arm for `now + d`.
        Arm(u64),
        Disarm,
        /// Pop every event due by `now + d`, then move `now` there.
        Advance(u64),
        /// The flow retires: its timer is gone, queued events pop into
        /// nothing.
        Retire,
    }

    /// Today's eager form, the reference: every arm schedules an event
    /// under a new generation, every disarm bumps the generation, and
    /// only an event of the current generation fires.
    struct Eager {
        gen: u64,
    }

    /// The timer under test or the reference, each with its own queue.
    trait Model {
        fn arm(&mut self, q: &mut HeapQueue<u64>, deadline: Time, now: Time);
        fn disarm(&mut self);
        /// Whether the popped event fired the timer.
        fn pop(&mut self, q: &mut HeapQueue<u64>, gen: u64, now: Time) -> bool;
    }

    impl Model for Eager {
        fn arm(&mut self, q: &mut HeapQueue<u64>, deadline: Time, now: Time) {
            self.gen += 1;
            q.schedule(deadline.max(now), self.gen);
        }
        fn disarm(&mut self) {
            self.gen += 1;
        }
        fn pop(&mut self, _: &mut HeapQueue<u64>, gen: u64, _: Time) -> bool {
            gen == self.gen
        }
    }

    impl Model for LazyTimer {
        fn arm(&mut self, q: &mut HeapQueue<u64>, deadline: Time, now: Time) {
            if let Some((at, gen)) = LazyTimer::arm(self, deadline, now) {
                q.schedule(at, gen);
            }
        }
        fn disarm(&mut self) {
            LazyTimer::disarm(self);
        }
        fn pop(&mut self, q: &mut HeapQueue<u64>, gen: u64, now: Time) -> bool {
            match LazyTimer::pop(self, gen, now) {
                Popped::Stale => false,
                Popped::Resched(at) => {
                    q.schedule(at, gen);
                    false
                }
                Popped::Fire => true,
            }
        }
    }

    /// What a script did to one model.
    #[derive(Debug, Default)]
    struct Run {
        fired: Vec<Time>,
        scheduled: u64,
        /// Most events queued at once.
        peak_queued: usize,
    }

    /// Drive `timer` through `script` against its own queue, then drain
    /// the queue.
    fn run<M: Model>(mut timer: M, script: &[Op]) -> Run {
        let mut q = HeapQueue::new();
        let mut now = Time::ZERO;
        let mut live = true;
        let mut out = Run::default();
        // The last step drains the queue.
        for op in script
            .iter()
            .copied()
            .chain([Op::Advance(u64::MAX / 1_000)])
        {
            match op {
                Op::Arm(d) if live => timer.arm(&mut q, now + Time::from_us(d), now),
                Op::Disarm if live => timer.disarm(),
                Op::Retire => live = false,
                Op::Arm(_) | Op::Disarm => {}
                Op::Advance(d) => {
                    let to = now + Time::from_us(d);
                    while let Some((at, gen)) = q.pop_due(to) {
                        if live && timer.pop(&mut q, gen, at) {
                            out.fired.push(at);
                        }
                    }
                    now = to;
                }
            }
            out.peak_queued = out.peak_queued.max(q.len());
        }
        out.scheduled = q.scheduled_count();
        out
    }

    fn both(script: &[Op]) -> (Run, Run) {
        (run(Eager { gen: 0 }, script), run(LazyTimer::new(), script))
    }

    fn us(v: &[u64]) -> Vec<Time> {
        v.iter().map(|&t| Time::from_us(t)).collect()
    }

    #[test]
    fn rearm_later_fires_once_at_the_last_deadline() {
        // An ACK every 2 µs re-arms a 10 µs RTO four times.
        let mut script = vec![Op::Arm(10)];
        for _ in 0..4 {
            script.extend([Op::Advance(2), Op::Arm(10)]);
        }
        let (eager, lazy) = both(&script);
        assert_eq!(eager.fired, us(&[18]));
        assert_eq!(lazy.fired, eager.fired);
        assert_eq!((eager.scheduled, eager.peak_queued), (5, 5));
        // The first event pops at 10 µs and moves itself to 18 µs.
        assert_eq!((lazy.scheduled, lazy.peak_queued), (2, 1));
    }

    #[test]
    fn rearm_earlier_after_a_timeout_supersedes_the_backed_off_event() {
        // Fire at 10, back off to 40 (due 50), then new data at 11
        // resets the backoff: the 21 µs deadline wins, 50 never fires.
        let script = [
            Op::Arm(10),
            Op::Advance(10),
            Op::Arm(40),
            Op::Advance(1),
            Op::Arm(10),
            Op::Advance(100),
        ];
        let (eager, lazy) = both(&script);
        assert_eq!(eager.fired, us(&[10, 21]));
        assert_eq!(lazy.fired, eager.fired);
        assert_eq!(lazy.scheduled, 3);
    }

    #[test]
    fn disarm_then_rearm_reuses_or_replaces_the_queued_event() {
        // Disarmed with an event due at 10: a re-arm for 15 rides it, a
        // later disarm leaves it to pop stale.
        let script = [
            Op::Arm(10),
            Op::Disarm,
            Op::Advance(5),
            Op::Arm(10),
            Op::Advance(20),
            Op::Arm(10),
            Op::Disarm,
            Op::Advance(20),
        ];
        let (eager, lazy) = both(&script);
        assert_eq!(eager.fired, us(&[15]));
        assert_eq!(lazy.fired, eager.fired);
        // Disarmed with an event due at 10: a re-arm for 7 replaces it.
        let script = [Op::Arm(10), Op::Disarm, Op::Advance(2), Op::Arm(5)];
        let (eager, lazy) = both(&script);
        assert_eq!(eager.fired, us(&[7]));
        assert_eq!(lazy.fired, eager.fired);
    }

    #[test]
    fn retire_with_an_event_queued_fires_nothing() {
        let script = [Op::Arm(10), Op::Advance(3), Op::Arm(10), Op::Retire];
        let (eager, lazy) = both(&script);
        assert!(eager.fired.is_empty() && lazy.fired.is_empty());
    }

    #[test]
    fn an_arm_in_the_past_fires_now() {
        let script = [Op::Advance(5), Op::Arm(0), Op::Advance(0)];
        let (eager, lazy) = both(&script);
        assert_eq!(eager.fired, us(&[5]));
        assert_eq!(lazy.fired, eager.fired);
        let mut t = LazyTimer::new();
        let now = Time::from_us(5);
        assert_eq!(t.arm(Time::from_us(1), now), Some((now, 1)));
    }

    fn scripts() -> impl Strategy<Value = Vec<Op>> {
        // Delays straddle each other so re-arms land earlier, later and
        // on the queued instant; retirement is rare and ends the story.
        let op = prop_oneof![
            12 => (0u64..30).prop_map(Op::Arm),
            3 => Just(Op::Disarm),
            12 => (0u64..25).prop_map(Op::Advance),
            1 => Just(Op::Retire),
        ];
        proptest::collection::vec(op, 1..120)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// For any arm/disarm/pop script the lazy timer fires at exactly
        /// the eager form's instants, and never schedules or holds more
        /// events than it.
        #[test]
        fn lazy_timer_fires_exactly_when_the_eager_form_does(script in scripts()) {
            let (eager, lazy) = both(&script);
            prop_assert_eq!(&lazy.fired, &eager.fired, "script {:?}", script);
            prop_assert!(lazy.scheduled <= eager.scheduled, "script {:?}", script);
            prop_assert!(lazy.peak_queued <= eager.peak_queued, "script {:?}", script);
        }
    }
}
