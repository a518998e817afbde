//! A flowlet table for the switch-resident flowlet schemes (LetFlow,
//! CONGA).
//!
//! A *flowlet* starts whenever a flow's inter-packet gap exceeds the
//! configured timeout (Sinha et al., HotNets 2004). The table maps a
//! flow key to its current path and last-activity time; a lookup either
//! returns the sticky path (gap below timeout) or reports that a new
//! flowlet began and stores the caller's fresh choice. A switch sees
//! only packets, so it keeps this state itself; an edge scheme
//! (CLOVE-ECN) reads the same gap and path from its `FlowCtx` instead.

use std::collections::BTreeMap;

use hermes_net::PathId;
use hermes_sim::Time;

/// The flowlet gap every flowlet scheme uses unless a scenario sets
/// its own: the paper tunes it to 150 µs for DCTCP in simulations
/// (§5.1; 800 µs at testbed scale).
pub const FLOWLET_TIMEOUT: Time = Time::from_us(150);

/// One table entry.
#[derive(Clone, Copy, Debug)]
struct Entry {
    path: PathId,
    last: Time,
}

/// Flow-keyed flowlet state with periodic garbage collection.
pub struct FlowletTable<K: Ord + Copy> {
    timeout: Time,
    entries: BTreeMap<K, Entry>,
    /// Entries idle longer than this are purged during sweeps.
    gc_idle: Time,
    last_gc: Time,
}

impl<K: Ord + Copy> FlowletTable<K> {
    pub fn new(timeout: Time) -> FlowletTable<K> {
        assert!(timeout > Time::ZERO);
        FlowletTable {
            timeout,
            entries: BTreeMap::new(),
            gc_idle: timeout * 1000,
            last_gc: Time::ZERO,
        }
    }

    /// Look up `key` at `now`. Returns `Some(path)` when the packet
    /// belongs to the current flowlet (and refreshes the activity time);
    /// `None` when a new flowlet begins (caller must `assign`).
    pub fn current(&mut self, key: K, now: Time) -> Option<PathId> {
        self.maybe_gc(now);
        match self.entries.get_mut(&key) {
            Some(e) if now.saturating_sub(e.last) <= self.timeout => {
                e.last = now;
                Some(e.path)
            }
            _ => None,
        }
    }

    /// Record the path chosen for the new flowlet of `key`.
    pub fn assign(&mut self, key: K, path: PathId, now: Time) {
        self.entries.insert(key, Entry { path, last: now });
    }

    /// The path of the previous flowlet, if any (even if expired) —
    /// CONGA consults it to prefer sticking when metrics tie.
    pub fn previous_path(&self, key: K) -> Option<PathId> {
        self.entries.get(&key).map(|e| e.path)
    }

    fn maybe_gc(&mut self, now: Time) {
        if now.saturating_sub(self.last_gc) < self.gc_idle || self.entries.len() < 4096 {
            return;
        }
        let cutoff = now.saturating_sub(self.gc_idle);
        self.entries.retain(|_, e| e.last >= cutoff);
        self.last_gc = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sticks_within_timeout() {
        let mut t: FlowletTable<u64> = FlowletTable::new(Time::from_us(150));
        assert_eq!(t.current(1, Time::from_us(0)), None);
        t.assign(1, PathId(3), Time::from_us(0));
        // 100 us later: same flowlet.
        assert_eq!(t.current(1, Time::from_us(100)), Some(PathId(3)));
        // Activity refreshed: 100+140 < 150 gap from last activity.
        assert_eq!(t.current(1, Time::from_us(240)), Some(PathId(3)));
    }

    #[test]
    fn gap_starts_new_flowlet() {
        let mut t: FlowletTable<u64> = FlowletTable::new(Time::from_us(150));
        t.assign(1, PathId(3), Time::ZERO);
        assert_eq!(t.current(1, Time::from_us(151)), None, "gap > timeout");
        // Previous path still remembered for sticky tie-breaks.
        assert_eq!(t.previous_path(1), Some(PathId(3)));
    }

    #[test]
    fn boundary_gap_is_same_flowlet() {
        let mut t: FlowletTable<u64> = FlowletTable::new(Time::from_us(150));
        t.assign(1, PathId(0), Time::ZERO);
        assert_eq!(t.current(1, Time::from_us(150)), Some(PathId(0)));
    }

    #[test]
    fn keys_are_independent() {
        let mut t: FlowletTable<u64> = FlowletTable::new(Time::from_us(150));
        t.assign(1, PathId(0), Time::ZERO);
        t.assign(2, PathId(1), Time::ZERO);
        assert_eq!(t.current(1, Time::from_us(10)), Some(PathId(0)));
        assert_eq!(t.current(2, Time::from_us(10)), Some(PathId(1)));
        // A new flowlet of key 1 leaves key 2's flowlet alone.
        t.assign(1, PathId(2), Time::from_us(11));
        assert_eq!(t.current(1, Time::from_us(12)), Some(PathId(2)));
        assert_eq!(t.current(2, Time::from_us(12)), Some(PathId(1)));
    }
}
