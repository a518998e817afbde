//! Rack-wide sensing (§3.1): one [`PathState`] per (destination rack,
//! spine path), shared by every host under the leaf, plus the decision
//! counters and the telemetry view of path-class transitions.

use hermes_net::{LeafId, PathId, Topology};
use hermes_sim::Time;

use crate::params::HermesParams;
use crate::state::{PathState, PathType};

/// Telemetry view of a path's class: the failure phase when suspected,
/// Algorithm 1's congestion class otherwise. Read-only — tracing must
/// never tick the sensing state machine.
fn telem_class(st: &PathState, p: &HermesParams, now: Time) -> hermes_telemetry::PathClass {
    use hermes_telemetry::PathClass as C;
    if st.probation() {
        return C::Probation;
    }
    match st.peek_class(p, now) {
        PathType::Good => C::Good,
        PathType::Gray => C::Gray,
        PathType::Congested => C::Congested,
        PathType::Failed => C::Failed,
    }
}

/// Rack-wide sensing state: one `PathState` per (destination rack,
/// spine path), plus decision counters for diagnostics.
pub struct RackSensing {
    pub params: HermesParams,
    pub(crate) my_leaf: LeafId,
    /// `state[dst_leaf][spine]`.
    state: Vec<Vec<PathState>>,
    /// Static live-candidate sets per destination leaf.
    pub(crate) candidates: Vec<Vec<PathId>>,
    /// Decision counters.
    pub stat_reroutes: u64,
    pub stat_initial: u64,
    pub stat_failovers: u64,
    pub stat_probes: u64,
    /// Paths re-admitted from probation.
    pub stat_recoveries: u64,
    /// When this rack first declared any path failed (time-to-detect).
    pub first_failure_at: Option<Time>,
    /// When this rack first re-admitted a path (time-to-readmit).
    pub first_recovery_at: Option<Time>,
    /// Telemetry only: last class reported per `[dst_leaf][spine]`, so
    /// [`RackSensing::trace_path`] emits transitions, not every read.
    /// Untouched unless a telemetry sink is installed.
    trace_last: Vec<Vec<Option<hermes_telemetry::PathClass>>>,
}

impl RackSensing {
    /// Build the rack table for `my_leaf` over `topo`.
    pub fn new(topo: &Topology, my_leaf: LeafId, params: HermesParams) -> RackSensing {
        let candidates = (0..topo.n_leaves)
            .map(|d| {
                if d == my_leaf.0 as usize {
                    Vec::new()
                } else {
                    topo.path_candidates(my_leaf, LeafId(d as u16))
                }
            })
            .collect();
        RackSensing {
            params,
            my_leaf,
            state: vec![vec![PathState::default(); topo.n_spines]; topo.n_leaves],
            trace_last: vec![vec![None; topo.n_spines]; topo.n_leaves],
            candidates,
            stat_reroutes: 0,
            stat_initial: 0,
            stat_failovers: 0,
            stat_probes: 0,
            stat_recoveries: 0,
            first_failure_at: None,
            first_recovery_at: None,
        }
    }

    #[inline]
    pub(crate) fn st(&mut self, dst: LeafId, path: PathId) -> &mut PathState {
        &mut self.state[dst.0 as usize][path.0 as usize]
    }

    /// Feed one observation of `path` toward `dst` to its state — `f`
    /// gets the state and the params — then trace the class transition,
    /// if any. `None`, with `f` not run, for a path that crosses no
    /// spine: it has no state.
    pub(crate) fn observe<R>(
        &mut self,
        dst: LeafId,
        path: PathId,
        now: Time,
        f: impl FnOnce(&mut PathState, &HermesParams) -> R,
    ) -> Option<R> {
        if !path.is_spine() {
            return None;
        }
        let p = self.params;
        let out = f(self.st(dst, path), &p);
        if hermes_telemetry::enabled() {
            self.trace_path(dst, path, now);
        }
        Some(out)
    }

    /// Read-only view of a path's state (tests, diagnostics).
    pub fn path_state(&self, dst: LeafId, path: PathId) -> &PathState {
        &self.state[dst.0 as usize][path.0 as usize]
    }

    /// Characterize one path now.
    pub fn characterize(&mut self, dst: LeafId, path: PathId, now: Time) -> PathType {
        let p = self.params;
        let was_failed = self.st(dst, path).failed();
        let t = self.st(dst, path).characterize(&p, now);
        if !was_failed && t == PathType::Failed {
            // The random-drop rule fires lazily inside characterize, so
            // detection is noted here as well as in the timeout hook.
            self.note_failure(now);
        }
        if hermes_telemetry::enabled() {
            self.trace_path(dst, path, now);
        }
        t
    }

    /// Telemetry: emit a `PathTransition` record if `path`'s class
    /// toward `dst` changed since the last report. Paths start as
    /// `Gray` (never sampled), matching Algorithm 1's default.
    pub(crate) fn trace_path(&mut self, dst: LeafId, path: PathId, now: Time) {
        let p = self.params;
        let to = telem_class(self.path_state(dst, path), &p, now);
        let slot = &mut self.trace_last[dst.0 as usize][path.0 as usize];
        let from = slot.unwrap_or(hermes_telemetry::PathClass::Gray);
        *slot = Some(to);
        if from == to {
            return; // no change (or first observation of the default)
        }
        let leaf = u32::from(self.my_leaf.0);
        hermes_telemetry::emit_with(now, || hermes_telemetry::Record::PathTransition {
            leaf,
            dst_leaf: u32::from(dst.0),
            path: u32::from(path.0),
            from,
            to,
        });
    }

    /// Record that some path was just declared failed.
    pub(crate) fn note_failure(&mut self, now: Time) {
        self.first_failure_at.get_or_insert(now);
    }

    /// Record that some path was just re-admitted from probation.
    pub(crate) fn note_recovery(&mut self, now: Time) {
        self.stat_recoveries += 1;
        self.first_recovery_at.get_or_insert(now);
    }

    /// The freshest-best path toward `dst` by RTT (probe memory).
    pub(crate) fn best_path(&self, dst: LeafId) -> Option<PathId> {
        self.candidates[dst.0 as usize]
            .iter()
            .filter_map(|&p| {
                let s = &self.state[dst.0 as usize][p.0 as usize];
                if s.failed() {
                    return None;
                }
                s.t_rtt().map(|r| (r, p))
            })
            .min_by_key(|&(r, _)| r)
            .map(|(_, p)| p)
    }
}
