//! Per-path sensing state and Algorithm 1 (path characterization).
//!
//! One [`PathState`] exists per (destination rack, path) in each rack's
//! sensing table ([`RackSensing`], owned by that rack's `Hermes`).
//! Transport signals (ACK ECN/RTT, retransmissions, timeouts) and probe
//! results update it;
//! [`PathState::characterize`] implements Algorithm 1:
//!
//! | ECN | RTT | outcome |
//! |---|---|---|
//! | low | low | **good** |
//! | high | high | **congested** |
//! | otherwise | | **gray** |
//!
//! plus the failure rules of §3.1.2: ≥3 timeouts with nothing ACKed
//! (blackhole), or a high retransmission fraction on a path that is not
//! congested (silent random drops).
//!
//! Failure is sticky *within a quiet period*, then ages into recovery
//! ("timely yet cautious" applied to the un-failing direction):
//!
//! ```text
//! Ok ──(blackhole/random-drop rule)──▶ Failed
//! Failed ──(no failure evidence for FAILURE_QUIET_PERIOD)──▶ Probation
//! Probation ──(RECOVERY_PROBE_COUNT successful probes)──▶ Ok
//! Probation ──(timeout / retransmit / lost probe)──▶ Failed
//! ```
//!
//! `Failed` and `Probation` both read as [`PathType::Failed`] to data
//! placement: a path in probation carries probes only, and every piece
//! of failure evidence (timeouts, retransmissions, unanswered probes)
//! refreshes the quiet-period clock, so a path that is still broken
//! keeps re-failing off its own probe losses and is never re-admitted.
//! Setting `enable_recovery = false` restores the old terminally-sticky
//! behaviour for ablations.

use hermes_sim::Time;

use crate::params::HermesParams;

// --- Congestion sensing (§3.1.1) ---

/// `T_ECN`: ECN fraction above which a path may be congested (40%).
pub const T_ECN: f64 = 0.40;

// --- Failure sensing (§3.1.2) ---

/// Timeouts with zero ACKs that flag a blackhole (3).
pub const TIMEOUT_FAIL_COUNT: u32 = 3;

/// Retransmission fraction that flags silent random drops (1%).
pub const RETX_FAIL_FRACTION: f64 = 0.01;

/// The τ window over which the retransmission fraction is measured
/// (10 ms).
pub const RETX_WINDOW: Time = Time::from_ms(10);

/// Minimum packets sent in a window before the fraction is trusted.
pub const RETX_MIN_SAMPLES: u32 = 30;

// --- Failure recovery (transient faults) ---

/// Quiet period after the last failure evidence before a Failed path
/// enters probation. Sized to several blackhole-detection times
/// (3 × min RTO) so a still-dead path re-fails from its own probe
/// losses before ever being trusted — "timely yet cautious" applied
/// to recovery.
pub const FAILURE_QUIET_PERIOD: Time = Time::from_ms(25);

/// Consecutive successful probes a path in probation must return
/// before it is re-admitted for data.
pub const RECOVERY_PROBE_COUNT: u32 = 3;

// --- Sensing estimator details ---

/// EWMA gain for the per-path ECN fraction.
pub const ECN_EWMA: f64 = 1.0 / 16.0;

/// EWMA gain for the per-path RTT.
pub const RTT_EWMA: f64 = 0.25;

/// A path with no sample newer than this is Gray (unknown).
pub const STALE_HORIZON: Time = Time::from_ms(5);

/// Algorithm 1's outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PathType {
    Good,
    Gray,
    Congested,
    Failed,
}

/// The failure/recovery phase of a path (see module docs).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FailPhase {
    /// No failure suspected; the path may carry data.
    Ok,
    /// Failure rule fired; no data, waiting out the quiet period.
    Failed,
    /// Quiet period elapsed; probes (not data) decide re-admission.
    Probation,
}

/// Sensing state of one path toward one destination rack (Table 3).
#[derive(Clone, Copy, Debug)]
pub struct PathState {
    /// EWMA fraction of ECN-marked packets (`f_ECN`).
    f_ecn: f64,
    /// EWMA RTT (`t_RTT`); `None` until first sample.
    t_rtt: Option<Time>,
    /// Time of the freshest RTT/ECN sample.
    last_sample: Time,
    /// Consecutive timeouts with nothing ACKed since (`n_timeout`).
    n_timeout: u32,
    /// Retransmission-fraction window (`f_retransmission`).
    win_start: Time,
    win_sent: u32,
    win_retx: u32,
    /// Same-window congestion evidence: ECN-marked / total samples and
    /// the worst RTT seen. The random-drop rule must judge a window's
    /// retransmissions against the window's *own* conditions — a burst
    /// of congestion drops whose queue has already drained would
    /// otherwise read as "loss on an uncongested path".
    win_samples: u32,
    win_ecn: u32,
    win_max_rtt: Time,
    /// Fraction from the last completed window.
    retx_fraction: f64,
    retx_fraction_valid: bool,
    /// Whether the last completed window showed congestion evidence.
    last_win_congested: bool,
    /// Consecutive completed windows satisfying the random-drop
    /// predicate (the rule fires on the second, filtering one-off
    /// incast bursts).
    bad_windows: u32,
    /// Failure/recovery phase.
    phase: FailPhase,
    /// Time of the most recent failure evidence (timeout, retransmit,
    /// or lost probe) while not Ok — the quiet-period clock.
    last_fail_evidence: Time,
    /// Consecutive successful probes while in probation.
    probation_ok: u32,
}

impl Default for PathState {
    fn default() -> PathState {
        PathState {
            f_ecn: 0.0,
            t_rtt: None,
            last_sample: Time::ZERO,
            n_timeout: 0,
            win_start: Time::ZERO,
            win_sent: 0,
            win_retx: 0,
            win_samples: 0,
            win_ecn: 0,
            win_max_rtt: Time::ZERO,
            retx_fraction: 0.0,
            retx_fraction_valid: false,
            last_win_congested: false,
            bad_windows: 0,
            phase: FailPhase::Ok,
            last_fail_evidence: Time::ZERO,
            probation_ok: 0,
        }
    }
}

impl PathState {
    /// Current ECN fraction estimate.
    pub fn f_ecn(&self) -> f64 {
        self.f_ecn
    }

    /// Current RTT estimate.
    pub fn t_rtt(&self) -> Option<Time> {
        self.t_rtt
    }

    /// Whether the path is barred from carrying data (Failed *or* in
    /// probation — probation paths carry probes only).
    pub fn failed(&self) -> bool {
        self.phase != FailPhase::Ok
    }

    /// Whether the path is currently in the probation phase. Read-only
    /// (no age-out side effect): telemetry's view of the failure state
    /// machine. Placement and probe planning use [`Self::in_probation`],
    /// which ages Failed paths out first.
    pub fn probation(&self) -> bool {
        self.phase == FailPhase::Probation
    }

    /// Whether the path is in probation, aging it out of Failed first if
    /// the quiet period has elapsed. Probe planning uses this to target
    /// candidate-recovery paths.
    pub fn in_probation(&mut self, p: &HermesParams, now: Time) -> bool {
        self.age_out(p, now);
        self.phase == FailPhase::Probation
    }

    /// Move Failed → Probation once the quiet period passes with no new
    /// failure evidence.
    fn age_out(&mut self, p: &HermesParams, now: Time) {
        if self.phase == FailPhase::Failed
            && p.enable_recovery
            && now.saturating_sub(self.last_fail_evidence) >= FAILURE_QUIET_PERIOD
        {
            self.phase = FailPhase::Probation;
            self.probation_ok = 0;
        }
    }

    /// Refresh the quiet-period clock and demote Probation → Failed.
    /// No effect on healthy paths.
    fn fail_evidence(&mut self, now: Time) {
        if self.phase == FailPhase::Ok {
            return;
        }
        self.last_fail_evidence = self.last_fail_evidence.max(now);
        self.phase = FailPhase::Failed;
        self.probation_ok = 0;
    }

    /// A probe sent on this path got no response — negative evidence.
    /// Healthy paths ignore it (a probe lost to congestion must not
    /// fail a path); suspected paths have their quiet period restarted.
    pub fn on_probe_lost(&mut self, now: Time) {
        self.fail_evidence(now);
    }

    /// Timeouts observed since the last ACK on this path.
    pub fn n_timeout(&self) -> u32 {
        self.n_timeout
    }

    /// The last completed τ-window's retransmission fraction, if valid.
    pub fn retx_fraction(&self) -> Option<f64> {
        self.retx_fraction_valid.then_some(self.retx_fraction)
    }

    /// Record an RTT+ECN sample (data ACK or probe response). Returns
    /// true iff this sample just re-admitted a path from probation: in
    /// probation every successful round-trip counts, and the
    /// [`RECOVERY_PROBE_COUNT`]-th one restores the path to service with
    /// its failure counters and τ-window cleared (stale pre-failure
    /// retransmission history must not instantly re-fail it).
    pub fn sample(&mut self, rtt: Option<Time>, ecn: bool, p: &HermesParams, now: Time) -> bool {
        self.roll_window(p, now);
        self.win_samples += 1;
        if ecn {
            self.win_ecn += 1;
        }
        if let Some(r) = rtt {
            self.win_max_rtt = self.win_max_rtt.max(r);
        }
        self.f_ecn = (1.0 - ECN_EWMA) * self.f_ecn + ECN_EWMA * if ecn { 1.0 } else { 0.0 };
        if let Some(r) = rtt {
            self.t_rtt = Some(match self.t_rtt {
                None => r,
                Some(prev) => Time::from_ns(
                    ((1.0 - RTT_EWMA) * prev.as_ns() as f64 + RTT_EWMA * r.as_ns() as f64) as u64,
                ),
            });
        }
        self.last_sample = now;
        // Any ACK on the path clears the blackhole suspicion.
        self.n_timeout = 0;
        if self.phase == FailPhase::Probation {
            self.probation_ok += 1;
            if self.probation_ok >= RECOVERY_PROBE_COUNT {
                self.phase = FailPhase::Ok;
                self.probation_ok = 0;
                self.bad_windows = 0;
                self.win_start = now;
                self.win_sent = 0;
                self.win_retx = 0;
                self.win_samples = 0;
                self.win_ecn = 0;
                self.win_max_rtt = Time::ZERO;
                self.retx_fraction_valid = false;
                return true;
            }
        }
        false
    }

    /// A data segment was sent on this path.
    pub fn on_sent(&mut self, p: &HermesParams, now: Time) {
        self.roll_window(p, now);
        self.win_sent += 1;
    }

    /// A segment was retransmitted on this path.
    pub fn on_retransmit(&mut self, p: &HermesParams, now: Time) {
        self.roll_window(p, now);
        self.win_retx += 1;
        // A retransmission on a suspected path is failure evidence.
        self.fail_evidence(now);
    }

    /// A flow on this path hit its RTO. Returns true if this pushed the
    /// path into the failed state (blackhole rule).
    pub fn on_timeout(&mut self, now: Time) -> bool {
        self.n_timeout += 1;
        // "Once it observes 3 timeouts on a path, it further checks if
        //  any of the packets on that path have been successfully ACKed"
        // — n_timeout is reset by every ACK, so reaching the threshold
        // means nothing was ACKed in between.
        let newly = self.phase == FailPhase::Ok && self.n_timeout >= TIMEOUT_FAIL_COUNT;
        if newly {
            self.phase = FailPhase::Failed;
            self.last_fail_evidence = now;
        } else {
            self.fail_evidence(now);
        }
        newly
    }

    /// Close the τ window if due, publishing the retransmission fraction
    /// together with the window's congestion evidence.
    fn roll_window(&mut self, p: &HermesParams, now: Time) {
        if now.saturating_sub(self.win_start) >= RETX_WINDOW {
            if self.win_sent >= RETX_MIN_SAMPLES {
                self.retx_fraction = self.win_retx as f64 / self.win_sent as f64;
                self.retx_fraction_valid = true;
                // Congestion evidence *within* this window: meaningful
                // marking, or an RTT excursion past T_RTT_high.
                let ecn_frac = if self.win_samples > 0 {
                    self.win_ecn as f64 / self.win_samples as f64
                } else {
                    0.0
                };
                self.last_win_congested = ecn_frac > T_ECN / 2.0 || self.win_max_rtt > p.t_rtt_high;
                if self.retx_fraction > RETX_FAIL_FRACTION && !self.last_win_congested {
                    self.bad_windows += 1;
                } else {
                    self.bad_windows = 0;
                }
            } else {
                self.retx_fraction_valid = false;
            }
            self.win_sent = 0;
            self.win_retx = 0;
            self.win_samples = 0;
            self.win_ecn = 0;
            self.win_max_rtt = Time::ZERO;
            self.win_start = now;
        }
    }

    /// Check the silent-random-drop rule: two consecutive τ windows with
    /// a high retransmission fraction and no congestion evidence mark
    /// the path failed (Algorithm 1 lines 8–9; the per-window evidence
    /// is evaluated when the window rolls). Returns the flag.
    pub fn check_random_drop_failure(&mut self, now: Time) -> bool {
        if self.phase != FailPhase::Ok {
            return true;
        }
        if self.bad_windows >= 2 {
            self.phase = FailPhase::Failed;
            self.last_fail_evidence = now;
        }
        self.failed()
    }

    /// Algorithm 1 lines 2–7: good / gray / congested from ECN and RTT.
    fn congestion_class(&self, p: &HermesParams, now: Time) -> PathType {
        let Some(rtt) = self.t_rtt else {
            return PathType::Gray; // never sampled
        };
        if now.saturating_sub(self.last_sample) > STALE_HORIZON {
            return PathType::Gray; // information too old to act on
        }
        if p.rtt_only {
            // §5.4: TCP mode, no ECN signal.
            if rtt < p.t_rtt_low {
                return PathType::Good;
            }
            if rtt > p.t_rtt_high {
                return PathType::Congested;
            }
            return PathType::Gray;
        }
        if self.f_ecn < T_ECN && rtt < p.t_rtt_low {
            PathType::Good
        } else if self.f_ecn > T_ECN && rtt > p.t_rtt_high {
            PathType::Congested
        } else {
            PathType::Gray
        }
    }

    /// Read-only classification: the class [`Self::characterize`]
    /// would report *right now*, without advancing the failure state
    /// machine (no age-out, no random-drop check). Telemetry reads
    /// this so that tracing can never perturb sensing behaviour.
    pub fn peek_class(&self, p: &HermesParams, now: Time) -> PathType {
        if self.failed() {
            PathType::Failed
        } else {
            self.congestion_class(p, now)
        }
    }

    /// Full Algorithm 1: failure rules first, then congestion classes.
    pub fn characterize(&mut self, p: &HermesParams, now: Time) -> PathType {
        // Algorithm 1's classes are mutually exclusive only if the RTT
        // band is well-formed: good demands rtt < t_rtt_low, congested
        // demands rtt > t_rtt_high.
        debug_assert!(
            p.t_rtt_low <= p.t_rtt_high,
            "RTT thresholds inverted: the good and congested classes must be disjoint"
        );
        self.age_out(p, now);
        if self.check_random_drop_failure(now) {
            return PathType::Failed;
        }
        self.congestion_class(p, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_net::Topology;

    fn params() -> HermesParams {
        HermesParams::from_topology(&Topology::sim_baseline())
    }

    fn fresh(p: &HermesParams, rtt_us: u64, ecn_frac: f64, now: Time) -> PathState {
        let mut s = PathState::default();
        // Feed enough samples to move the EWMAs to the targets.
        for i in 0..200 {
            let ecn = (i as f64 % 1.0) < ecn_frac; // placeholder, replaced below
            let _ = ecn;
            s.sample(
                Some(Time::from_us(rtt_us)),
                (i as f64 / 200.0) % 1.0 < ecn_frac,
                p,
                now,
            );
        }
        // Force the exact fractions for determinism.
        s.f_ecn = ecn_frac;
        s
    }

    #[test]
    fn algorithm1_truth_table() {
        let p = params();
        let now = Time::from_ms(1);
        let low_rtt = p.t_rtt_low.as_us() - 10;
        let high_rtt = p.t_rtt_high.as_us() + 50;
        let mid_rtt = (p.t_rtt_low.as_us() + p.t_rtt_high.as_us()) / 2;
        // low ECN + low RTT = good.
        assert_eq!(
            fresh(&p, low_rtt, 0.05, now).characterize(&p, now),
            PathType::Good
        );
        // high ECN + high RTT = congested.
        assert_eq!(
            fresh(&p, high_rtt, 0.8, now).characterize(&p, now),
            PathType::Congested
        );
        // high ECN + low RTT = gray ("not enough ECN samples or all
        // delay at one hop").
        assert_eq!(
            fresh(&p, low_rtt, 0.8, now).characterize(&p, now),
            PathType::Gray
        );
        // low ECN + high RTT = gray ("network stack incurs high RTT").
        assert_eq!(
            fresh(&p, high_rtt, 0.05, now).characterize(&p, now),
            PathType::Gray
        );
        // low ECN + moderate RTT = gray ("moderately loaded").
        assert_eq!(
            fresh(&p, mid_rtt, 0.05, now).characterize(&p, now),
            PathType::Gray
        );
    }

    #[test]
    fn unsampled_and_stale_paths_are_gray() {
        let p = params();
        let now = Time::from_ms(1);
        let mut never = PathState::default();
        assert_eq!(never.characterize(&p, now), PathType::Gray);
        let mut stale = fresh(&p, 50, 0.0, now);
        let later = now + STALE_HORIZON + Time::from_us(1);
        assert_eq!(stale.characterize(&p, later), PathType::Gray);
    }

    #[test]
    fn blackhole_three_timeouts_without_acks() {
        let p = params();
        let mut s = PathState::default();
        let t = Time::from_ms(10);
        assert!(!s.on_timeout(t));
        assert!(!s.on_timeout(t));
        assert!(s.on_timeout(t), "third timeout must fail the path");
        assert_eq!(s.characterize(&p, Time::from_ms(11)), PathType::Failed);
    }

    #[test]
    fn ack_between_timeouts_resets_suspicion() {
        let p = params();
        let mut s = PathState::default();
        s.on_timeout(Time::from_ms(10));
        s.on_timeout(Time::from_ms(20));
        // An ACK proves the path forwards *some* packets: not a blackhole.
        s.sample(Some(Time::from_us(100)), false, &p, Time::from_ms(25));
        assert!(!s.on_timeout(Time::from_ms(30)));
        assert!(!s.failed());
        assert_eq!(s.n_timeout(), 1);
    }

    #[test]
    fn random_drops_on_uncongested_path_fail_it() {
        let p = params();
        let mut now = Time::ZERO;
        let mut s = PathState::default();
        // Uncongested signals (low RTT, no ECN), but 3% retransmissions.
        for i in 0..2000u32 {
            now = Time::from_us(10 * i as u64);
            s.on_sent(&p, now);
            if i % 33 == 0 {
                s.on_retransmit(&p, now);
            }
            if i % 10 == 0 {
                s.sample(Some(Time::from_us(70)), false, &p, now);
            }
        }
        // Roll past a window boundary and check.
        now += RETX_WINDOW;
        s.on_sent(&p, now);
        assert_eq!(s.characterize(&p, now), PathType::Failed);
    }

    #[test]
    fn retransmissions_on_congested_path_do_not_fail_it() {
        let p = params();
        let mut now = Time::ZERO;
        let mut s = PathState::default();
        let high = p.t_rtt_high + Time::from_us(50);
        for i in 0..2000u32 {
            now = Time::from_us(10 * i as u64);
            s.on_sent(&p, now);
            if i % 20 == 0 {
                s.on_retransmit(&p, now); // 5% retx
            }
            s.sample(Some(high), true, &p, now); // congested signals
        }
        now += RETX_WINDOW;
        s.on_sent(&p, now); // rolls the τ window, publishing the fraction
        s.sample(Some(high), true, &p, now); // signals stay fresh while data flows
        assert_eq!(
            s.characterize(&p, now),
            PathType::Congested,
            "congestion explains the retransmissions (Algorithm 1 line 8)"
        );
    }

    #[test]
    fn too_few_samples_never_fail_a_path() {
        let p = params();
        let mut s = PathState::default();
        // 5 packets, 2 retx = 40% — but below RETX_MIN_SAMPLES.
        for i in 0..5 {
            s.on_sent(&p, Time::from_us(i));
        }
        s.on_retransmit(&p, Time::from_us(6));
        s.on_retransmit(&p, Time::from_us(7));
        let later = Time::from_ms(11);
        s.on_sent(&p, later);
        s.sample(Some(Time::from_us(70)), false, &p, later);
        assert_ne!(s.characterize(&p, later), PathType::Failed);
    }

    #[test]
    fn rtt_only_mode_ignores_ecn() {
        let topo = Topology::sim_baseline();
        let p = HermesParams::for_tcp(&topo);
        let now = Time::from_ms(1);
        // Heavy marking but low RTT: still good under RTT-only sensing.
        let mut s = fresh(&p, p.t_rtt_low.as_us() - 10, 0.9, now);
        assert_eq!(s.characterize(&p, now), PathType::Good);
    }

    #[test]
    fn failure_is_sticky_within_the_quiet_period() {
        let p = params();
        let mut s = PathState::default();
        let t0 = Time::from_ms(10);
        for _ in 0..3 {
            s.on_timeout(t0);
        }
        assert!(s.failed());
        // Even a perfect sample inside the quiet period does not clear
        // it — recovery goes through probation, never directly.
        let t1 = t0 + FAILURE_QUIET_PERIOD / 2;
        s.sample(Some(Time::from_us(60)), false, &p, t1);
        assert_eq!(s.characterize(&p, t1), PathType::Failed);
        assert!(!s.in_probation(&p, t1));
    }

    #[test]
    fn quiet_period_then_probes_readmit_the_path() {
        let p = params();
        let mut s = PathState::default();
        let t0 = Time::from_ms(10);
        for _ in 0..3 {
            s.on_timeout(t0);
        }
        // Quiet period elapses with no further evidence → probation.
        let t1 = t0 + FAILURE_QUIET_PERIOD;
        assert!(s.in_probation(&p, t1));
        // Probation still reads Failed to data placement.
        assert!(s.failed());
        assert_eq!(s.characterize(&p, t1), PathType::Failed);
        // K − 1 probes: still barred.
        for k in 0..RECOVERY_PROBE_COUNT - 1 {
            let recovered = s.sample(
                Some(Time::from_us(60)),
                false,
                &p,
                t1 + Time::from_us(500) * u64::from(k),
            );
            assert!(!recovered);
            assert!(s.failed());
        }
        // K-th probe: re-admitted.
        let t2 = t1 + Time::from_ms(2);
        assert!(s.sample(Some(Time::from_us(60)), false, &p, t2));
        assert!(!s.failed());
        assert_ne!(s.characterize(&p, t2), PathType::Failed);
    }

    #[test]
    fn lost_probe_knocks_probation_back_to_failed() {
        let p = params();
        let mut s = PathState::default();
        let t0 = Time::from_ms(10);
        for _ in 0..3 {
            s.on_timeout(t0);
        }
        let t1 = t0 + FAILURE_QUIET_PERIOD;
        assert!(s.in_probation(&p, t1));
        s.on_probe_lost(t1);
        assert!(!s.in_probation(&p, t1), "lost probe must demote");
        // The quiet period restarts from the lost probe, not t0.
        let t2 = t1 + FAILURE_QUIET_PERIOD - Time::from_us(1);
        assert!(!s.in_probation(&p, t2));
        assert!(s.in_probation(&p, t2 + Time::from_us(1)));
    }

    #[test]
    fn lost_probe_never_fails_a_healthy_path() {
        let p = params();
        let mut s = PathState::default();
        s.sample(Some(Time::from_us(60)), false, &p, Time::from_ms(1));
        s.on_probe_lost(Time::from_ms(2));
        assert!(!s.failed(), "probe loss alone is not a failure signal");
    }

    #[test]
    fn recovery_disabled_keeps_failure_terminally_sticky() {
        let mut p = params();
        p.enable_recovery = false;
        let mut s = PathState::default();
        let t0 = Time::from_ms(10);
        for _ in 0..3 {
            s.on_timeout(t0);
        }
        let much_later = t0 + FAILURE_QUIET_PERIOD * 100;
        assert!(!s.in_probation(&p, much_later));
        assert_eq!(s.characterize(&p, much_later), PathType::Failed);
    }

    #[test]
    fn readmission_clears_stale_failure_history() {
        let p = params();
        let mut s = PathState::default();
        // Accumulate a bad τ-window history (random drops), then fail.
        let mut now = Time::ZERO;
        for i in 0..2000u32 {
            now = Time::from_us(10 * i as u64);
            s.on_sent(&p, now);
            if i % 33 == 0 {
                s.on_retransmit(&p, now);
            }
            if i % 10 == 0 {
                s.sample(Some(Time::from_us(70)), false, &p, now);
            }
        }
        now += RETX_WINDOW;
        s.on_sent(&p, now);
        assert_eq!(s.characterize(&p, now), PathType::Failed);
        // Recover through probation.
        let t1 = now + FAILURE_QUIET_PERIOD;
        assert!(s.in_probation(&p, t1));
        for k in 0..RECOVERY_PROBE_COUNT {
            s.sample(
                Some(Time::from_us(60)),
                false,
                &p,
                t1 + Time::from_us(k as u64),
            );
        }
        assert!(!s.failed());
        // The pre-failure retransmission history must not re-fail it.
        let t2 = t1 + RETX_WINDOW;
        s.on_sent(&p, t2);
        assert_ne!(s.characterize(&p, t2), PathType::Failed);
    }

    #[test]
    fn ewma_tracks_ecn_fraction() {
        let p = params();
        let mut s = PathState::default();
        let now = Time::from_ms(1);
        for i in 0..1000 {
            s.sample(Some(Time::from_us(100)), i % 2 == 0, &p, now);
        }
        assert!((s.f_ecn() - 0.5).abs() < 0.1, "f_ecn {}", s.f_ecn());
    }
}
