//! Time-triggered fault schedules — the "chaos schedule".
//!
//! A [`FaultPlan`] is the one way to fault a run: a declarative list of
//! *(simulation time, fault action)* pairs that the runtime replays
//! through the one shared event queue, so fault injection obeys the
//! determinism contract like every other event. A failure that lasts the
//! whole run (§5.3.3's random drops and blackhole) is one
//! `SetSpineFailure` at `Time::ZERO`. The same plan tells the transient
//! story — a switch starts misbehaving mid-run, Hermes detects and
//! evacuates, the operator fixes it, and traffic returns (§2.1's "in the
//! wild" failures):
//!
//! * spine failure **onset and clearance** (blackholes, silent random
//!   drops, and stepwise drop-rate ramps),
//! * leaf↔spine link **degrade/restore** and periodic link **flapping**,
//! * whole-spine **down/up** (maintenance or crash-and-reboot).
//!
//! The plan itself never touches the fabric — it is pure data. The
//! runtime schedules one `Global` event per entry and applies it via
//! [`crate::Fabric::apply_fault`] when the event fires; mutating the
//! fabric from anywhere else bypasses the event trace and is flagged by
//! `clippy::disallowed_methods` (the root `clippy.toml`).

#![expect(
    clippy::float_arithmetic,
    reason = "drop-rate ramps are computed when the plan is built, before the run starts"
)]

use std::collections::BTreeMap;

use hermes_sim::Time;

use crate::failure::SpineFailure;
use crate::topology::Topology;
use crate::types::{LeafId, SpineId};

/// One atomic change to the fabric's health.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultAction {
    /// Install (or replace) a spine's failure mode.
    SetSpineFailure {
        spine: SpineId,
        failure: SpineFailure,
    },
    /// Restore a spine to [`SpineFailure::healthy`].
    ClearSpineFailure { spine: SpineId },
    /// Merge a per-victim-flow partial blackhole into a spine's failure
    /// state, leaving its other failure modes (random drops, pair
    /// blackhole, ECN mute) untouched — unlike `SetSpineFailure`, which
    /// replaces the whole state. This is what lets sampled chaos plans
    /// overlay independent gray failures on one switch.
    FlowBlackhole {
        spine: SpineId,
        victim_fraction: f64,
    },
    /// Merge ECN mute into a spine's failure state: the switch keeps
    /// forwarding but stops CE-marking (sensing deprivation).
    EcnMute { spine: SpineId },
    /// Clear only the ECN mute, leaving other failure modes in place.
    EcnUnmute { spine: SpineId },
    /// Sever one leaf↔spine link (both directions); packets forwarded
    /// onto it are destroyed until the matching [`FaultAction::LinkUp`].
    LinkDown { leaf: LeafId, spine: SpineId },
    /// Bring a downed leaf↔spine link back.
    LinkUp { leaf: LeafId, spine: SpineId },
    /// Change a leaf↔spine link's rate mid-run (degrade or upgrade);
    /// marking threshold and buffer are rescaled with the rate.
    SetLinkRate {
        leaf: LeafId,
        spine: SpineId,
        rate_bps: u64,
    },
    /// Restore a leaf↔spine link to its topology-configured rate.
    RestoreLinkRate { leaf: LeafId, spine: SpineId },
    /// Take a whole spine out of service: every live link to it drops.
    SpineDown { spine: SpineId },
    /// Return a whole spine to service.
    SpineUp { spine: SpineId },
}

impl FaultAction {
    /// Stable snake_case name of the variant: the `kind` key of the
    /// chaos corpus format and the label of traced `fault_applied`
    /// records.
    pub fn kind(&self) -> &'static str {
        match self {
            FaultAction::SetSpineFailure { .. } => "set_spine_failure",
            FaultAction::ClearSpineFailure { .. } => "clear_spine_failure",
            FaultAction::FlowBlackhole { .. } => "flow_blackhole",
            FaultAction::EcnMute { .. } => "ecn_mute",
            FaultAction::EcnUnmute { .. } => "ecn_unmute",
            FaultAction::LinkDown { .. } => "link_down",
            FaultAction::LinkUp { .. } => "link_up",
            FaultAction::SetLinkRate { .. } => "set_link_rate",
            FaultAction::RestoreLinkRate { .. } => "restore_link_rate",
            FaultAction::SpineDown { .. } => "spine_down",
            FaultAction::SpineUp { .. } => "spine_up",
        }
    }
}

/// A fault action bound to a simulation instant.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultEvent {
    pub at: Time,
    pub action: FaultAction,
}

/// A deterministic schedule of fault events.
///
/// Events fire in time order; events sharing an instant apply in
/// insertion order (the event queue is FIFO among equal timestamps).
/// Builders are chainable and expand compound scenarios (windows,
/// ramps, flapping) into plain event lists at build time, so the
/// resulting plan is a static, auditable value — printable, cloneable,
/// and identical on every run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

/// Why a [`FaultPlan`] is not applicable — to any fabric
/// ([`FaultPlan::validate`]) or to one topology
/// ([`FaultPlan::validate_on`]). Each variant names the first offending
/// event's time so a generated plan can be triaged by reading it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum PlanError {
    /// A `LinkUp` with no preceding `LinkDown` on that link.
    LinkUpWithoutDown {
        leaf: LeafId,
        spine: SpineId,
        at: Time,
    },
    /// A `LinkDown` on a link that is already down — two contradictory
    /// overlapping windows on the same link (the matching `LinkUp` of
    /// the first window would half-revert the second).
    LinkAlreadyDown {
        leaf: LeafId,
        spine: SpineId,
        at: Time,
    },
    /// A `SpineUp` with no preceding `SpineDown` on that spine.
    SpineUpWithoutDown { spine: SpineId, at: Time },
    /// A `SpineDown` on a spine that is already out of service.
    SpineAlreadyDown { spine: SpineId, at: Time },
    /// A second `SetSpineFailure` for one spine at one instant: it would
    /// silently replace the first. (The merge actions, `FlowBlackhole`
    /// and `EcnMute`, compose and may share the instant.)
    SpineFailureSetTwice { spine: SpineId, at: Time },
    /// A probability/fraction outside `[0, 1]` (`what` names the field).
    FractionOutOfRange {
        what: &'static str,
        value: f64,
        at: Time,
    },
    /// A pair blackhole whose source and destination are one leaf:
    /// intra-rack traffic never crosses a spine, so it could never match.
    IntraRackBlackhole {
        spine: SpineId,
        leaf: LeafId,
        at: Time,
    },
    /// A `SetLinkRate` to 0 bps — a dead link must use `LinkDown`.
    ZeroLinkRate {
        leaf: LeafId,
        spine: SpineId,
        at: Time,
    },
    /// The action (`kind` is [`FaultAction::kind`]) names a spine, a
    /// leaf, or — when link-level — a leaf↔spine link that the topology
    /// it is installed on does not have. `leaf` is `None` when the spine
    /// alone is out of range.
    NotInTopology {
        kind: &'static str,
        leaf: Option<LeafId>,
        spine: SpineId,
        at: Time,
    },
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match *self {
            PlanError::LinkUpWithoutDown { leaf, spine, at } => write!(
                f,
                "LinkUp at {at} for leaf {} / spine {} without a prior LinkDown",
                leaf.0, spine.0
            ),
            PlanError::LinkAlreadyDown { leaf, spine, at } => write!(
                f,
                "LinkDown at {at} for leaf {} / spine {} overlaps an earlier down window",
                leaf.0, spine.0
            ),
            PlanError::SpineUpWithoutDown { spine, at } => write!(
                f,
                "SpineUp at {at} for spine {} without a prior SpineDown",
                spine.0
            ),
            PlanError::SpineAlreadyDown { spine, at } => write!(
                f,
                "SpineDown at {at} for spine {} overlaps an earlier outage",
                spine.0
            ),
            PlanError::SpineFailureSetTwice { spine, at } => write!(
                f,
                "SetSpineFailure at {at} for spine {} replaces another at the same instant",
                spine.0
            ),
            PlanError::FractionOutOfRange { what, value, at } => {
                write!(f, "{what} = {value} at {at} is outside [0, 1]")
            }
            PlanError::IntraRackBlackhole { spine, leaf, at } => write!(
                f,
                "blackhole at {at} on spine {} has leaf {} as both source and destination; \
                 intra-rack traffic never crosses a spine",
                spine.0, leaf.0
            ),
            PlanError::ZeroLinkRate { leaf, spine, at } => write!(
                f,
                "SetLinkRate to 0 bps at {at} for leaf {} / spine {}; use LinkDown for a dead link",
                leaf.0, spine.0
            ),
            PlanError::NotInTopology {
                kind,
                leaf,
                spine,
                at,
            } => {
                let leaf = leaf.map_or(String::new(), |l| format!("leaf {} / ", l.0));
                let s = spine.0;
                write!(
                    f,
                    "{kind} at {at} names {leaf}spine {s}, which the topology does not have"
                )
            }
        }
    }
}

impl std::error::Error for PlanError {}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// The scheduled events, in insertion order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The time of the last scheduled event (`Time::ZERO` if empty).
    pub fn end_time(&self) -> Time {
        self.events.iter().map(|e| e.at).max().unwrap_or(Time::ZERO)
    }

    /// Schedule one raw action.
    pub fn at(mut self, at: Time, action: FaultAction) -> FaultPlan {
        self.events.push(FaultEvent { at, action });
        self
    }

    /// A blackhole on `spine` for `src_leaf → dst_leaf` pairs, active
    /// over `[onset, clear)`.
    pub fn blackhole_window(
        self,
        spine: SpineId,
        src_leaf: LeafId,
        dst_leaf: LeafId,
        pair_fraction: f64,
        onset: Time,
        clear: Time,
    ) -> FaultPlan {
        assert!(onset < clear, "fault window must have positive length");
        self.at(
            onset,
            FaultAction::SetSpineFailure {
                spine,
                failure: SpineFailure::blackhole(src_leaf, dst_leaf, pair_fraction),
            },
        )
        .at(clear, FaultAction::ClearSpineFailure { spine })
    }

    /// Silent random drops at `rate` on `spine` over `[onset, clear)`.
    pub fn random_drop_window(
        self,
        spine: SpineId,
        rate: f64,
        onset: Time,
        clear: Time,
    ) -> FaultPlan {
        assert!(onset < clear, "fault window must have positive length");
        self.at(
            onset,
            FaultAction::SetSpineFailure {
                spine,
                failure: SpineFailure::random_drops(rate),
            },
        )
        .at(clear, FaultAction::ClearSpineFailure { spine })
    }

    /// A drop-rate ramp: the spine's silent-drop probability climbs from
    /// `peak/steps` to `peak` in `steps` equal increments spread across
    /// `[onset, clear)`, then clears at `clear` — the "slowly dying
    /// linecard" pattern where loss starts marginal and worsens.
    pub fn drop_rate_ramp(
        mut self,
        spine: SpineId,
        peak: f64,
        onset: Time,
        clear: Time,
        steps: u32,
    ) -> FaultPlan {
        assert!(onset < clear, "fault window must have positive length");
        assert!(steps >= 1, "a ramp needs at least one step");
        assert!((0.0..=1.0).contains(&peak), "peak drop rate out of range");
        let span = clear - onset;
        for k in 0..steps {
            let at = onset + span.mul_f64(f64::from(k) / f64::from(steps));
            let rate = peak * f64::from(k + 1) / f64::from(steps);
            self = self.at(
                at,
                FaultAction::SetSpineFailure {
                    spine,
                    failure: SpineFailure::random_drops(rate),
                },
            );
        }
        self.at(clear, FaultAction::ClearSpineFailure { spine })
    }

    /// Degrade one leaf↔spine link to `rate_bps` over `[onset, clear)`,
    /// then restore its topology-configured rate.
    pub fn link_degrade_window(
        self,
        leaf: LeafId,
        spine: SpineId,
        rate_bps: u64,
        onset: Time,
        clear: Time,
    ) -> FaultPlan {
        assert!(onset < clear, "fault window must have positive length");
        assert!(rate_bps > 0, "a degraded link still needs a rate");
        self.at(
            onset,
            FaultAction::SetLinkRate {
                leaf,
                spine,
                rate_bps,
            },
        )
        .at(clear, FaultAction::RestoreLinkRate { leaf, spine })
    }

    /// Periodic link flapping: starting at `first_down`, the link goes
    /// down for `downtime` once every `period`, with the last flap
    /// starting strictly before `until`. Expanded into explicit
    /// down/up event pairs so the plan stays a flat, inspectable list.
    pub fn link_flap(
        mut self,
        leaf: LeafId,
        spine: SpineId,
        first_down: Time,
        downtime: Time,
        period: Time,
        until: Time,
    ) -> FaultPlan {
        assert!(
            downtime > Time::ZERO && downtime < period,
            "flap must spend time up and down"
        );
        let mut down_at = first_down;
        while down_at < until {
            self = self
                .at(down_at, FaultAction::LinkDown { leaf, spine })
                .at(down_at + downtime, FaultAction::LinkUp { leaf, spine });
            down_at += period;
        }
        self
    }

    /// A whole-spine outage over `[down_at, up_at)`.
    pub fn spine_outage(self, spine: SpineId, down_at: Time, up_at: Time) -> FaultPlan {
        assert!(down_at < up_at, "outage must have positive length");
        self.at(down_at, FaultAction::SpineDown { spine })
            .at(up_at, FaultAction::SpineUp { spine })
    }

    /// A per-victim-flow partial blackhole on `spine` over
    /// `[onset, clear)`. The clear merges `victim_fraction = 0` back in
    /// rather than wiping the spine's whole failure state, so an
    /// overlapping window of a different failure mode survives.
    pub fn flow_blackhole_window(
        self,
        spine: SpineId,
        victim_fraction: f64,
        onset: Time,
        clear: Time,
    ) -> FaultPlan {
        assert!(onset < clear, "fault window must have positive length");
        assert!(
            (0.0..=1.0).contains(&victim_fraction),
            "victim_fraction out of range"
        );
        self.at(
            onset,
            FaultAction::FlowBlackhole {
                spine,
                victim_fraction,
            },
        )
        .at(
            clear,
            FaultAction::FlowBlackhole {
                spine,
                victim_fraction: 0.0,
            },
        )
    }

    /// An ECN mute on `spine` over `[onset, clear)`: the switch keeps
    /// forwarding but stops CE-marking until the window closes.
    pub fn ecn_mute_window(self, spine: SpineId, onset: Time, clear: Time) -> FaultPlan {
        assert!(onset < clear, "fault window must have positive length");
        self.at(onset, FaultAction::EcnMute { spine })
            .at(clear, FaultAction::EcnUnmute { spine })
    }

    /// Check the plan is applicable to *some* fabric: link and spine
    /// up/down events pair correctly (no `LinkUp` without a prior
    /// `LinkDown`, no contradictory overlapping down windows on the
    /// same link or spine), no spine gets two `SetSpineFailure`s at one
    /// instant, and every probability/fraction/rate is in range. Events
    /// are checked in the order the runtime will apply them: by time,
    /// insertion order within an instant.
    ///
    /// The chainable builders already enforce these shapes, but a plan
    /// assembled from raw [`FaultPlan::at`] calls — or sampled and
    /// mutated by the chaos shrinker — can violate them. See
    /// [`FaultPlan::validate_on`] for the check against one topology.
    pub fn validate(&self) -> Result<(), PlanError> {
        let mut order: Vec<&FaultEvent> = self.events.iter().collect();
        order.sort_by_key(|e| e.at); // stable: insertion order within an instant
        let mut link_down: BTreeMap<(u16, u16), bool> = BTreeMap::new();
        let mut spine_down: BTreeMap<u16, bool> = BTreeMap::new();
        // The last instant each spine's failure was set.
        let mut spine_set: BTreeMap<u16, Time> = BTreeMap::new();
        for ev in order {
            let at = ev.at;
            let frac = |what: &'static str, value: f64| match value {
                v if (0.0..=1.0).contains(&v) => Ok(()),
                _ => Err(PlanError::FractionOutOfRange { what, value, at }),
            };
            match ev.action {
                FaultAction::SetSpineFailure { spine, failure } => {
                    if spine_set.insert(spine.0, at) == Some(at) {
                        return Err(PlanError::SpineFailureSetTwice { spine, at });
                    }
                    frac("random_drop", failure.random_drop)?;
                    if let Some(bh) = failure.blackhole {
                        frac("pair_fraction", bh.pair_fraction)?;
                        if bh.src_leaf == bh.dst_leaf {
                            let leaf = bh.src_leaf;
                            return Err(PlanError::IntraRackBlackhole { spine, leaf, at });
                        }
                    }
                    if let Some(fb) = failure.flow_blackhole {
                        frac("victim_fraction", fb.victim_fraction)?;
                    }
                }
                FaultAction::FlowBlackhole {
                    victim_fraction, ..
                } => frac("victim_fraction", victim_fraction)?,
                FaultAction::LinkDown { leaf, spine } => {
                    let down = link_down.entry((leaf.0, spine.0)).or_insert(false);
                    if *down {
                        return Err(PlanError::LinkAlreadyDown { leaf, spine, at });
                    }
                    *down = true;
                }
                FaultAction::LinkUp { leaf, spine } => {
                    let down = link_down.entry((leaf.0, spine.0)).or_insert(false);
                    if !*down {
                        return Err(PlanError::LinkUpWithoutDown { leaf, spine, at });
                    }
                    *down = false;
                }
                FaultAction::SetLinkRate {
                    leaf,
                    spine,
                    rate_bps,
                } => {
                    if rate_bps == 0 {
                        return Err(PlanError::ZeroLinkRate { leaf, spine, at });
                    }
                }
                FaultAction::SpineDown { spine } => {
                    let down = spine_down.entry(spine.0).or_insert(false);
                    if *down {
                        return Err(PlanError::SpineAlreadyDown { spine, at });
                    }
                    *down = true;
                }
                FaultAction::SpineUp { spine } => {
                    let down = spine_down.entry(spine.0).or_insert(false);
                    if !*down {
                        return Err(PlanError::SpineUpWithoutDown { spine, at });
                    }
                    *down = false;
                }
                FaultAction::ClearSpineFailure { .. }
                | FaultAction::EcnMute { .. }
                | FaultAction::EcnUnmute { .. }
                | FaultAction::RestoreLinkRate { .. } => {}
            }
        }
        Ok(())
    }

    /// [`FaultPlan::validate`], plus the plan fits *this* fabric: every
    /// spine and leaf index exists, and every link-level action names a
    /// link the topology wired (else its event would panic when it
    /// fires). The runtime calls this at install; `validate` remains
    /// for callers with no fabric at hand (the chaos shrinker).
    pub fn validate_on(&self, topo: &Topology) -> Result<(), PlanError> {
        self.validate()?;
        for ev in &self.events {
            // The spine every action names, the leaf of a link-level
            // action (whose link must be wired), a pair blackhole's leaves.
            let (spine, link_leaf, bh) = match ev.action {
                FaultAction::SetSpineFailure { spine, failure } => (spine, None, failure.blackhole),
                FaultAction::LinkDown { leaf, spine }
                | FaultAction::LinkUp { leaf, spine }
                | FaultAction::SetLinkRate { leaf, spine, .. }
                | FaultAction::RestoreLinkRate { leaf, spine } => (spine, Some(leaf), None),
                FaultAction::ClearSpineFailure { spine }
                | FaultAction::FlowBlackhole { spine, .. }
                | FaultAction::EcnMute { spine }
                | FaultAction::EcnUnmute { spine }
                | FaultAction::SpineDown { spine }
                | FaultAction::SpineUp { spine } => (spine, None, None),
            };
            let leaves = [link_leaf, bh.map(|b| b.src_leaf), bh.map(|b| b.dst_leaf)];
            let mut named = leaves.into_iter().flatten();
            let bad_leaf = named.find(|l| usize::from(l.0) >= topo.n_leaves);
            let wired = |l: LeafId| topo.up[usize::from(l.0)][usize::from(spine.0)].is_some();
            let fits = usize::from(spine.0) < topo.n_spines
                && bad_leaf.is_none()
                && link_leaf.is_none_or(wired);
            if !fits {
                return Err(PlanError::NotInTopology {
                    kind: ev.action.kind(),
                    leaf: bad_leaf.or(link_leaf),
                    spine,
                    at: ev.at,
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_expand_to_onset_and_clear() {
        let plan = FaultPlan::new().blackhole_window(
            SpineId(2),
            LeafId(0),
            LeafId(7),
            0.5,
            Time::from_ms(100),
            Time::from_ms(300),
        );
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].at, Time::from_ms(100));
        assert!(matches!(
            plan.events()[0].action,
            FaultAction::SetSpineFailure {
                spine: SpineId(2),
                ..
            }
        ));
        assert!(matches!(
            plan.events()[1].action,
            FaultAction::ClearSpineFailure { spine: SpineId(2) }
        ));
        assert_eq!(plan.end_time(), Time::from_ms(300));
    }

    #[test]
    fn ramp_is_monotone_and_hits_peak() {
        let plan = FaultPlan::new().drop_rate_ramp(
            SpineId(0),
            0.08,
            Time::from_ms(10),
            Time::from_ms(50),
            4,
        );
        assert_eq!(plan.len(), 5); // 4 steps + clear
        let mut last_rate = 0.0;
        let mut last_at = Time::ZERO;
        for e in &plan.events()[..4] {
            let FaultAction::SetSpineFailure { failure, .. } = e.action else {
                panic!("ramp step must set a failure");
            };
            assert!(failure.random_drop > last_rate, "ramp must climb");
            assert!(e.at >= last_at, "ramp must move forward in time");
            last_rate = failure.random_drop;
            last_at = e.at;
        }
        assert!((last_rate - 0.08).abs() < 1e-12, "final step is the peak");
        assert!(matches!(
            plan.events()[4].action,
            FaultAction::ClearSpineFailure { .. }
        ));
    }

    #[test]
    fn flap_expands_into_paired_events_within_bounds() {
        let plan = FaultPlan::new().link_flap(
            LeafId(1),
            SpineId(3),
            Time::from_ms(10),
            Time::from_ms(2),
            Time::from_ms(10),
            Time::from_ms(40),
        );
        // Flaps start at 10, 20, 30 ms (40 is not < until).
        assert_eq!(plan.len(), 6);
        for pair in plan.events().chunks(2) {
            assert!(matches!(pair[0].action, FaultAction::LinkDown { .. }));
            assert!(matches!(pair[1].action, FaultAction::LinkUp { .. }));
            assert_eq!(pair[1].at - pair[0].at, Time::from_ms(2));
        }
        assert_eq!(plan.end_time(), Time::from_ms(32));
    }

    #[test]
    #[should_panic]
    fn inverted_window_is_rejected() {
        let _ = FaultPlan::new().random_drop_window(
            SpineId(0),
            0.02,
            Time::from_ms(5),
            Time::from_ms(5),
        );
    }

    #[test]
    fn gray_failure_windows_expand_and_validate() {
        let plan = FaultPlan::new()
            .flow_blackhole_window(SpineId(1), 0.4, Time::from_ms(5), Time::from_ms(20))
            .ecn_mute_window(SpineId(2), Time::from_ms(8), Time::from_ms(30));
        assert_eq!(plan.len(), 4);
        assert!(matches!(
            plan.events()[0].action,
            FaultAction::FlowBlackhole {
                spine: SpineId(1),
                ..
            }
        ));
        let FaultAction::FlowBlackhole {
            victim_fraction, ..
        } = plan.events()[1].action
        else {
            panic!("window must clear by merging fraction 0");
        };
        assert_eq!(victim_fraction, 0.0);
        assert!(matches!(
            plan.events()[2].action,
            FaultAction::EcnMute { spine: SpineId(2) }
        ));
        assert!(matches!(
            plan.events()[3].action,
            FaultAction::EcnUnmute { spine: SpineId(2) }
        ));
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn validate_accepts_every_builder_shape() {
        let plan = FaultPlan::new()
            .blackhole_window(
                SpineId(0),
                LeafId(0),
                LeafId(1),
                1.0,
                Time::from_ms(1),
                Time::from_ms(9),
            )
            .drop_rate_ramp(SpineId(1), 0.08, Time::from_ms(2), Time::from_ms(12), 4)
            .link_flap(
                LeafId(0),
                SpineId(2),
                Time::from_ms(3),
                Time::from_ms(1),
                Time::from_ms(4),
                Time::from_ms(15),
            )
            .link_degrade_window(
                LeafId(1),
                SpineId(3),
                1_000_000_000,
                Time::from_ms(2),
                Time::from_ms(10),
            )
            .spine_outage(SpineId(3), Time::from_ms(20), Time::from_ms(25))
            .flow_blackhole_window(SpineId(2), 0.5, Time::from_ms(6), Time::from_ms(18))
            .ecn_mute_window(SpineId(0), Time::from_ms(10), Time::from_ms(20));
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_link_up_without_down() {
        let plan = FaultPlan::new().at(
            Time::from_ms(5),
            FaultAction::LinkUp {
                leaf: LeafId(0),
                spine: SpineId(1),
            },
        );
        assert_eq!(
            plan.validate(),
            Err(PlanError::LinkUpWithoutDown {
                leaf: LeafId(0),
                spine: SpineId(1),
                at: Time::from_ms(5),
            })
        );
    }

    #[test]
    fn validate_rejects_overlapping_down_windows_on_one_link() {
        // Two flap windows on the same link that interleave: the second
        // LinkDown lands while the first window is still open.
        let plan = FaultPlan::new()
            .at(
                Time::from_ms(1),
                FaultAction::LinkDown {
                    leaf: LeafId(0),
                    spine: SpineId(0),
                },
            )
            .at(
                Time::from_ms(2),
                FaultAction::LinkDown {
                    leaf: LeafId(0),
                    spine: SpineId(0),
                },
            )
            .at(
                Time::from_ms(3),
                FaultAction::LinkUp {
                    leaf: LeafId(0),
                    spine: SpineId(0),
                },
            );
        assert_eq!(
            plan.validate(),
            Err(PlanError::LinkAlreadyDown {
                leaf: LeafId(0),
                spine: SpineId(0),
                at: Time::from_ms(2),
            })
        );
        // Distinct links may overlap freely.
        let ok = FaultPlan::new()
            .link_flap(
                LeafId(0),
                SpineId(0),
                Time::from_ms(1),
                Time::from_ms(2),
                Time::from_ms(5),
                Time::from_ms(20),
            )
            .link_flap(
                LeafId(1),
                SpineId(0),
                Time::from_ms(2),
                Time::from_ms(2),
                Time::from_ms(5),
                Time::from_ms(20),
            );
        assert_eq!(ok.validate(), Ok(()));
    }

    #[test]
    fn validate_orders_by_time_not_insertion() {
        // Inserted up-before-down, but the *times* pair correctly.
        let plan = FaultPlan::new()
            .at(
                Time::from_ms(9),
                FaultAction::LinkUp {
                    leaf: LeafId(2),
                    spine: SpineId(1),
                },
            )
            .at(
                Time::from_ms(4),
                FaultAction::LinkDown {
                    leaf: LeafId(2),
                    spine: SpineId(1),
                },
            );
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_spine_outage_mismatches() {
        let up_first =
            FaultPlan::new().at(Time::from_ms(2), FaultAction::SpineUp { spine: SpineId(0) });
        assert_eq!(
            up_first.validate(),
            Err(PlanError::SpineUpWithoutDown {
                spine: SpineId(0),
                at: Time::from_ms(2),
            })
        );
        let double_down = FaultPlan::new()
            .at(
                Time::from_ms(1),
                FaultAction::SpineDown { spine: SpineId(3) },
            )
            .at(
                Time::from_ms(2),
                FaultAction::SpineDown { spine: SpineId(3) },
            );
        assert_eq!(
            double_down.validate(),
            Err(PlanError::SpineAlreadyDown {
                spine: SpineId(3),
                at: Time::from_ms(2),
            })
        );
    }

    #[test]
    fn validate_rejects_an_intra_rack_blackhole() {
        let hole = |dst| {
            FaultPlan::new().blackhole_window(
                SpineId(2),
                LeafId(1),
                LeafId(dst),
                1.0,
                Time::from_ms(3),
                Time::from_ms(9),
            )
        };
        let err = hole(1).validate().expect_err("src leaf == dst leaf");
        assert_eq!(
            err,
            PlanError::IntraRackBlackhole {
                spine: SpineId(2),
                leaf: LeafId(1),
                at: Time::from_ms(3),
            }
        );
        let msg = err.to_string();
        assert!(msg.contains("spine 2") && msg.contains("leaf 1"), "{msg}");
        assert_eq!(hole(0).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_a_spine_failure_set_twice_at_one_instant() {
        let spine = SpineId(1);
        let set = FaultAction::SetSpineFailure {
            spine,
            failure: SpineFailure::random_drops(0.1),
        };
        let t = Time::ZERO;
        assert_eq!(
            FaultPlan::new().at(t, set).at(t, set).validate(),
            Err(PlanError::SpineFailureSetTwice { spine, at: t })
        );
        // The merge actions compose with a set at the same instant, and
        // one spine may be set again later (a ramp's next step).
        let merged = FaultPlan::new()
            .at(t, set)
            .at(
                t,
                FaultAction::FlowBlackhole {
                    spine,
                    victim_fraction: 0.5,
                },
            )
            .at(t, FaultAction::EcnMute { spine });
        assert_eq!(merged.validate(), Ok(()));
        let later = FaultPlan::new().at(t, set).at(Time::from_ms(1), set);
        assert_eq!(later.validate(), Ok(()));
        // Other spines at the same instant are independent.
        let other = FaultAction::SetSpineFailure {
            spine: SpineId(2),
            failure: SpineFailure::random_drops(0.1),
        };
        assert_eq!(FaultPlan::new().at(t, set).at(t, other).validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_out_of_range_rates() {
        let bad_drop = FaultPlan::new().at(
            Time::from_ms(1),
            FaultAction::SetSpineFailure {
                spine: SpineId(0),
                failure: SpineFailure {
                    random_drop: 1.5,
                    ..SpineFailure::default()
                },
            },
        );
        assert_eq!(
            bad_drop.validate(),
            Err(PlanError::FractionOutOfRange {
                what: "random_drop",
                value: 1.5,
                at: Time::from_ms(1),
            })
        );
        let bad_victim = FaultPlan::new().at(
            Time::from_ms(2),
            FaultAction::FlowBlackhole {
                spine: SpineId(1),
                victim_fraction: -0.25,
            },
        );
        assert_eq!(
            bad_victim.validate(),
            Err(PlanError::FractionOutOfRange {
                what: "victim_fraction",
                value: -0.25,
                at: Time::from_ms(2),
            })
        );
        let zero_rate = FaultPlan::new().at(
            Time::from_ms(3),
            FaultAction::SetLinkRate {
                leaf: LeafId(1),
                spine: SpineId(2),
                rate_bps: 0,
            },
        );
        assert_eq!(
            zero_rate.validate(),
            Err(PlanError::ZeroLinkRate {
                leaf: LeafId(1),
                spine: SpineId(2),
                at: Time::from_ms(3),
            })
        );
    }

    #[test]
    fn validate_on_rejects_indices_the_topology_lacks() {
        let topo = Topology::testbed(); // 2 leaves, 4 spines
        let at = Time::from_ms(5);
        let (leaf, spine) = (LeafId(9), SpineId(0));
        let down = FaultAction::LinkDown { leaf, spine };
        let plan = FaultPlan::new().at(at, down);
        assert_eq!(plan.validate(), Ok(()), "fits *some* fabric");
        let err = plan.validate_on(&topo).expect_err("leaf 9 of 2");
        let expect = PlanError::NotInTopology {
            kind: "link_down",
            leaf: Some(leaf),
            spine,
            at,
        };
        assert_eq!(err, expect);
        let msg = err.to_string();
        assert!(
            msg.contains("link_down at 5.000ms") && msg.contains("leaf 9"),
            "{msg}"
        );
        // A spine-level action and a blackhole's leaf pair are checked too.
        let mute = FaultPlan::new().ecn_mute_window(SpineId(4), at, at * 2);
        assert_eq!(
            mute.validate_on(&topo),
            Err(PlanError::NotInTopology {
                kind: "ecn_mute",
                leaf: None,
                spine: SpineId(4),
                at,
            })
        );
        let bh =
            FaultPlan::new().blackhole_window(SpineId(0), LeafId(0), LeafId(2), 1.0, at, at * 2);
        assert!(matches!(
            bh.validate_on(&topo),
            Err(PlanError::NotInTopology {
                leaf: Some(LeafId(2)),
                ..
            })
        ));
        // Spine 4 and leaf 2 exist on the 8×8.
        let big = Topology::sim_baseline();
        for plan in [mute, bh] {
            assert_eq!(plan.validate_on(&big), Ok(()));
        }
    }

    #[test]
    fn validate_on_rejects_link_actions_on_a_cut_link() {
        let mut topo = Topology::testbed();
        topo.cut_link(LeafId(0), SpineId(1));
        let flap = |spine| {
            FaultPlan::new().link_flap(
                LeafId(0),
                SpineId(spine),
                Time::from_ms(1),
                Time::from_ms(1),
                Time::from_ms(4),
                Time::from_ms(9),
            )
        };
        assert_eq!(
            flap(1).validate_on(&topo),
            Err(PlanError::NotInTopology {
                kind: "link_down",
                leaf: Some(LeafId(0)),
                spine: SpineId(1),
                at: Time::from_ms(1),
            })
        );
        assert_eq!(flap(2).validate_on(&topo), Ok(()));
        let degrade = FaultPlan::new().link_degrade_window(
            LeafId(0),
            SpineId(1),
            100_000_000,
            Time::from_ms(2),
            Time::from_ms(3),
        );
        assert!(degrade.validate_on(&topo).is_err());
        // Spine-level actions on the spine that lost a link still fit.
        let outage = FaultPlan::new().spine_outage(SpineId(1), Time::from_ms(2), Time::from_ms(3));
        assert_eq!(outage.validate_on(&topo), Ok(()));
    }

    #[test]
    fn compound_plans_keep_insertion_order_within_an_instant() {
        let t = Time::from_ms(7);
        let plan = FaultPlan::new()
            .at(t, FaultAction::SpineDown { spine: SpineId(1) })
            .at(t, FaultAction::SpineUp { spine: SpineId(1) });
        assert!(matches!(
            plan.events()[0].action,
            FaultAction::SpineDown { .. }
        ));
        assert!(matches!(
            plan.events()[1].action,
            FaultAction::SpineUp { .. }
        ));
    }
}
