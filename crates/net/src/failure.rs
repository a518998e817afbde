//! Switch failure injection: silent random packet drops and packet
//! blackholes (§2.1, evaluated in §5.3.3).
//!
//! Both failure modes reproduce the Microsoft production study the paper
//! cites (Guo et al., Pingmesh): a malfunctioning switch either drops a
//! high fraction of all traversing packets silently, or deterministically
//! drops every packet matching certain source–destination "patterns".

#![expect(
    clippy::float_arithmetic,
    reason = "hash->unit-interval mapping, a pure function of the packet tuple"
)]

use crate::types::{FlowId, HostId, LeafId};

/// Deterministic blackhole: the switch drops 100% of packets whose
/// (source, destination) hosts fall in the configured rack pair *and*
/// whose pair-hash lands below `pair_fraction`.
///
/// With `pair_fraction = 0.5` this is the paper's Fig. 17 scenario:
/// "drop packets for half of the source-destination IP pairs from
/// Rack 1 to Rack 8 deterministically".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Blackhole {
    pub src_leaf: LeafId,
    pub dst_leaf: LeafId,
    /// Fraction of host pairs affected, in `[0, 1]`.
    pub pair_fraction: f64,
}

impl Blackhole {
    /// Whether a packet from `src` to `dst` (hosts) matches the hole.
    ///
    /// The match is deterministic in (src, dst): the same pair is either
    /// always dropped or never — exactly the failure signature Hermes'
    /// 3-timeouts-and-nothing-ACKed detector keys on.
    pub fn matches(&self, src: HostId, dst: HostId, src_leaf: LeafId, dst_leaf: LeafId) -> bool {
        if src_leaf != self.src_leaf || dst_leaf != self.dst_leaf {
            return false;
        }
        pair_unit(src, dst) < self.pair_fraction
    }
}

/// Hash a host pair to a deterministic point in `[0, 1)`.
///
/// Public so property tests can pin the codomain: `matches` compares
/// this value against `pair_fraction`, so the whole-fraction semantics
/// ("1.0 hits every pair, 0.0 hits none") rely on the range being
/// half-open.
pub fn pair_unit(src: HostId, dst: HostId) -> f64 {
    let mut z = ((src.0 as u64) << 32) | dst.0 as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Hash a flow id to a deterministic point in `[0, 1)` — the per-flow
/// analogue of [`pair_unit`], used by [`FlowBlackhole::matches`]. Same
/// half-open codomain, so `victim_fraction = 1.0` hits every flow and
/// `0.0` hits none.
pub fn flow_unit(flow: FlowId) -> f64 {
    let mut z = flow.0;
    z = z.wrapping_add(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 / (1u64 << 53) as f64
}

/// Gray failure: the switch deterministically drops every packet of a
/// *victim subset of flows*, regardless of rack pair — the "pattern"
/// blackhole of the Microsoft study at flow granularity. Unlike
/// [`Blackhole`] this punishes rehashing schemes asymmetrically: a
/// victim flow is dead on this spine no matter which host pair it
/// joins, so only schemes that move the flow *off the spine* recover.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlowBlackhole {
    /// Fraction of flows affected, in `[0, 1]`.
    pub victim_fraction: f64,
}

impl FlowBlackhole {
    /// Whether packets of `flow` are swallowed by this hole. The match
    /// is a pure function of the flow id: a victim flow is *always*
    /// dropped here, a non-victim never — the signature Hermes'
    /// 3-timeouts-and-nothing-ACKed detector keys on.
    pub fn matches(&self, flow: FlowId) -> bool {
        flow_unit(flow) < self.victim_fraction
    }
}

/// Failure state of one spine switch.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SpineFailure {
    /// Probability that any traversing packet is silently dropped.
    pub random_drop: f64,
    /// Optional deterministic blackhole.
    pub blackhole: Option<Blackhole>,
    /// Optional per-victim-flow partial blackhole.
    pub flow_blackhole: Option<FlowBlackhole>,
    /// ECN mute: the switch keeps forwarding but stops CE-marking, so
    /// congestion-sensing load balancers fly blind through it. Packets
    /// are *not* dropped; the failure is pure sensing deprivation.
    pub ecn_mute: bool,
}

impl SpineFailure {
    /// A healthy switch.
    pub fn healthy() -> SpineFailure {
        SpineFailure::default()
    }

    /// A switch silently dropping `rate` of packets (Fig. 16 uses 0.02).
    pub fn random_drops(rate: f64) -> SpineFailure {
        assert!((0.0..=1.0).contains(&rate));
        SpineFailure {
            random_drop: rate,
            ..SpineFailure::default()
        }
    }

    /// A switch blackholing `pair_fraction` of host pairs from
    /// `src_leaf` to `dst_leaf`.
    pub fn blackhole(src_leaf: LeafId, dst_leaf: LeafId, pair_fraction: f64) -> SpineFailure {
        assert!(
            (0.0..=1.0).contains(&pair_fraction),
            "pair_fraction must lie in [0, 1], got {pair_fraction}"
        );
        SpineFailure {
            blackhole: Some(Blackhole {
                src_leaf,
                dst_leaf,
                pair_fraction,
            }),
            ..SpineFailure::default()
        }
    }

    /// A switch blackholing `victim_fraction` of flows, everywhere.
    pub fn flow_blackhole(victim_fraction: f64) -> SpineFailure {
        assert!(
            (0.0..=1.0).contains(&victim_fraction),
            "victim_fraction must lie in [0, 1], got {victim_fraction}"
        );
        SpineFailure {
            flow_blackhole: Some(FlowBlackhole { victim_fraction }),
            ..SpineFailure::default()
        }
    }

    /// A switch that forwards normally but no longer CE-marks.
    pub fn ecn_muted() -> SpineFailure {
        SpineFailure {
            ecn_mute: true,
            ..SpineFailure::default()
        }
    }

    /// Merge a flow-blackhole setting into this state, leaving every
    /// other failure mode untouched; a fraction of 0 clears the hole
    /// (nothing can hash strictly below 0, and normalizing to `None`
    /// keeps [`SpineFailure::is_failed`] honest).
    pub fn with_flow_blackhole(mut self, victim_fraction: f64) -> SpineFailure {
        self.flow_blackhole = if victim_fraction > 0.0 {
            Some(FlowBlackhole { victim_fraction })
        } else {
            None
        };
        self
    }

    /// Merge an ECN-mute setting into this state, leaving every other
    /// failure mode untouched.
    pub fn with_ecn_mute(mut self, mute: bool) -> SpineFailure {
        self.ecn_mute = mute;
        self
    }

    /// Whether this switch has any failure configured.
    pub fn is_failed(&self) -> bool {
        self.random_drop > 0.0
            || self.blackhole.is_some()
            || self.flow_blackhole.is_some()
            || self.ecn_mute
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blackhole_is_deterministic_per_pair() {
        let b = Blackhole {
            src_leaf: LeafId(0),
            dst_leaf: LeafId(7),
            pair_fraction: 0.5,
        };
        for s in 0..16u32 {
            for d in 112..128u32 {
                let m1 = b.matches(HostId(s), HostId(d), LeafId(0), LeafId(7));
                let m2 = b.matches(HostId(s), HostId(d), LeafId(0), LeafId(7));
                assert_eq!(m1, m2);
            }
        }
    }

    #[test]
    fn blackhole_hits_roughly_the_fraction() {
        let b = Blackhole {
            src_leaf: LeafId(0),
            dst_leaf: LeafId(7),
            pair_fraction: 0.5,
        };
        let mut hits = 0;
        let total = 16 * 16;
        for s in 0..16u32 {
            for d in 112..128u32 {
                if b.matches(HostId(s), HostId(d), LeafId(0), LeafId(7)) {
                    hits += 1;
                }
            }
        }
        let frac = hits as f64 / total as f64;
        assert!((frac - 0.5).abs() < 0.15, "hit fraction {frac}");
    }

    #[test]
    fn blackhole_is_directional_and_rack_scoped() {
        let b = Blackhole {
            src_leaf: LeafId(0),
            dst_leaf: LeafId(7),
            pair_fraction: 1.0,
        };
        // Matching rack pair: dropped.
        assert!(b.matches(HostId(0), HostId(112), LeafId(0), LeafId(7)));
        // Reverse direction: not matched (ACKs survive).
        assert!(!b.matches(HostId(112), HostId(0), LeafId(7), LeafId(0)));
        // Other racks: not matched.
        assert!(!b.matches(HostId(16), HostId(112), LeafId(1), LeafId(7)));
    }

    #[test]
    fn failure_constructors() {
        assert!(!SpineFailure::healthy().is_failed());
        assert!(SpineFailure::random_drops(0.02).is_failed());
        assert!(SpineFailure::blackhole(LeafId(0), LeafId(1), 0.5).is_failed());
        assert!(SpineFailure::flow_blackhole(0.3).is_failed());
        assert!(SpineFailure::ecn_muted().is_failed());
    }

    #[test]
    fn flow_blackhole_is_deterministic_and_fraction_bounded() {
        let fb = FlowBlackhole {
            victim_fraction: 0.5,
        };
        let mut hits = 0;
        for id in 0..512u64 {
            let m1 = fb.matches(FlowId(id));
            assert_eq!(m1, fb.matches(FlowId(id)), "same flow, same verdict");
            hits += usize::from(m1);
        }
        let frac = hits as f64 / 512.0;
        assert!((frac - 0.5).abs() < 0.1, "hit fraction {frac}");
        // The codomain is half-open: 1.0 hits everything, 0.0 nothing.
        let all = FlowBlackhole {
            victim_fraction: 1.0,
        };
        let none = FlowBlackhole {
            victim_fraction: 0.0,
        };
        for id in 0..64u64 {
            assert!(all.matches(FlowId(id)));
            assert!(!none.matches(FlowId(id)));
        }
    }

    #[test]
    #[should_panic]
    fn flow_blackhole_fraction_validated() {
        SpineFailure::flow_blackhole(1.5);
    }

    #[test]
    #[should_panic]
    fn random_drop_rate_validated() {
        SpineFailure::random_drops(1.5);
    }

    #[test]
    #[should_panic]
    fn blackhole_fraction_validated_above() {
        SpineFailure::blackhole(LeafId(0), LeafId(1), 1.5);
    }

    #[test]
    #[should_panic]
    fn blackhole_fraction_validated_below() {
        SpineFailure::blackhole(LeafId(0), LeafId(1), -0.1);
    }
}
