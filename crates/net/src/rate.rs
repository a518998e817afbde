//! DRE — the Discounting Rate Estimator from CONGA (§3.2 of the Hermes
//! paper uses it to measure a flow's sending rate `r_f`; CONGA uses it
//! per switch link; Hermes also aggregates it per path as `r_p`).
//!
//! The hardware DRE keeps a byte counter `X` that is incremented on every
//! transmission and multiplied by `(1 − α)` every `T_dre`; the rate
//! estimate is `X / τ` with `τ = T_dre / α`. This implementation is the
//! event-driven continuous-time limit: `X` decays by `exp(−Δt/τ)` lazily
//! on every access, which avoids periodic timer events entirely and
//! converges to the same steady state (`X = R·τ` under rate `R`).

#![expect(
    clippy::float_arithmetic,
    reason = "DRE EWMA is per-port local state updated in event order"
)]

use hermes_sim::Time;

/// Event-driven discounting rate estimator.
#[derive(Clone, Copy, Debug)]
pub struct Dre {
    /// Discounted byte counter.
    x: f64,
    /// Time of last update.
    last: Time,
    /// Discounting horizon τ.
    tau: Time,
}

impl Dre {
    /// CONGA's effective horizon (T_dre = 20 µs, α = 0.1 ⇒ τ = 200 µs).
    pub const DEFAULT_TAU: Time = Time::from_us(200);

    pub fn new(tau: Time) -> Dre {
        assert!(tau > Time::ZERO);
        Dre {
            x: 0.0,
            last: Time::ZERO,
            tau,
        }
    }

    /// A DRE with the CONGA-default 200 µs horizon.
    pub fn default_horizon() -> Dre {
        Dre::new(Dre::DEFAULT_TAU)
    }

    fn decay_to(&mut self, now: Time) {
        if now > self.last {
            let dt = (now - self.last).as_secs_f64();
            self.x *= (-dt / self.tau.as_secs_f64()).exp();
            self.last = now;
        }
    }

    /// Record `bytes` transmitted at `now`.
    pub fn add(&mut self, bytes: u64, now: Time) {
        self.decay_to(now);
        self.x += bytes as f64;
    }

    /// Current rate estimate in bits per second.
    pub fn rate_bps(&mut self, now: Time) -> f64 {
        self.decay_to(now);
        self.x * 8.0 / self.tau.as_secs_f64()
    }

    /// Current rate as a fraction of `link_bps`, clamped to `[0, 1]`
    /// (CONGA's congestion metric).
    pub fn utilization(&mut self, link_bps: u64, now: Time) -> f64 {
        (self.rate_bps(now) / link_bps as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn converges_to_offered_rate() {
        let mut d = Dre::default_horizon();
        // 1 Gbps = 125 bytes/us: send 1500B every 12us for 5 ms.
        let mut t = Time::ZERO;
        for _ in 0..400 {
            d.add(1500, t);
            t += Time::from_us(12);
        }
        let r = d.rate_bps(t);
        assert!(
            (r - 1e9).abs() < 0.1e9,
            "estimated {r:.3e} bps, expected ~1e9"
        );
    }

    #[test]
    fn decays_when_idle() {
        let mut d = Dre::default_horizon();
        d.add(100_000, Time::ZERO);
        let r0 = d.rate_bps(Time::ZERO);
        let r1 = d.rate_bps(Time::from_us(200));
        let r2 = d.rate_bps(Time::from_ms(2));
        assert!(r1 < r0 * 0.4 && r1 > r0 * 0.3, "one τ ≈ e⁻¹ decay");
        assert!(r2 < r0 * 1e-4, "ten τ ≈ vanished");
    }

    #[test]
    fn utilization_clamps() {
        let mut d = Dre::default_horizon();
        for _ in 0..100 {
            d.add(100_000, Time::from_us(1));
        }
        assert_eq!(d.utilization(1_000, Time::from_us(1)), 1.0);
        let mut idle = Dre::default_horizon();
        assert_eq!(idle.utilization(1_000_000_000, Time::from_ms(1)), 0.0);
    }

    #[test]
    fn monotone_time_only() {
        // Accessing with an older timestamp must not panic or decay.
        let mut d = Dre::default_horizon();
        d.add(1000, Time::from_us(10));
        let r_now = d.rate_bps(Time::from_us(10));
        let r_past = d.rate_bps(Time::from_us(5));
        assert_eq!(r_now, r_past);
    }
}
