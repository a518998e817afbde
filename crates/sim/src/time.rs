//! Simulated time.

#![expect(
    clippy::float_arithmetic,
    reason = "secs<->ns conversions at the config boundary; Time stays integer nanoseconds"
)]

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) simulated time, in integer nanoseconds.
///
/// `Time` doubles as both an instant and a duration — the simulator's
/// arithmetic never needs the instant/duration distinction, and a single
/// type keeps the event queue and every per-packet timestamp lean.
///
/// All arithmetic is saturating on underflow so that "how long ago"
/// computations at simulation start cannot wrap.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

impl Time {
    /// Time zero — the start of every simulation.
    pub const ZERO: Time = Time(0);
    /// The maximum representable time; used as an "infinitely far" sentinel.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Time {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Time {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Time {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Time {
        Time(s * 1_000_000_000)
    }

    /// Construct from fractional seconds (rounds to nearest nanosecond).
    ///
    /// Negative inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Time {
        if s <= 0.0 {
            Time::ZERO
        } else {
            Time((s * 1e9).round() as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Whole microseconds (truncating).
    #[inline]
    pub const fn as_us(self) -> u64 {
        self.0 / 1_000
    }

    /// Fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction: `a.saturating_sub(b)` is zero when `b > a`.
    #[inline]
    pub const fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The time needed to serialize `bytes` bytes onto a link of
    /// `rate_bps` bits per second, rounded up to the next nanosecond.
    ///
    /// This is the single conversion used by every link and pacing
    /// computation in the fabric, so rounding behaviour is centralized
    /// here: rounding *up* guarantees a link never transmits faster than
    /// its configured rate.
    #[inline]
    pub fn tx_time(bytes: u64, rate_bps: u64) -> Time {
        debug_assert!(rate_bps > 0, "link rate must be positive");
        let bits = bytes as u128 * 8 * 1_000_000_000;
        Time(bits.div_ceil(rate_bps as u128) as u64)
    }

    /// Scale by a float factor (e.g. RTO backoff, EWMA horizons).
    /// Clamps at zero / `Time::MAX`.
    #[inline]
    pub fn mul_f64(self, k: f64) -> Time {
        if k <= 0.0 {
            return Time::ZERO;
        }
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            Time::MAX
        } else {
            Time(v as u64)
        }
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        *self = *self + rhs;
    }
}

impl Sub for Time {
    type Output = Time;
    /// Panics in debug builds on underflow; use [`Time::saturating_sub`]
    /// where "before the start" is a legitimate state.
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "Time subtraction underflow");
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for Time {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: u64) -> Time {
        Time(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for Time {
    type Output = Time;
    #[inline]
    fn div(self, rhs: u64) -> Time {
        Time(self.0 / rhs)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self)
    }
}

impl fmt::Display for Time {
    /// Human scale: picks ns/µs/ms/s based on magnitude.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.2}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.4}s", ns as f64 / 1e9)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Time::from_us(1), Time::from_ns(1_000));
        assert_eq!(Time::from_ms(1), Time::from_us(1_000));
        assert_eq!(Time::from_secs(1), Time::from_ms(1_000));
        assert_eq!(Time::from_secs_f64(0.5), Time::from_ms(500));
        assert_eq!(Time::from_secs_f64(-1.0), Time::ZERO);
    }

    #[test]
    fn tx_time_matches_hand_math() {
        // 1500 bytes at 10 Gbps = 1.2 us.
        assert_eq!(Time::tx_time(1500, 10_000_000_000), Time::from_ns(1_200));
        // 1500 bytes at 1 Gbps = 12 us.
        assert_eq!(Time::tx_time(1500, 1_000_000_000), Time::from_us(12));
        // Rounds up: 1 byte at 3 bps = ceil(8e9/3) ns.
        assert_eq!(Time::tx_time(1, 3), Time::from_ns(2_666_666_667));
    }

    #[test]
    fn tx_time_no_overflow_on_large_inputs() {
        // A 1 GB transfer at 1 bps must not overflow intermediate math.
        let t = Time::tx_time(1_000_000_000, 1);
        assert_eq!(t.as_ns(), 8_000_000_000_000_000_000);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Time::from_us(1).saturating_sub(Time::from_us(2)),
            Time::ZERO
        );
        assert_eq!(
            Time::from_us(5).saturating_sub(Time::from_us(2)),
            Time::from_us(3)
        );
    }

    #[test]
    fn mul_f64_clamps() {
        assert_eq!(Time::from_us(10).mul_f64(1.5), Time::from_us(15));
        assert_eq!(Time::from_us(10).mul_f64(-1.0), Time::ZERO);
        assert_eq!(Time::MAX.mul_f64(2.0), Time::MAX);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(Time::from_ns(12).to_string(), "12ns");
        assert_eq!(Time::from_us(12).to_string(), "12.00us");
        assert_eq!(Time::from_ms(12).to_string(), "12.000ms");
        assert_eq!(Time::from_secs(2).to_string(), "2.0000s");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Time::from_ns(999) < Time::from_us(1));
        assert!(Time::MAX > Time::from_secs(100));
    }
}
