//! Virtual simulation time.
//!
//! Time is represented as integer nanoseconds in a [`SimTime`] newtype. Using
//! integers (rather than `f64` seconds) keeps event ordering exact and makes
//! simulations bit-reproducible regardless of summation order.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable instant; used as an "infinitely far" sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Fractional seconds (for reporting only — never used in event ordering).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Saturating difference: `self - earlier`, zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from nanoseconds.
    pub fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond
    /// (ties away from zero) and saturating at `u64::MAX`. Negative or
    /// non-finite inputs clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return Duration::ZERO;
        }
        Duration(round_positive(s * 1e9))
    }

    /// Fractional seconds (reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Raw nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Scale by a non-negative factor, rounding to the nearest nanosecond.
    /// Used for multiplicative service-time noise.
    pub fn scale(self, factor: f64) -> Duration {
        Duration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating addition of two spans.
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }
}

/// `x.round() as u64` for `x >= 0` (`+inf` included), from the bits: the
/// same ties-away-from-zero rounding and `as` saturation without a libm
/// `round` call. With `x = m * 2^e` (`m` the 53-bit significand), the
/// integer part is `m >> -e` and the fraction is at least one half exactly
/// when the bit below the binary point is set.
fn round_positive(x: f64) -> u64 {
    let bits = x.to_bits();
    let biased = (bits >> 52) as i64;
    if biased == 0 {
        return 0; // zero or subnormal: far below one half
    }
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    let e = biased - 1075;
    if e >= 12 {
        u64::MAX // x >= 2^64 (or +inf): saturate
    } else if e >= 0 {
        m << e // x >= 2^52: already an integer
    } else if e >= -53 {
        let shift = -e;
        (m >> shift) + ((m >> (shift - 1)) & 1)
    } else {
        0 // x < 1/2
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl Add<Duration> for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0.checked_add(rhs.0).expect("Duration overflow"))
    }
}

impl AddAssign<Duration> for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(SimTime::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(SimTime::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Duration::from_secs(1).as_secs_f64(), 1.0);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(1) + Duration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!((t - SimTime::from_secs(1)).as_nanos(), 500_000_000);
    }

    #[test]
    fn max_min() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn from_secs_f64_clamps_bad_input() {
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::NAN), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::INFINITY), Duration::ZERO);
    }

    #[test]
    fn from_secs_f64_saturates_and_floors_tiny_inputs() {
        assert_eq!(Duration::from_secs_f64(f64::NEG_INFINITY), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(-0.0), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(f64::MIN_POSITIVE), Duration::ZERO);
        assert_eq!(Duration::from_secs_f64(1e300).as_nanos(), u64::MAX);
        assert_eq!(Duration::from_secs_f64(f64::MAX).as_nanos(), u64::MAX);
        assert_eq!(Duration::from_secs_f64(1.5e-9).as_nanos(), 2);
    }

    /// `round_positive` against `x.round() as u64` at the edges of each of
    /// its branches.
    #[test]
    fn round_positive_matches_libm_at_edges() {
        let two52 = (1u64 << 52) as f64;
        let two64 = 2f64.powi(64);
        let mut xs = vec![
            0.0,
            0.25,
            0.49999999999999994,
            0.5,
            0.5000000000000001,
            1.0,
            1.5,
            2.5,
            two52 - 1.5,
            two52 - 0.5,
            two52,
            two52 + 1.0,
            2.0 * two52 - 1.0,
            2.0 * two52,
            2.0 * two52 + 2.0,
            two64 - 2048.0,
            two64,
            two64 * 2.0,
            f64::INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE,
        ];
        for k in [3u64, 1 << 20, (1 << 51) + 7, (1 << 52) - 1] {
            xs.extend([
                k as f64 + 0.5,
                k as f64 - 0.5,
                f64::from_bits((k as f64).to_bits() + 1),
            ]);
        }
        for x in xs {
            assert_eq!(round_positive(x), x.round() as u64, "{x:e}");
        }
    }

    proptest::proptest! {
        /// Every tie `k + 0.5` below 2^52 rounds away from zero.
        #[test]
        fn round_positive_breaks_ties_away_from_zero(k in 0u64..1 << 52) {
            let x = k as f64 + 0.5;
            proptest::prop_assert_eq!(round_positive(x), x.round() as u64);
            proptest::prop_assert_eq!(round_positive(x), k + 1);
        }
    }

    #[test]
    fn scale_rounds() {
        let d = Duration::from_nanos(1000);
        assert_eq!(d.scale(1.5).as_nanos(), 1500);
        assert_eq!(d.scale(0.0), Duration::ZERO);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(b.saturating_since(a), Duration::from_secs(1));
        assert_eq!(a.saturating_since(b), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn sub_underflow_panics() {
        let _ = SimTime::from_secs(1) - SimTime::from_secs(2);
    }
}
