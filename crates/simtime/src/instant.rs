//! Nanosecond-resolution virtual instants and durations.
//!
//! These mirror `std::time::{Instant, Duration}` but are plain `u64`
//! nanosecond counters anchored at simulated boot, so they are `Copy`,
//! `Ord`, serialisable, and free of any platform clock dependency.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// A span of virtual time with nanosecond resolution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration (~584 years).
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from whole seconds.
    ///
    /// # Panics
    ///
    /// Panics, in every build profile, if `s` seconds are past
    /// [`SimDuration::MAX`].
    pub const fn from_secs(s: u64) -> Self {
        match s.checked_mul(1_000_000_000) {
            Some(ns) => SimDuration(ns),
            None => panic!("SimDuration::from_secs overflows the nanosecond counter"),
        }
    }

    /// `self * rhs`, or `None` past [`SimDuration::MAX`].
    pub const fn checked_mul(self, rhs: u64) -> Option<SimDuration> {
        match self.0.checked_mul(rhs) {
            Some(ns) => Some(SimDuration(ns)),
            None => None,
        }
    }

    /// Creates a duration from a floating-point number of seconds.
    ///
    /// Negative or non-finite inputs saturate to zero; values beyond the
    /// representable range saturate to [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Returns the duration as whole nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Returns the duration as whole microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Returns the duration as whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Returns the duration as whole seconds (truncating).
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Returns the duration as a floating-point number of seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Returns `true` if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked addition; `None` on overflow.
    pub fn checked_add(self, rhs: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(rhs.0).map(SimDuration)
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by a floating-point factor, saturating.
    ///
    /// Negative or non-finite factors yield zero.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Returns the larger of the two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of the two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

/// Panics, in every build profile, past [`SimDuration::MAX`].
impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        self.checked_mul(rhs)
            .expect("SimDuration * u64 overflows the nanosecond counter")
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, rhs: SimDuration) -> f64 {
        self.as_secs_f64() / rhs.as_secs_f64()
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns == 0 {
            write!(f, "0s")
        } else if ns < 1_000 {
            write!(f, "{ns}ns")
        } else if ns < 1_000_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else if ns < 1_000_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        }
    }
}

/// A point in virtual time, measured in nanoseconds since simulated boot.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant(u64);

impl SimInstant {
    /// The instant of simulated boot.
    pub const BOOT: SimInstant = SimInstant(0);

    /// Creates an instant at the given number of nanoseconds since boot.
    pub const fn from_nanos(ns: u64) -> Self {
        SimInstant(ns)
    }

    /// Nanoseconds since simulated boot.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulated boot, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`.
    ///
    /// Returns [`SimDuration::ZERO`] if `earlier` is in the future, mirroring
    /// `Instant::saturating_duration_since`.
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked duration since `earlier`; `None` if `earlier` is later.
    pub fn checked_duration_since(self, earlier: SimInstant) -> Option<SimDuration> {
        self.0.checked_sub(earlier.0).map(SimDuration)
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimInstant {
        SimInstant(self.0.saturating_add(d.as_nanos()))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 + rhs.as_nanos())
    }
}

impl AddAssign<SimDuration> for SimInstant {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.as_nanos();
    }
}

impl Sub<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn sub(self, rhs: SimDuration) -> SimInstant {
        SimInstant(self.0 - rhs.as_nanos())
    }
}

impl Sub<SimInstant> for SimInstant {
    type Output = SimDuration;
    fn sub(self, rhs: SimInstant) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl fmt::Display for SimInstant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(SimDuration::from_secs(5).as_millis(), 5_000);
        assert_eq!(SimDuration::from_millis(4).as_nanos(), 4_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(2).as_secs(), 2);
    }

    #[test]
    #[should_panic(expected = "overflows the nanosecond counter")]
    fn from_secs_panics_past_max() {
        let secs = std::hint::black_box(u64::MAX / 1_000_000_000 + 1);
        let _ = SimDuration::from_secs(secs);
    }

    #[test]
    #[should_panic(expected = "overflows the nanosecond counter")]
    fn mul_panics_past_max() {
        let factor = std::hint::black_box(18_446_744_074);
        let _ = SimDuration::from_secs(1) * factor;
    }

    #[test]
    fn checked_mul_stops_at_max() {
        let sec = SimDuration::from_secs(1);
        assert_eq!(sec.checked_mul(3), Some(SimDuration::from_secs(3)));
        assert_eq!(sec.checked_mul(18_446_744_074), None);
        assert_eq!(SimDuration::MAX.checked_mul(1), Some(SimDuration::MAX));
    }

    #[test]
    fn from_secs_f64_saturates() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        let half = SimDuration::from_secs_f64(0.5);
        assert_eq!(half.as_millis(), 500);
    }

    #[test]
    fn instant_arithmetic() {
        let a = SimInstant::from_nanos(1_000);
        let b = a + SimDuration::from_nanos(500);
        assert_eq!(b.as_nanos(), 1_500);
        assert_eq!(b - a, SimDuration::from_nanos(500));
        assert_eq!(a.duration_since(b), SimDuration::ZERO);
        assert_eq!(b.duration_since(a), SimDuration::from_nanos(500));
        assert_eq!(a.checked_duration_since(b), None);
    }

    #[test]
    fn duration_ratio() {
        let set = SimDuration::from_secs(10);
        let ran = SimDuration::from_secs(5);
        assert!((ran / set - 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimDuration::from_micros(12).to_string(), "12.000us");
        assert_eq!(SimDuration::from_millis(12).to_string(), "12.000ms");
        assert_eq!(SimDuration::from_secs(12).to_string(), "12.000s");
        assert_eq!(SimDuration::ZERO.to_string(), "0s");
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(
            SimDuration::MAX.saturating_add(SimDuration::from_nanos(1)),
            SimDuration::MAX
        );
        assert_eq!(
            SimDuration::ZERO.saturating_sub(SimDuration::from_nanos(1)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_scales() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(1.5).as_millis(), 3_000);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
    }
}
