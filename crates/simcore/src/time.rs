//! Simulated time.
//!
//! Time is represented as an integer number of nanoseconds since the start of
//! the simulation. Using integers (rather than `f64` seconds) keeps time
//! comparisons exact and makes simulations bit-for-bit reproducible across
//! platforms and optimization levels.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds per second.
pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;
/// Number of nanoseconds per millisecond.
pub(crate) const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds per microsecond.
pub(crate) const NANOS_PER_MICRO: u64 = 1_000;

/// An instant on the simulated clock (nanoseconds since simulation start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The farthest representable instant; used as an "infinity" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * NANOS_PER_SEC)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Saturating addition of a duration.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from whole microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * NANOS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs <= 0.0 || !secs.is_finite() {
            SimDuration(0)
        } else {
            SimDuration((secs * NANOS_PER_SEC as f64).round() as u64)
        }
    }

    /// Construct from fractional milliseconds. Negative values clamp to zero.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1_000.0)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in seconds as `f64`.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration in milliseconds as `f64`.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// True when the duration is exactly zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiply by a non-negative floating point factor (saturating).
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        if factor <= 0.0 || !factor.is_finite() {
            return SimDuration::ZERO;
        }
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(v.round() as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < NANOS_PER_MILLI {
            write!(f, "{}ns", self.0)
        } else if self.0 < NANOS_PER_SEC {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimTime::from_millis(5).as_nanos(), 5 * NANOS_PER_MILLI);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7 * NANOS_PER_MICRO);
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_nanos(), 1_500_000_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nonfinite_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-0.5), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn arithmetic_behaves() {
        let t0 = SimTime::from_secs(1);
        let t1 = t0 + SimDuration::from_millis(250);
        assert_eq!(t1.as_nanos(), 1_250 * NANOS_PER_MILLI);
        assert_eq!((t1 - t0).as_millis_f64(), 250.0);
        // saturating subtraction of a later time yields zero
        assert_eq!((t0 - t1), SimDuration::ZERO);
        let mut d = SimDuration::from_secs(2);
        d += SimDuration::from_secs(1);
        assert_eq!(d.as_secs_f64(), 3.0);
        d -= SimDuration::from_secs(5);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_saturates_and_clamps() {
        let d = SimDuration::from_secs(1);
        assert_eq!(d.mul_f64(0.5).as_millis_f64(), 500.0);
        assert_eq!(d.mul_f64(-3.0), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(10);
        let b = SimTime::from_nanos(20);
        assert!(a < b);
        assert!(SimTime::MAX > b);
        assert_eq!(a.max(b), b);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(42)), "42ns");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimTime::from_secs(1)), "1.000000s");
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_nanos(1)),
            SimTime::MAX
        );
        let t = SimTime::from_secs(1);
        assert_eq!(
            t.saturating_add(SimDuration::from_secs(1)),
            SimTime::from_secs(2)
        );
    }
}
