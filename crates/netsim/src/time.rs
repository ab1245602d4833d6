//! Simulated time.
//!
//! The simulator measures time in integer **microseconds** to keep event
//! ordering exact and reproducible (no floating-point drift). Two newtypes
//! are provided: [`SimTime`], an absolute instant since the start of a
//! simulation, and [`SimDuration`], a span between instants.
//!
//! The microsecond is also the scheduler's native granularity: the
//! timing-wheel event queue (`rrmp_netsim::event`) uses one microsecond as
//! its level-0 tick, so every representable instant is an exact wheel
//! position and no rounding can reorder events.
//!
//! ```
//! use rrmp_netsim::time::{SimTime, SimDuration};
//!
//! let t = SimTime::ZERO + SimDuration::from_millis(10);
//! assert_eq!(t.as_micros(), 10_000);
//! assert_eq!(t - SimTime::ZERO, SimDuration::from_millis(10));
//! ```

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant in simulated time, in microseconds since the start of
/// the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (useful as an "infinite" deadline).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant `micros` microseconds after the simulation start.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates an instant `millis` milliseconds after the simulation start.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates an instant `secs` seconds after the simulation start.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the simulation start.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the simulation start, as a float (for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Seconds since the simulation start, as a float (for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// The duration elapsed since `earlier`, or [`SimDuration::ZERO`] if
    /// `earlier` is in the future.
    #[must_use]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    #[must_use]
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a span of `micros` microseconds.
    #[must_use]
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a span of `millis` milliseconds.
    #[must_use]
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Creates a span of `secs` seconds.
    #[must_use]
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000)
    }

    /// Length of the span in microseconds.
    #[must_use]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length of the span in milliseconds, as a float (for reporting).
    #[must_use]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Length of the span in seconds, as a float (for reporting).
    #[must_use]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Whether the span is empty.
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
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

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
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

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_micros(d.as_micros())
    }
}

impl From<std::time::Duration> for SimDuration {
    fn from(d: std::time::Duration) -> Self {
        SimDuration::from_micros(d.as_micros() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_secs(1).as_micros(), 1_000_000);
        assert!((SimTime::from_millis(1).as_millis_f64() - 1.0).abs() < 1e-9);
        assert!((SimDuration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(10);
        let d = SimDuration::from_millis(4);
        assert_eq!(t + d, SimTime::from_millis(14));
        assert_eq!(t - d, SimTime::from_millis(6));
        assert_eq!(t - SimTime::from_millis(4), SimDuration::from_millis(6));
        assert_eq!(d + d, SimDuration::from_millis(8));
        assert_eq!(d * 3, SimDuration::from_millis(12));
        assert_eq!(d / 2, SimDuration::from_millis(2));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_millis(1);
        let late = SimTime::from_millis(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_millis(1));
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(format!("{}", SimTime::from_millis(1)), "1.000ms");
        assert_eq!(format!("{}", SimDuration::from_micros(1500)), "1.500ms");
    }

    #[test]
    fn std_duration_roundtrip() {
        let d = SimDuration::from_micros(12345);
        let std: std::time::Duration = d.into();
        assert_eq!(SimDuration::from(std), d);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_millis(1) < SimTime::from_millis(2));
        assert!(SimDuration::from_micros(999) < SimDuration::from_millis(1));
    }
}
