//! Fixed-point simulation time.
//!
//! All simulation instants and durations are integer counts of *ticks*,
//! with `TICKS_PER_UNIT` ticks per paper "time unit". Using integers
//! keeps the event queue total-ordered and free of floating-point
//! pathologies (two events computed along different arithmetic paths that
//! "should" coincide actually do), while leaving six decimal digits of
//! sub-unit resolution for closed-form crossing times.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

use serde::{Deserialize, Serialize};

/// Number of ticks in one simulated time unit.
///
/// One paper "time unit" (the scale on which task periods like 10..100 and
/// simulation horizons like 10 000 are expressed) is subdivided into one
/// million ticks.
pub(crate) const TICKS_PER_UNIT: i64 = 1_000_000;

/// An instant in simulated time, measured in ticks since time zero.
///
/// `SimTime` is a point on the timeline; the difference of two instants is
/// a [`SimDuration`]. Negative instants are representable (useful for
/// phase offsets) but the simulators in this workspace never schedule
/// events before [`SimTime::ZERO`].
///
/// # Examples
///
/// ```
/// use harvest_sim::time::{SimTime, SimDuration};
///
/// let t = SimTime::from_units(2.5);
/// let later = t + SimDuration::from_units(0.5);
/// assert_eq!(later.as_units(), 3.0);
/// assert_eq!(later - t, SimDuration::from_units(0.5));
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(i64);

/// A signed span of simulated time, measured in ticks.
///
/// # Examples
///
/// ```
/// use harvest_sim::time::SimDuration;
///
/// let d = SimDuration::from_units(1.25);
/// assert_eq!((d * 2.0).as_units(), 2.5);
/// assert!(SimDuration::ZERO < d);
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(i64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant.
    pub(crate) const MAX: SimTime = SimTime(i64::MAX);

    /// Creates an instant from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: i64) -> Self {
        SimTime(ticks)
    }

    /// Creates an instant from a count of whole time units.
    ///
    /// # Panics
    ///
    /// Panics on overflow (more than ~9.2e12 units).
    #[inline]
    pub fn from_whole_units(units: i64) -> Self {
        SimTime(units.checked_mul(TICKS_PER_UNIT).expect("SimTime overflow"))
    }

    /// Creates an instant from a fractional number of time units,
    /// rounding to the nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `units` is not finite or overflows the tick range.
    #[inline]
    pub fn from_units(units: f64) -> Self {
        SimTime(units_to_ticks(units))
    }

    /// Creates the earliest instant that is *not before* `units`,
    /// rounding fractional ticks up.
    ///
    /// Crossing times computed in floating point are converted with this
    /// so that the resulting event never fires *before* the true crossing,
    /// which guarantees monotone progress in the event loop.
    #[inline]
    pub fn from_units_ceil(units: f64) -> Self {
        SimTime(units_to_ticks_ceil(units))
    }

    /// Raw tick count since time zero.
    #[inline]
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// This instant expressed in fractional time units.
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// Returns the later of two instants.
    #[inline]
    pub(crate) fn max(self, other: Self) -> Self {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two instants.
    #[inline]
    pub(crate) fn min(self, other: Self) -> Self {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// A single tick, the smallest positive duration.
    pub const TICK: SimDuration = SimDuration(1);

    /// Creates a duration from a raw tick count.
    #[inline]
    pub const fn from_ticks(ticks: i64) -> Self {
        SimDuration(ticks)
    }

    /// Creates a duration from a count of whole time units.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    #[inline]
    pub fn from_whole_units(units: i64) -> Self {
        SimDuration(
            units
                .checked_mul(TICKS_PER_UNIT)
                .expect("SimDuration overflow"),
        )
    }

    /// Creates a duration from fractional time units, rounding to the
    /// nearest tick.
    ///
    /// # Panics
    ///
    /// Panics if `units` is not finite or overflows the tick range.
    #[inline]
    pub fn from_units(units: f64) -> Self {
        SimDuration(units_to_ticks(units))
    }

    /// Creates the shortest duration that is *not shorter* than `units`.
    #[inline]
    pub fn from_units_ceil(units: f64) -> Self {
        SimDuration(units_to_ticks_ceil(units))
    }

    /// Raw tick count.
    #[inline]
    pub const fn as_ticks(self) -> i64 {
        self.0
    }

    /// This duration expressed in fractional time units.
    #[inline]
    pub fn as_units(self) -> f64 {
        self.0 as f64 / TICKS_PER_UNIT as f64
    }

    /// `true` if the duration is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// `true` if the duration is strictly positive.
    #[inline]
    pub const fn is_positive(self) -> bool {
        self.0 > 0
    }
}

fn units_to_ticks(units: f64) -> i64 {
    assert!(units.is_finite(), "time value must be finite, got {units}");
    let ticks = units * TICKS_PER_UNIT as f64;
    assert!(
        ticks >= i64::MIN as f64 && ticks <= i64::MAX as f64,
        "time value {units} overflows tick range"
    );
    // `ticks.round() as i64`, without the libm call: the cast truncates
    // toward zero, and the fractional remainder decides the half-away
    // adjustment. Exact for every in-range value — |ticks| >= 2^52 has
    // no fractional part, so the remainder is 0 there.
    let t = ticks as i64;
    let frac = ticks - t as f64;
    let t = t + (frac >= 0.5) as i64 - (frac <= -0.5) as i64;
    debug_assert_eq!(t, ticks.round() as i64);
    t
}

fn units_to_ticks_ceil(units: f64) -> i64 {
    assert!(units.is_finite(), "time value must be finite, got {units}");
    let ticks = units * TICKS_PER_UNIT as f64;
    assert!(
        ticks >= i64::MIN as f64 && ticks <= i64::MAX as f64,
        "time value {units} overflows tick range"
    );
    // `ticks.ceil() as i64` via truncation: bump when truncation went
    // down (positive non-integer values).
    let t = ticks as i64;
    let t = t + (ticks > t as f64) as i64;
    debug_assert_eq!(t, ticks.ceil() as i64);
    t
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign<SimDuration> for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Neg for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn neg(self) -> SimDuration {
        SimDuration(-self.0)
    }
}

impl Mul<f64> for SimDuration {
    type Output = SimDuration;
    /// Scales the duration, rounding to the nearest tick.
    #[inline]
    fn mul(self, rhs: f64) -> SimDuration {
        SimDuration::from_units(self.as_units() * rhs)
    }
}

impl Div<f64> for SimDuration {
    type Output = SimDuration;
    /// Divides the duration, rounding to the nearest tick.
    #[inline]
    fn div(self, rhs: f64) -> SimDuration {
        SimDuration::from_units(self.as_units() / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_units(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}u", format_units(self.0))
    }
}

fn format_units(ticks: i64) -> String {
    let sign = if ticks < 0 { "-" } else { "" };
    let abs = ticks.unsigned_abs();
    let whole = abs / TICKS_PER_UNIT as u64;
    let frac = abs % TICKS_PER_UNIT as u64;
    if frac == 0 {
        format!("{sign}{whole}")
    } else {
        let s = format!("{frac:06}");
        format!("{sign}{whole}.{}", s.trim_end_matches('0'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_unit_round_trip() {
        for u in [-3i64, 0, 1, 7, 10_000] {
            let t = SimTime::from_whole_units(u);
            assert_eq!(t.as_units(), u as f64);
            assert_eq!(t.as_ticks(), u * TICKS_PER_UNIT);
        }
    }

    #[test]
    fn fractional_round_trip_within_tick() {
        let t = SimTime::from_units(1.234_567_89);
        assert!((t.as_units() - 1.234_567_89).abs() < 1e-6);
    }

    #[test]
    fn ceil_conversion_never_early() {
        for raw in [0.1, 0.999_999_4, 1.000_000_1, 123.456_789_01] {
            let t = SimTime::from_units_ceil(raw);
            assert!(
                t.as_units() >= raw - 1e-12,
                "ceil({raw}) = {} fell before the true value",
                t.as_units()
            );
            assert!(t.as_units() - raw < 2.0 / TICKS_PER_UNIT as f64);
        }
    }

    #[test]
    fn ceil_is_exact_on_tick_boundaries() {
        assert_eq!(SimTime::from_units_ceil(2.0), SimTime::from_whole_units(2));
        assert_eq!(
            SimDuration::from_units_ceil(0.25).as_ticks(),
            TICKS_PER_UNIT / 4
        );
    }

    #[test]
    fn instant_duration_arithmetic() {
        let a = SimTime::from_whole_units(5);
        let b = SimTime::from_whole_units(8);
        assert_eq!(b - a, SimDuration::from_whole_units(3));
        assert_eq!(a + SimDuration::from_whole_units(3), b);
        assert_eq!(b - SimDuration::from_whole_units(3), a);
        let mut c = a;
        c += SimDuration::from_whole_units(1);
        assert_eq!(c, SimTime::from_whole_units(6));
    }

    #[test]
    fn duration_scaling_rounds_to_tick() {
        let d = SimDuration::from_whole_units(1);
        assert_eq!((d * 0.5).as_ticks(), TICKS_PER_UNIT / 2);
        assert_eq!((d / 4.0).as_ticks(), TICKS_PER_UNIT / 4);
    }

    #[test]
    fn negative_durations_behave() {
        let d = SimDuration::from_whole_units(-2);
        assert!(!d.is_positive());
        assert_eq!((-d).as_units(), 2.0);
    }

    #[test]
    fn min_max_helpers() {
        let a = SimTime::from_whole_units(1);
        let b = SimTime::from_whole_units(2);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_whole_units(1);
        let y = SimDuration::from_whole_units(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn display_formats_compactly() {
        assert_eq!(SimTime::from_whole_units(12).to_string(), "t=12");
        assert_eq!(SimTime::from_units(1.5).to_string(), "t=1.5");
        assert_eq!(SimDuration::from_units(-0.25).to_string(), "-0.25u");
        assert_eq!(SimDuration::ZERO.to_string(), "0u");
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration = [1.0, 2.0, 3.5]
            .iter()
            .map(|&u| SimDuration::from_units(u))
            .sum();
        assert_eq!(total, SimDuration::from_units(6.5));
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_time_panics() {
        let _ = SimTime::from_units(f64::NAN);
    }
}
