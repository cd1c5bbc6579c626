//! Two-mode day/night source (paper ref \[5\], Rusu et al.).

use harvest_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

use crate::source::HarvestSource;

/// A source alternating between a "day" power and a "night" power.
///
/// Models the coarse-grained solar abstraction of Rusu, Melhem & Mossé
/// (paper ref \[5\]): full output during the day fraction of each cycle,
/// a (possibly zero) trickle at night. The cycle starts in day mode at
/// time zero; negative times fold into the cycle consistently.
///
/// # Examples
///
/// ```
/// use harvest_energy::source::HarvestSource;
/// use harvest_energy::sources::DayNightSource;
/// use harvest_sim::time::{SimDuration, SimTime};
/// use rand::SeedableRng;
///
/// // 100-unit cycle, first 60 units are day.
/// let mut src = DayNightSource::new(
///     5.0,
///     0.5,
///     SimDuration::from_whole_units(100),
///     SimDuration::from_whole_units(60),
/// );
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(src.draw(SimTime::from_whole_units(10), &mut rng), 5.0);
/// assert_eq!(src.draw(SimTime::from_whole_units(70), &mut rng), 0.5);
/// assert_eq!(src.draw(SimTime::from_whole_units(110), &mut rng), 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DayNightSource {
    day_power: f64,
    night_power: f64,
    cycle: SimDuration,
    day_length: SimDuration,
}

impl DayNightSource {
    /// Creates a day/night source.
    ///
    /// # Panics
    ///
    /// Panics if powers are negative/non-finite, `cycle` is not positive,
    /// or `day_length` does not fit in the cycle.
    pub fn new(
        day_power: f64,
        night_power: f64,
        cycle: SimDuration,
        day_length: SimDuration,
    ) -> Self {
        assert!(
            day_power.is_finite() && day_power >= 0.0,
            "day power must be finite and >= 0"
        );
        assert!(
            night_power.is_finite() && night_power >= 0.0,
            "night power must be finite and >= 0"
        );
        assert!(cycle.is_positive(), "cycle must be positive");
        assert!(
            day_length.is_positive() && day_length <= cycle,
            "day length must lie within the cycle"
        );
        DayNightSource {
            day_power,
            night_power,
            cycle,
            day_length,
        }
    }

    /// `true` if `t` falls in the day phase.
    pub(crate) fn is_day(&self, t: SimTime) -> bool {
        let phase = t.as_ticks().rem_euclid(self.cycle.as_ticks());
        phase < self.day_length.as_ticks()
    }
}

impl HarvestSource for DayNightSource {
    fn draw(&mut self, t: SimTime, _rng: &mut StdRng) -> f64 {
        if self.is_day(t) {
            self.day_power
        } else {
            self.night_power
        }
    }

    fn name(&self) -> &str {
        "day-night"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn src() -> DayNightSource {
        DayNightSource::new(
            4.0,
            1.0,
            SimDuration::from_whole_units(10),
            SimDuration::from_whole_units(4),
        )
    }

    #[test]
    fn phases_alternate() {
        let mut s = src();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.draw(SimTime::ZERO, &mut rng), 4.0);
        assert_eq!(s.draw(SimTime::from_units(3.999), &mut rng), 4.0);
        assert_eq!(s.draw(SimTime::from_whole_units(4), &mut rng), 1.0);
        assert_eq!(s.draw(SimTime::from_whole_units(9), &mut rng), 1.0);
        assert_eq!(s.draw(SimTime::from_whole_units(10), &mut rng), 4.0);
    }

    #[test]
    fn negative_time_folds_consistently() {
        let s = src();
        // t = -1 folds to phase 9 → night.
        assert!(!s.is_day(SimTime::from_whole_units(-1)));
        // t = -7 folds to phase 3 → day.
        assert!(s.is_day(SimTime::from_whole_units(-7)));
    }

    #[test]
    #[should_panic(expected = "day length")]
    fn day_longer_than_cycle_rejected() {
        let _ = DayNightSource::new(
            1.0,
            0.0,
            SimDuration::from_whole_units(5),
            SimDuration::from_whole_units(6),
        );
    }
}
