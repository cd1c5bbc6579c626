//! Last-value ("persistence") predictor.

use harvest_sim::piecewise::Segment;
use harvest_sim::time::SimTime;

use super::EnergyPredictor;

/// Assumes the most recently observed power persists forever.
///
/// The weakest meaningful online predictor; it brackets the value of
/// smarter prediction in the ablation benchmarks.
///
/// # Examples
///
/// ```
/// use harvest_energy::predictor::{EnergyPredictor, PersistencePredictor};
/// use harvest_sim::piecewise::Segment;
/// use harvest_sim::time::SimTime;
///
/// let mut p = PersistencePredictor::new();
/// p.observe(Segment {
///     start: SimTime::ZERO,
///     end: SimTime::from_whole_units(2),
///     value: 3.0,
/// });
/// let e = p.predict_energy(SimTime::from_whole_units(2), SimTime::from_whole_units(5));
/// assert_eq!(e, 9.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PersistencePredictor {
    last_power: f64,
}

impl PersistencePredictor {
    /// Creates a predictor that initially predicts zero.
    pub fn new() -> Self {
        PersistencePredictor { last_power: 0.0 }
    }
}

impl EnergyPredictor for PersistencePredictor {
    fn observe(&mut self, segment: Segment) {
        self.last_power = segment.value;
    }

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        if until <= from {
            return 0.0;
        }
        self.last_power * (until - from).as_units()
    }

    fn name(&self) -> &str {
        "persistence"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::seg;

    #[test]
    fn initial_prediction_is_zero() {
        let p = PersistencePredictor::new();
        assert_eq!(
            p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(10)),
            0.0
        );
    }

    #[test]
    fn tracks_latest_observation() {
        let mut p = PersistencePredictor::new();
        p.observe(seg(0, 1, 1.0));
        p.observe(seg(1, 2, 4.0));
        assert_eq!(p.last_power, 4.0);
        assert_eq!(
            p.predict_energy(SimTime::from_whole_units(2), SimTime::from_whole_units(4)),
            8.0
        );
    }

    #[test]
    fn reversed_window_is_zero() {
        let mut p = PersistencePredictor::new();
        p.observe(seg(0, 1, 5.0));
        assert_eq!(
            p.predict_energy(SimTime::from_whole_units(3), SimTime::ZERO),
            0.0
        );
    }
}
