//! Clairvoyant predictor over the realized profile.

use std::sync::Arc;

use harvest_sim::piecewise::{PiecewiseConstant, Segment};
use harvest_sim::time::SimTime;

use super::EnergyPredictor;

/// Predicts by integrating the *actual* realized profile.
///
/// This is what the paper's simulation converges to when "tracing the
/// PS(t) profile" (§3.1/§5.1) and is the default predictor of the
/// reproduction experiments: it isolates the scheduling comparison from
/// prediction error. Use the online predictors for sensitivity studies.
///
/// # Examples
///
/// ```
/// use harvest_energy::predictor::{EnergyPredictor, OraclePredictor};
/// use harvest_sim::piecewise::PiecewiseConstant;
/// use harvest_sim::time::SimTime;
///
/// let p = OraclePredictor::new(PiecewiseConstant::constant(0.5));
/// let e = p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(16));
/// assert_eq!(e, 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OraclePredictor {
    /// Shared so sweep prefabs can hand the same realized profile to
    /// many concurrent trials without deep-copying breakpoint tables.
    profile: Arc<PiecewiseConstant>,
}

impl OraclePredictor {
    /// Creates an oracle over the given realized profile.
    pub fn new(profile: PiecewiseConstant) -> Self {
        Self::from_shared(Arc::new(profile))
    }

    /// Creates an oracle over an already-shared profile without copying
    /// its breakpoint tables.
    pub fn from_shared(profile: Arc<PiecewiseConstant>) -> Self {
        OraclePredictor { profile }
    }
}

impl EnergyPredictor for OraclePredictor {
    fn observe(&mut self, _segment: Segment) {}

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        if until <= from {
            return 0.0;
        }
        self.profile.integrate(from, until)
    }

    fn name(&self) -> &str {
        "oracle"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::piecewise::Extension;
    use harvest_sim::time::SimDuration;

    #[test]
    fn integrates_profile_exactly() {
        let profile = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(5),
            vec![1.0, 3.0],
            Extension::Hold,
        )
        .unwrap();
        let p = OraclePredictor::new(profile);
        let e = p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(10));
        assert_eq!(e, 20.0);
    }

    #[test]
    fn empty_or_reversed_window_is_zero() {
        let p = OraclePredictor::new(PiecewiseConstant::constant(2.0));
        assert_eq!(
            p.predict_energy(SimTime::from_whole_units(5), SimTime::from_whole_units(5)),
            0.0
        );
        assert_eq!(
            p.predict_energy(SimTime::from_whole_units(5), SimTime::ZERO),
            0.0
        );
    }

    #[test]
    fn observe_is_inert() {
        let mut p = OraclePredictor::new(PiecewiseConstant::constant(2.0));
        p.observe(crate::predictor::test_util::seg(0, 1, 99.0));
        assert_eq!(
            p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(1)),
            2.0
        );
        assert_eq!(p.name(), "oracle");
    }
}
