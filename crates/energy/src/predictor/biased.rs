//! Systematic prediction error injection.

use harvest_sim::piecewise::Segment;
use harvest_sim::time::SimTime;

use super::EnergyPredictor;

/// Wraps a predictor and scales every prediction by a constant factor —
/// `> 1` models an *optimistic* predictor (over-promising energy),
/// `< 1` a *pessimistic* one.
///
/// Harvesting-aware policies stake deadlines on `ÊS`; the
/// `ablation_prediction_bias` benchmark uses this wrapper to measure how
/// EA-DVFS degrades as the bias grows.
///
/// # Examples
///
/// ```
/// use harvest_energy::predictor::{BiasedPredictor, EnergyPredictor, OraclePredictor};
/// use harvest_sim::piecewise::PiecewiseConstant;
/// use harvest_sim::time::SimTime;
///
/// let oracle = OraclePredictor::new(PiecewiseConstant::constant(2.0));
/// let optimistic = BiasedPredictor::new(oracle, 1.5);
/// let e = optimistic.predict_energy(SimTime::ZERO, SimTime::from_whole_units(10));
/// assert_eq!(e, 30.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BiasedPredictor<P> {
    inner: P,
    factor: f64,
    name: String,
}

impl<P: EnergyPredictor> BiasedPredictor<P> {
    /// Wraps `inner`, scaling its predictions by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn new(inner: P, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor >= 0.0,
            "bias factor must be finite and >= 0"
        );
        let name = format!("biased({}, x{factor})", inner.name());
        BiasedPredictor {
            inner,
            factor,
            name,
        }
    }

    /// The bias factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// The wrapped predictor.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Consumes the wrapper, returning the inner predictor.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: EnergyPredictor + Clone + 'static> EnergyPredictor for BiasedPredictor<P> {
    fn observe(&mut self, segment: Segment) {
        self.inner.observe(segment);
    }

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        self.inner.predict_energy(from, until) * self.factor
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::seg;
    use crate::predictor::{OraclePredictor, PersistencePredictor};
    use harvest_sim::piecewise::PiecewiseConstant;

    #[test]
    fn scales_predictions() {
        let p = BiasedPredictor::new(OraclePredictor::new(PiecewiseConstant::constant(1.0)), 0.5);
        assert_eq!(
            p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(8)),
            4.0
        );
        assert_eq!(p.factor(), 0.5);
    }

    #[test]
    fn forwards_observations() {
        let mut p = BiasedPredictor::new(PersistencePredictor::new(), 2.0);
        p.observe(seg(0, 1, 3.0));
        assert_eq!(p.inner().last_power(), 3.0);
        assert_eq!(
            p.predict_energy(SimTime::from_whole_units(1), SimTime::from_whole_units(2)),
            6.0
        );
    }

    #[test]
    fn zero_factor_predicts_nothing() {
        let p = BiasedPredictor::new(OraclePredictor::new(PiecewiseConstant::constant(5.0)), 0.0);
        assert_eq!(
            p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(1)),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "bias factor")]
    fn rejects_negative_factor() {
        let _ = BiasedPredictor::new(PersistencePredictor::new(), -1.0);
    }
}
