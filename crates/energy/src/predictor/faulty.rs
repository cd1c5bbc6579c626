//! Deterministic predictor corruption: multiplicative noise and
//! dropped (stale) observations.

use harvest_sim::piecewise::Segment;
use harvest_sim::time::SimTime;
use serde::{Deserialize, Serialize};

use super::EnergyPredictor;
use crate::rand_util::{splitmix64, unit_from_bits};

/// Corruption parameters for a [`FaultyPredictor`].
///
/// Both effects are hash-keyed on `(seed, query/observation time)`, not
/// on call order, so the corruption is deterministic, replayable, and
/// independent of how often the scheduler happens to ask.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PredictorFault {
    /// Relative noise amplitude `a`: each prediction is scaled by a
    /// value in `[1 - a, 1 + a]`, floored at zero. `0` disables noise.
    pub noise_amplitude: f64,
    /// Probability in `[0, 1]` that an observed segment is dropped
    /// before reaching the inner predictor (models a stale/flaky
    /// telemetry link). `0` disables staleness.
    pub drop_rate: f64,
    /// Hash seed for both effects.
    pub seed: u64,
}

impl PredictorFault {
    /// `true` when the fault corrupts nothing.
    pub fn is_empty(&self) -> bool {
        self.noise_amplitude == 0.0 && self.drop_rate == 0.0
    }
}

fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    let mut s = seed ^ a.rotate_left(17) ^ b.rotate_left(41);
    splitmix64(&mut s)
}

/// Wraps a predictor with deterministic corruption per
/// [`PredictorFault`].
///
/// With an all-zero fault this is an exact pass-through: predictions
/// are returned untouched (no multiply) and every observation is
/// forwarded, so a zero-intensity fault plan stays bit-identical to a
/// fault-free run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultyPredictor<P> {
    inner: P,
    fault: PredictorFault,
    name: String,
}

impl<P: EnergyPredictor> FaultyPredictor<P> {
    /// Wraps `inner` with the given corruption parameters.
    ///
    /// # Panics
    ///
    /// Panics if the amplitude is negative/non-finite or the drop rate
    /// is outside `[0, 1]`.
    pub fn new(inner: P, fault: PredictorFault) -> Self {
        assert!(
            fault.noise_amplitude.is_finite() && fault.noise_amplitude >= 0.0,
            "noise amplitude must be finite and >= 0"
        );
        assert!(
            fault.drop_rate.is_finite() && (0.0..=1.0).contains(&fault.drop_rate),
            "drop rate must lie in [0, 1]"
        );
        let name = format!(
            "faulty({}, noise={}, drop={})",
            inner.name(),
            fault.noise_amplitude,
            fault.drop_rate
        );
        FaultyPredictor { inner, fault, name }
    }

    /// The corruption parameters.
    pub fn fault(&self) -> PredictorFault {
        self.fault
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

impl<P: EnergyPredictor + Clone + 'static> EnergyPredictor for FaultyPredictor<P> {
    fn observe(&mut self, segment: Segment) {
        if self.fault.drop_rate > 0.0 {
            let u = unit_from_bits(hash3(
                self.fault.seed ^ 0xD0_0D,
                segment.start.as_ticks() as u64,
                segment.end.as_ticks() as u64,
            ));
            if u < self.fault.drop_rate {
                return;
            }
        }
        self.inner.observe(segment);
    }

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        let e = self.inner.predict_energy(from, until);
        if self.fault.noise_amplitude == 0.0 {
            return e;
        }
        let u = unit_from_bits(hash3(
            self.fault.seed,
            from.as_ticks() as u64,
            until.as_ticks() as u64,
        ));
        let factor = 1.0 + self.fault.noise_amplitude * (2.0 * u - 1.0);
        (e * factor).max(0.0)
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

    fn t(units: i64) -> SimTime {
        SimTime::from_whole_units(units)
    }

    #[test]
    fn zero_fault_is_exact_passthrough() {
        let oracle = OraclePredictor::new(PiecewiseConstant::constant(3.0));
        let p = FaultyPredictor::new(oracle.clone(), PredictorFault::default());
        for (a, b) in [(0, 10), (5, 7), (100, 200)] {
            assert_eq!(
                p.predict_energy(t(a), t(b)).to_bits(),
                oracle.predict_energy(t(a), t(b)).to_bits()
            );
        }
    }

    #[test]
    fn noise_is_deterministic_and_bounded() {
        let fault = PredictorFault {
            noise_amplitude: 0.5,
            drop_rate: 0.0,
            seed: 11,
        };
        let p = FaultyPredictor::new(
            OraclePredictor::new(PiecewiseConstant::constant(2.0)),
            fault,
        );
        let q = FaultyPredictor::new(
            OraclePredictor::new(PiecewiseConstant::constant(2.0)),
            fault,
        );
        let mut distinct = false;
        for i in 0..50i64 {
            let e = p.predict_energy(t(i), t(i + 10));
            assert_eq!(e.to_bits(), q.predict_energy(t(i), t(i + 10)).to_bits());
            // truth = 20; noise keeps it within ±50%.
            assert!((10.0..=30.0).contains(&e), "{e}");
            if e != 20.0 {
                distinct = true;
            }
        }
        assert!(distinct, "noise should perturb at least one prediction");
    }

    #[test]
    fn drop_rate_one_starves_the_inner_predictor() {
        let fault = PredictorFault {
            noise_amplitude: 0.0,
            drop_rate: 1.0,
            seed: 0,
        };
        let mut p = FaultyPredictor::new(PersistencePredictor::new(), fault);
        p.observe(seg(0, 1, 9.0));
        p.observe(seg(1, 2, 9.0));
        // Persistence never saw a sample, so it still predicts nothing.
        assert_eq!(p.predict_energy(t(2), t(3)), 0.0);
    }

    #[test]
    fn partial_drop_is_time_keyed_not_order_keyed() {
        let fault = PredictorFault {
            noise_amplitude: 0.0,
            drop_rate: 0.5,
            seed: 4,
        };
        let mut a = FaultyPredictor::new(PersistencePredictor::new(), fault);
        let mut b = FaultyPredictor::new(PersistencePredictor::new(), fault);
        for i in 0..20 {
            a.observe(seg(i, i + 1, i as f64));
        }
        // Same observations, interleaved with repeats: outcome depends
        // only on segment times, so the final state matches.
        for i in 0..20 {
            b.observe(seg(i, i + 1, i as f64));
            b.observe(seg(i, i + 1, i as f64));
        }
        assert_eq!(
            a.predict_energy(t(20), t(21)).to_bits(),
            b.predict_energy(t(20), t(21)).to_bits()
        );
    }

    #[test]
    #[should_panic(expected = "drop rate")]
    fn rejects_out_of_range_drop_rate() {
        let _ = FaultyPredictor::new(
            PersistencePredictor::new(),
            PredictorFault {
                noise_amplitude: 0.0,
                drop_rate: 1.5,
                seed: 0,
            },
        );
    }
}
