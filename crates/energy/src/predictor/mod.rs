//! Harvested-energy prediction `ÊS(t1, t2)`.
//!
//! The schedulers need the future harvested energy between "now" and a
//! job's deadline (paper eq. 5/9). Real systems estimate it by tracing
//! the source's power profile (paper §3.1, ref \[9\]); the simulator feeds
//! every completed profile segment to the predictor via
//! [`EnergyPredictor::observe`], and the scheduler queries
//! [`EnergyPredictor::predict_energy`].

mod biased;
mod ewma;
mod faulty;
mod moving_average;
mod oracle;
mod persistence;

pub use biased::BiasedPredictor;
pub use ewma::EwmaSlotPredictor;
pub use faulty::{FaultyPredictor, PredictorFault};
pub use moving_average::MovingAveragePredictor;
pub use oracle::OraclePredictor;
pub use persistence::PersistencePredictor;

use harvest_sim::piecewise::Segment;
use harvest_sim::time::SimTime;

/// Estimates the energy the source will deliver over a future window.
///
/// Every `Clone` predictor is also [`BoxClone`], so a
/// `Box<dyn EnergyPredictor>` clones like a value: the closed-loop
/// simulator copies a run's whole state, predictor included, when it
/// forks the run.
pub trait EnergyPredictor: BoxClone {
    /// Feeds one completed constant-power stretch of the realized
    /// profile. Segments arrive in increasing time order and do not
    /// overlap.
    fn observe(&mut self, segment: Segment);

    /// Predicted harvested energy `ÊS(from, until)`; must be finite and
    /// non-negative for `until ≥ from`.
    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64;

    /// Short name for reports.
    fn name(&self) -> &str {
        "predictor"
    }
}

/// Object-safe cloning of a boxed [`EnergyPredictor`]; implemented for
/// every predictor that is `Clone`.
pub trait BoxClone {
    /// A boxed copy of this predictor, state and all.
    fn box_clone(&self) -> Box<dyn EnergyPredictor>;
}

impl<P: EnergyPredictor + Clone + 'static> BoxClone for P {
    fn box_clone(&self) -> Box<dyn EnergyPredictor> {
        Box::new(self.clone())
    }
}

impl Clone for Box<dyn EnergyPredictor> {
    fn clone(&self) -> Self {
        (**self).box_clone()
    }
}

impl EnergyPredictor for Box<dyn EnergyPredictor> {
    fn observe(&mut self, segment: Segment) {
        (**self).observe(segment);
    }

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        (**self).predict_energy(from, until)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use harvest_sim::piecewise::Segment;
    use harvest_sim::time::SimTime;

    /// Builds a segment `[a, b)` with value `v` (units of whole time
    /// units).
    pub fn seg(a: i64, b: i64, v: f64) -> Segment {
        Segment {
            start: SimTime::from_whole_units(a),
            end: SimTime::from_whole_units(b),
            value: v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_util::seg;
    use super::*;

    #[test]
    fn boxed_predictors_clone_with_their_state() {
        let window = |p: &dyn EnergyPredictor| {
            p.predict_energy(SimTime::from_whole_units(20), SimTime::from_whole_units(30))
        };
        let mut original: Box<dyn EnergyPredictor> = Box::new(PersistencePredictor::new());
        original.observe(seg(0, 10, 3.0));
        let copy = original.clone();
        assert_eq!(
            window(copy.as_ref()),
            30.0,
            "the copy keeps the observation"
        );
        original.observe(seg(10, 20, 1.0));
        assert_eq!(window(original.as_ref()), 10.0);
        assert_eq!(window(copy.as_ref()), 30.0, "the copy is independent");
    }
}
