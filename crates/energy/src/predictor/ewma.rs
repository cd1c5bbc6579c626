//! Kansal-style slotted EWMA predictor (paper refs \[6\], \[9\]).

use harvest_sim::piecewise::Segment;
use harvest_sim::time::{SimDuration, SimTime};

use super::EnergyPredictor;

/// Slot-based exponentially weighted moving-average predictor.
///
/// The source's (quasi-)period — a day for solar — is divided into `S`
/// equal slots. For each slot an EWMA of the mean power observed in past
/// cycles is maintained:
///
/// ```text
/// estimate[s] ← (1 − α)·estimate[s] + α·observed_mean_power[s]
/// ```
///
/// Prediction integrates the per-slot estimates over the query window.
/// This follows the harvesting-aware power-management scheme of Kansal
/// et al. that the paper builds on (refs \[6\], \[9\]).
///
/// # Examples
///
/// ```
/// use harvest_energy::predictor::{EnergyPredictor, EwmaSlotPredictor};
/// use harvest_sim::piecewise::Segment;
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// // 4 slots of 25 units each over a 100-unit period.
/// let mut p = EwmaSlotPredictor::new(SimDuration::from_whole_units(100), 4, 0.5);
/// // Observing past the slot boundary commits slot 0 (mean power 2.0).
/// p.observe(Segment {
///     start: SimTime::ZERO,
///     end: SimTime::from_whole_units(30),
///     value: 2.0,
/// });
/// // Slot 0 estimate moved from 0 toward 2.0 by α = 0.5 → 1.0.
/// let e = p.predict_energy(
///     SimTime::from_whole_units(100),
///     SimTime::from_whole_units(125),
/// );
/// assert_eq!(e, 25.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EwmaSlotPredictor {
    period: SimDuration,
    slot_len: SimDuration,
    alpha: f64,
    estimates: Vec<f64>,
    /// Per-slot accumulation for the cycle currently being observed:
    /// (energy, covered duration in units).
    pending: Vec<(f64, f64)>,
    /// Index of the slot currently accumulating, in absolute slot count.
    cursor: Option<i64>,
}

impl EwmaSlotPredictor {
    /// Creates a predictor with `slots` slots per `period` and smoothing
    /// factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `period` is not positive, `slots` is zero, `period` is
    /// not divisible into whole-tick slots, or `alpha` is outside
    /// `(0, 1]`.
    pub fn new(period: SimDuration, slots: usize, alpha: f64) -> Self {
        assert!(period.is_positive(), "period must be positive");
        assert!(slots > 0, "need at least one slot");
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must lie in (0, 1]");
        assert_eq!(
            period.as_ticks() % slots as i64,
            0,
            "period must divide evenly into slots"
        );
        let slot_len = SimDuration::from_ticks(period.as_ticks() / slots as i64);
        EwmaSlotPredictor {
            period,
            slot_len,
            alpha,
            estimates: vec![0.0; slots],
            pending: vec![(0.0, 0.0); slots],
            cursor: None,
        }
    }

    /// Seeds the per-slot estimates (e.g. from a historical profile).
    ///
    /// # Panics
    ///
    /// Panics if the slice length differs from the slot count.
    pub fn seed_estimates(&mut self, estimates: &[f64]) {
        assert_eq!(
            estimates.len(),
            self.estimates.len(),
            "estimate count mismatch"
        );
        self.estimates.copy_from_slice(estimates);
    }

    /// Absolute slot index containing instant `t`.
    fn abs_slot(&self, t: SimTime) -> i64 {
        t.as_ticks().div_euclid(self.slot_len.as_ticks())
    }

    /// Folds an absolute slot index into the per-period table.
    fn table_index(&self, abs: i64) -> usize {
        abs.rem_euclid(self.estimates.len() as i64) as usize
    }

    /// Commits the pending accumulation of `abs` into the EWMA table.
    fn commit(&mut self, abs: i64) {
        let idx = self.table_index(abs);
        let (energy, covered) = self.pending[idx];
        if covered > 0.0 {
            let mean = energy / covered;
            self.estimates[idx] = (1.0 - self.alpha) * self.estimates[idx] + self.alpha * mean;
        }
        self.pending[idx] = (0.0, 0.0);
    }
}

impl EnergyPredictor for EwmaSlotPredictor {
    fn observe(&mut self, segment: Segment) {
        if segment.end <= segment.start {
            return;
        }
        // Split the segment at slot boundaries and accumulate.
        let mut t = segment.start;
        while t < segment.end {
            let abs = self.abs_slot(t);
            if let Some(cur) = self.cursor {
                if abs != cur {
                    // Crossed into a new slot: fold every slot we passed.
                    for done in cur..abs {
                        self.commit(done);
                    }
                }
            }
            self.cursor = Some(abs);
            let slot_end =
                SimTime::from_ticks((abs + 1) * self.slot_len.as_ticks()).min(segment.end);
            let span = (slot_end - t).as_units();
            let idx = self.table_index(abs);
            self.pending[idx].0 += segment.value * span;
            self.pending[idx].1 += span;
            t = slot_end;
        }
    }

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        if until <= from {
            return 0.0;
        }
        let mut energy = 0.0;
        let mut t = from;
        while t < until {
            let abs = self.abs_slot(t);
            let slot_end = SimTime::from_ticks((abs + 1) * self.slot_len.as_ticks()).min(until);
            let idx = self.table_index(abs);
            // Blend the committed estimate with any partial observation of
            // the very slot being predicted (its own cycle's data is the
            // freshest information available).
            let (pe, pc) = self.pending[idx];
            let est = if pc > 0.0 && self.cursor == Some(abs) {
                pe / pc
            } else {
                self.estimates[idx]
            };
            energy += est * (slot_end - t).as_units();
            t = slot_end;
        }
        energy
    }

    fn name(&self) -> &str {
        "ewma-slots"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::seg;

    fn predictor() -> EwmaSlotPredictor {
        EwmaSlotPredictor::new(SimDuration::from_whole_units(100), 4, 0.5)
    }

    #[test]
    fn learns_periodic_pattern() {
        let mut p = EwmaSlotPredictor::new(SimDuration::from_whole_units(4), 2, 1.0);
        // Period 4, slots of 2: powers 3 then 1, repeated.
        for cycle in 0..3 {
            let base = cycle * 4;
            p.observe(seg(base, base + 2, 3.0));
            p.observe(seg(base + 2, base + 4, 1.0));
        }
        // Predict the next full cycle: 2·3 + 2·1 = 8.
        let e = p.predict_energy(SimTime::from_whole_units(12), SimTime::from_whole_units(16));
        assert!((e - 8.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn ewma_smooths_between_cycles() {
        let mut p = predictor();
        p.observe(seg(0, 25, 4.0));
        p.observe(seg(25, 50, 0.0)); // commits slot 0 with mean 4 → est 2
        assert!((p.estimates[0] - 2.0).abs() < 1e-12);
        p.observe(seg(100, 125, 4.0));
        p.observe(seg(125, 130, 0.0)); // commits slot 0 again → 3
        assert!((p.estimates[0] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn partial_current_slot_informs_prediction() {
        let mut p = predictor();
        // Observe only 10 units into slot 0 at power 6.
        p.observe(seg(0, 10, 6.0));
        // Predicting the rest of slot 0 should use the fresh mean (6).
        let e = p.predict_energy(SimTime::from_whole_units(10), SimTime::from_whole_units(25));
        assert!((e - 90.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    fn unobserved_slots_predict_zero() {
        let p = predictor();
        assert_eq!(
            p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(100)),
            0.0
        );
    }

    #[test]
    fn seeding_estimates() {
        let mut p = predictor();
        p.seed_estimates(&[1.0, 2.0, 3.0, 4.0]);
        let e = p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(100));
        assert!((e - 250.0).abs() < 1e-9);
    }

    #[test]
    fn prediction_spans_multiple_slots_and_cycles() {
        let mut p = EwmaSlotPredictor::new(SimDuration::from_whole_units(4), 2, 1.0);
        p.seed_estimates(&[2.0, 0.0]);
        // 1.5 cycles from t=1: [1,2) slot0 ⇒ 2, [2,4) slot1 ⇒ 0,
        // [4,6) slot0 ⇒ 4, [6,7) slot1 ⇒ 0. Total 6.
        let e = p.predict_energy(SimTime::from_whole_units(1), SimTime::from_whole_units(7));
        assert!((e - 6.0).abs() < 1e-9, "got {e}");
    }

    #[test]
    #[should_panic(expected = "divide evenly")]
    fn uneven_slots_rejected() {
        let _ = EwmaSlotPredictor::new(SimDuration::from_ticks(10), 3, 0.5);
    }
}
