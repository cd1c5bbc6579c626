//! A single DVFS operating point.

use serde::{Deserialize, Serialize};

/// One (frequency, power) operating point of a DVFS-enabled processor.
///
/// Frequencies are in arbitrary consistent units (the model only ever
/// uses frequency *ratios*); power is in the workspace's power units
/// (watt-scale for the paper experiments — see DESIGN.md on unit
/// normalization).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrequencyLevel {
    /// Clock frequency `f_n`.
    pub(crate) frequency: f64,
    /// Active power consumption `P_n` at this level.
    pub(crate) power: f64,
}

impl FrequencyLevel {
    /// Creates an operating point.
    ///
    /// # Panics
    ///
    /// Panics if either value is non-positive or not finite.
    pub fn new(frequency: f64, power: f64) -> Self {
        assert!(
            frequency.is_finite() && frequency > 0.0,
            "frequency must be positive"
        );
        assert!(power.is_finite() && power > 0.0, "power must be positive");
        FrequencyLevel { frequency, power }
    }

    /// Energy per unit of work done *at this level's own rate* is simply
    /// `power / speed` relative to full-speed work units; this helper
    /// returns energy to complete `work` full-speed units given the
    /// normalized `speed` of this level.
    ///
    /// # Panics
    ///
    /// Panics if `speed` is not in `(0, 1]` or `work` is negative.
    pub(crate) fn energy_for_work(&self, work: f64, speed: f64) -> f64 {
        assert!(speed > 0.0 && speed <= 1.0, "speed must lie in (0, 1]");
        assert!(work >= 0.0, "work must be non-negative");
        self.power * work / speed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let l = FrequencyLevel::new(1000.0, 3.2);
        assert_eq!(l.frequency, 1000.0);
        assert_eq!(l.power, 3.2);
    }

    #[test]
    #[should_panic(expected = "frequency")]
    fn zero_frequency_rejected() {
        let _ = FrequencyLevel::new(0.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "power")]
    fn negative_power_rejected() {
        let _ = FrequencyLevel::new(100.0, -1.0);
    }

    #[test]
    fn energy_for_work_scales_with_slowdown() {
        let l = FrequencyLevel::new(500.0, 2.0);
        // 4 units of full-speed work at half speed: 8 time units × 2 power.
        assert_eq!(l.energy_for_work(4.0, 0.5), 16.0);
        assert_eq!(l.energy_for_work(0.0, 0.5), 0.0);
    }
}
