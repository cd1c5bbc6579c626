//! Analytic power laws for deriving operating-point tables.

use serde::{Deserialize, Serialize};

use crate::level::FrequencyLevel;
use crate::model::{CpuModel, CpuModelError};

/// A CMOS-style power law `P(s) = p_static + c · s^k` over normalized
/// speed `s ∈ (0, 1]`.
///
/// Classic DVFS analyses (Yao/Demers/Shenker, paper ref \[12\]) assume a
/// convex power curve, typically cubic (`k = 3`); this builder generates
/// synthetic processors with any number of levels for the
/// `ablation_speed_levels` benchmark.
///
/// # Examples
///
/// ```
/// use harvest_cpu::PowerLaw;
///
/// // A cubic, 4-level processor peaking at 3.2 power units.
/// let law = PowerLaw::cubic(3.2);
/// let cpu = law.build_model(1000.0, 4)?;
/// assert_eq!(cpu.level_count(), 4);
/// assert!((cpu.max_power() - 3.2).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerLaw {
    static_power: f64,
    dynamic_coeff: f64,
    exponent: f64,
}

impl PowerLaw {
    /// Creates a power law with the given static power, dynamic
    /// coefficient, and speed exponent.
    ///
    /// # Panics
    ///
    /// Panics if `static_power` is negative, `dynamic_coeff` is
    /// non-positive, or `exponent < 1` (sub-linear laws make slowing
    /// down never profitable and are almost certainly a mistake).
    pub(crate) fn new(static_power: f64, dynamic_coeff: f64, exponent: f64) -> Self {
        assert!(
            static_power.is_finite() && static_power >= 0.0,
            "static power must be finite and >= 0"
        );
        assert!(
            dynamic_coeff.is_finite() && dynamic_coeff > 0.0,
            "dynamic coefficient must be positive"
        );
        assert!(
            exponent.is_finite() && exponent >= 1.0,
            "exponent must be >= 1"
        );
        PowerLaw {
            static_power,
            dynamic_coeff,
            exponent,
        }
    }

    /// The conventional cubic law with no static power, peaking at
    /// `peak_power`.
    pub fn cubic(peak_power: f64) -> Self {
        PowerLaw::new(0.0, peak_power, 3.0)
    }

    /// Power at normalized speed `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` is outside `(0, 1]`.
    pub(crate) fn power_at(&self, s: f64) -> f64 {
        assert!(s > 0.0 && s <= 1.0, "speed must lie in (0, 1]");
        self.static_power + self.dynamic_coeff * s.powf(self.exponent)
    }

    /// Builds an `n`-level [`CpuModel`] with equally spaced speeds
    /// `1/n, 2/n, …, 1` scaled to `f_max`.
    ///
    /// # Errors
    ///
    /// Propagates `CpuModelError` (cannot occur for valid laws, but
    /// the signature stays honest).
    ///
    /// # Panics
    ///
    /// Panics if `f_max` is non-positive or `n` is zero.
    pub fn build_model(&self, f_max: f64, n: usize) -> Result<CpuModel, CpuModelError> {
        assert!(f_max.is_finite() && f_max > 0.0, "f_max must be positive");
        assert!(n > 0, "need at least one level");
        let levels = (1..=n)
            .map(|i| {
                let s = i as f64 / n as f64;
                FrequencyLevel::new(f_max * s, self.power_at(s))
            })
            .collect();
        CpuModel::new(levels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cubic_power_values() {
        let law = PowerLaw::cubic(8.0);
        assert_eq!(law.power_at(1.0), 8.0);
        assert_eq!(law.power_at(0.5), 1.0);
    }

    #[test]
    fn build_model_spaces_levels_evenly() {
        let cpu = PowerLaw::cubic(3.2).build_model(1000.0, 5).unwrap();
        assert_eq!(cpu.level_count(), 5);
        assert!((cpu.speed(0) - 0.2).abs() < 1e-12);
        assert!((cpu.speed(4) - 1.0).abs() < 1e-12);
        assert!((cpu.max_power() - 3.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "exponent")]
    fn sublinear_law_rejected() {
        let _ = PowerLaw::new(0.0, 1.0, 0.5);
    }

    #[test]
    #[should_panic(expected = "speed")]
    fn out_of_range_speed_rejected() {
        let _ = PowerLaw::cubic(1.0).power_at(1.5);
    }
}
