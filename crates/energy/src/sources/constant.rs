//! Constant-output source.

use harvest_sim::time::SimTime;
use rand::rngs::StdRng;

use crate::source::HarvestSource;

/// A source with fixed output power.
///
/// The paper's §2 motivational example uses a constant 0.5-power source;
/// this model also reproduces the constant-harvest assumption of
/// Allavena & Mossé (paper ref \[4\]).
///
/// # Examples
///
/// ```
/// use harvest_energy::source::HarvestSource;
/// use harvest_energy::sources::ConstantSource;
/// use harvest_sim::time::SimTime;
/// use rand::SeedableRng;
///
/// let mut src = ConstantSource::new(0.5);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(src.draw(SimTime::from_whole_units(100), &mut rng), 0.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstantSource {
    power: f64,
}

impl ConstantSource {
    /// Creates a source emitting `power` forever.
    ///
    /// # Panics
    ///
    /// Panics if `power` is negative or not finite.
    pub fn new(power: f64) -> Self {
        assert!(
            power.is_finite() && power >= 0.0,
            "power must be finite and >= 0"
        );
        ConstantSource { power }
    }
}

impl HarvestSource for ConstantSource {
    fn draw(&mut self, _t: SimTime, _rng: &mut StdRng) -> f64 {
        self.power
    }

    fn name(&self) -> &str {
        "constant"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn emits_configured_power() {
        let mut s = ConstantSource::new(2.25);
        let mut rng = StdRng::seed_from_u64(0);
        for t in 0..5 {
            assert_eq!(s.draw(SimTime::from_whole_units(t), &mut rng), 2.25);
        }
        assert_eq!(s.power, 2.25);
        assert_eq!(s.name(), "constant");
    }

    #[test]
    fn zero_power_is_allowed() {
        let mut s = ConstantSource::new(0.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.draw(SimTime::ZERO, &mut rng), 0.0);
    }

    #[test]
    #[should_panic(expected = "power must be finite")]
    fn negative_power_rejected() {
        let _ = ConstantSource::new(-0.1);
    }
}
