//! Markov weather-modulated source.

use harvest_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

use crate::source::HarvestSource;

/// Sky condition in the weather chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum WeatherState {
    /// Full output from the underlying model.
    Clear,
    /// Attenuated output.
    Cloudy,
    /// Heavily attenuated output.
    Overcast,
}

impl WeatherState {
    const ALL: [WeatherState; 3] = [
        WeatherState::Clear,
        WeatherState::Cloudy,
        WeatherState::Overcast,
    ];

    fn index(self) -> usize {
        match self {
            WeatherState::Clear => 0,
            WeatherState::Cloudy => 1,
            WeatherState::Overcast => 2,
        }
    }
}

/// Wraps a clear-sky model with a three-state Markov weather chain.
///
/// At every draw the chain takes one step of its transition matrix and
/// the inner model's output is scaled by the state's attenuation factor.
/// This extends the paper's eq. 13 generator with correlated weather —
/// useful for stress-testing predictors (the paper's model has i.i.d.
/// noise only).
///
/// # Examples
///
/// ```
/// use harvest_energy::source::HarvestSource;
/// use harvest_energy::sources::{ConstantSource, MarkovWeatherSource};
/// use harvest_sim::time::SimTime;
/// use rand::SeedableRng;
///
/// let mut src = MarkovWeatherSource::with_default_attenuation(
///     ConstantSource::new(10.0),
///     0.9, // probability of keeping the current state per step
/// );
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let p = src.draw(SimTime::ZERO, &mut rng);
/// assert!(p == 10.0 || p == 4.0 || p == 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct MarkovWeatherSource<S> {
    inner: S,
    /// Row-stochastic transition matrix over `[Clear, Cloudy, Overcast]`.
    transition: [[f64; 3]; 3],
    /// Output scale per state.
    attenuation: [f64; 3],
    state: WeatherState,
    name: String,
}

impl<S: HarvestSource> MarkovWeatherSource<S> {
    /// Creates a weather-modulated source.
    ///
    /// # Panics
    ///
    /// Panics if a transition row does not sum to 1 (±1e-9), any entry is
    /// negative, or an attenuation factor is outside `[0, 1]`.
    pub(crate) fn new(inner: S, transition: [[f64; 3]; 3], attenuation: [f64; 3]) -> Self {
        for row in &transition {
            let sum: f64 = row.iter().sum();
            assert!(
                (sum - 1.0).abs() < 1e-9,
                "transition rows must sum to 1, got {sum}"
            );
            assert!(
                row.iter().all(|&p| p >= 0.0),
                "transition probabilities must be >= 0"
            );
        }
        assert!(
            attenuation.iter().all(|&a| (0.0..=1.0).contains(&a)),
            "attenuation factors must lie in [0, 1]"
        );
        let name = format!("markov-weather({})", inner.name());
        MarkovWeatherSource {
            inner,
            transition,
            attenuation,
            state: WeatherState::Clear,
            name,
        }
    }

    /// Symmetric chain: stay with probability `persistence`, otherwise
    /// move to each other state with equal probability. Attenuations are
    /// 1.0 / 0.4 / 0.1.
    ///
    /// # Panics
    ///
    /// Panics if `persistence` is outside `[0, 1]`.
    pub fn with_default_attenuation(inner: S, persistence: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&persistence),
            "persistence must lie in [0, 1]"
        );
        let q = (1.0 - persistence) / 2.0;
        let p = persistence;
        MarkovWeatherSource::new(inner, [[p, q, q], [q, p, q], [q, q, p]], [1.0, 0.4, 0.1])
    }

    fn step(&mut self, rng: &mut StdRng) {
        let row = self.transition[self.state.index()];
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (s, &p) in WeatherState::ALL.iter().zip(&row) {
            acc += p;
            if u < acc {
                self.state = *s;
                return;
            }
        }
        // Floating-point shortfall: stay in the last state.
        self.state = WeatherState::Overcast;
    }
}

impl<S: HarvestSource> HarvestSource for MarkovWeatherSource<S> {
    fn draw(&mut self, t: SimTime, rng: &mut StdRng) -> f64 {
        self.step(rng);
        let scale = self.attenuation[self.state.index()];
        self.inner.draw(t, rng) * scale
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::ConstantSource;
    use rand::SeedableRng;

    #[test]
    fn outputs_are_attenuated_inner_values() {
        let mut s = MarkovWeatherSource::with_default_attenuation(ConstantSource::new(10.0), 0.5);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let p = s.draw(SimTime::ZERO, &mut rng);
            assert!(p == 10.0 || p == 4.0 || p == 1.0, "unexpected output {p}");
        }
    }

    #[test]
    fn high_persistence_changes_state_rarely() {
        let mut s = MarkovWeatherSource::with_default_attenuation(ConstantSource::new(1.0), 0.99);
        let mut rng = StdRng::seed_from_u64(2);
        let mut changes = 0;
        let mut prev = s.state;
        for _ in 0..1_000 {
            s.draw(SimTime::ZERO, &mut rng);
            if s.state != prev {
                changes += 1;
                prev = s.state;
            }
        }
        assert!(
            changes < 40,
            "too many changes for persistence 0.99: {changes}"
        );
    }

    #[test]
    fn visits_all_states_eventually() {
        let mut s = MarkovWeatherSource::with_default_attenuation(ConstantSource::new(1.0), 0.3);
        let mut rng = StdRng::seed_from_u64(8);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            s.draw(SimTime::ZERO, &mut rng);
            seen.insert(s.state);
        }
        assert_eq!(seen.len(), 3);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn rejects_bad_transition_matrix() {
        let _ = MarkovWeatherSource::new(
            ConstantSource::new(1.0),
            [[0.5, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [1.0, 0.5, 0.1],
        );
    }

    #[test]
    #[should_panic(expected = "attenuation")]
    fn rejects_bad_attenuation() {
        let _ = MarkovWeatherSource::new(
            ConstantSource::new(1.0),
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
            [1.5, 0.5, 0.1],
        );
    }
}
