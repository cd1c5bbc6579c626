//! Trace-replay source.

use harvest_sim::piecewise::{Extension, PiecewiseConstant, PiecewiseError};
use harvest_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

use crate::source::HarvestSource;

/// Replays a measured power trace.
///
/// This is the substitution for real solar measurements à la Heliomote /
/// Prometheus (paper refs \[2\], \[3\], \[6\]): a recorded profile is replayed,
/// optionally cyclically, as the harvest source.
///
/// # Examples
///
/// ```
/// use harvest_energy::source::HarvestSource;
/// use harvest_energy::sources::TraceSource;
/// use harvest_sim::time::{SimDuration, SimTime};
/// use rand::SeedableRng;
///
/// let mut src = TraceSource::from_samples(
///     SimDuration::from_whole_units(1),
///     vec![1.0, 3.0, 2.0],
///     true, // repeat forever
/// )?;
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// assert_eq!(src.draw(SimTime::from_whole_units(4), &mut rng), 3.0);
/// # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSource {
    profile: PiecewiseConstant,
}

impl TraceSource {
    /// Builds a trace source from uniformly spaced samples starting at
    /// time zero. With `cyclic` the trace repeats forever; otherwise the
    /// last value holds beyond the trace end.
    ///
    /// # Errors
    ///
    /// Returns [`PiecewiseError`] if the samples are empty, non-finite,
    /// or `dt` is not positive. Negative samples are rejected.
    pub fn from_samples(
        dt: SimDuration,
        samples: Vec<f64>,
        cyclic: bool,
    ) -> Result<Self, PiecewiseError> {
        if let Some(index) = samples.iter().position(|&v| v < 0.0) {
            return Err(PiecewiseError::NonFiniteValue { index });
        }
        let ext = if cyclic {
            Extension::Cycle
        } else {
            Extension::Hold
        };
        let profile = PiecewiseConstant::from_samples(SimTime::ZERO, dt, samples, ext)?;
        Ok(TraceSource { profile })
    }
}

impl HarvestSource for TraceSource {
    fn draw(&mut self, t: SimTime, _rng: &mut StdRng) -> f64 {
        self.profile.value_at(t)
    }

    fn name(&self) -> &str {
        "trace"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn replays_samples() {
        let mut s =
            TraceSource::from_samples(SimDuration::from_whole_units(2), vec![1.0, 2.0], false)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.draw(SimTime::from_whole_units(1), &mut rng), 1.0);
        assert_eq!(s.draw(SimTime::from_whole_units(2), &mut rng), 2.0);
        // Hold extension.
        assert_eq!(s.draw(SimTime::from_whole_units(100), &mut rng), 2.0);
    }

    #[test]
    fn cyclic_replay_wraps() {
        let mut s =
            TraceSource::from_samples(SimDuration::from_whole_units(1), vec![1.0, 2.0, 3.0], true)
                .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(s.draw(SimTime::from_whole_units(3), &mut rng), 1.0);
        assert_eq!(s.draw(SimTime::from_whole_units(5), &mut rng), 3.0);
    }

    #[test]
    fn rejects_negative_samples() {
        let err =
            TraceSource::from_samples(SimDuration::from_whole_units(1), vec![1.0, -2.0], false);
        assert!(matches!(
            err,
            Err(PiecewiseError::NonFiniteValue { index: 1 })
        ));
    }
}
