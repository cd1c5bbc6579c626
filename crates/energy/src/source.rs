//! The [`HarvestSource`] trait and profile sampling.
//!
//! An ambient energy source is modelled as a generator of instantaneous
//! power values; [`sample_profile`] freezes one stochastic *realization*
//! into an exact piecewise-constant [`PiecewiseConstant`] profile that
//! the simulator can integrate in closed form (paper §3.1, eq. 2).

use harvest_sim::piecewise::{Extension, PiecewiseConstant, PiecewiseError};
use harvest_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A model of an ambient energy source.
///
/// `draw` produces the net output power (after conversion circuitry, per
/// paper §3.1) holding over a sampling interval starting at `t`.
/// Deterministic sources ignore the RNG; stateful stochastic sources
/// (e.g. Markov weather) may mutate internal state, so realizations must
/// be drawn in increasing time order.
pub trait HarvestSource {
    /// Power value holding over the sampling interval starting at `t`.
    /// Must be finite and non-negative.
    fn draw(&mut self, t: SimTime, rng: &mut StdRng) -> f64;

    /// Fills `out` with the draws for the grid `start, start + dt, …`,
    /// one slot per grid point, exactly as that many [`draw`](Self::draw)
    /// calls in time order would.
    ///
    /// The default is that loop. A source overrides it only to draw the
    /// same values faster.
    fn draw_grid(&mut self, start: SimTime, dt: SimDuration, rng: &mut StdRng, out: &mut [f64]) {
        let mut t = start;
        for p in out {
            *p = self.draw(t, rng);
            t += dt;
        }
    }

    /// Short human-readable model name for reports.
    fn name(&self) -> &str {
        "harvest-source"
    }
}

/// Samples one realization of `source` on a uniform grid.
///
/// The realization holds each drawn value constant for `dt`, covers
/// `[start, start + n·dt)` with `n = ceil(horizon / dt)` samples, and uses
/// [`Extension::Hold`] beyond the horizon.
///
/// Identical `(source, seed)` pairs produce identical profiles, which is
/// the backbone of reproducible experiments.
///
/// # Errors
///
/// Propagates [`PiecewiseError`] if `dt` is not positive or the horizon is
/// empty.
///
/// # Panics
///
/// Panics if the source draws a negative or non-finite power.
///
/// # Examples
///
/// ```
/// use harvest_energy::source::{sample_profile, HarvestSource};
/// use harvest_energy::sources::ConstantSource;
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// let profile = sample_profile(
///     &mut ConstantSource::new(0.5),
///     SimTime::ZERO,
///     SimDuration::from_whole_units(25),
///     SimDuration::from_whole_units(1),
///     42,
/// )?;
/// let e = profile.integrate(SimTime::ZERO, SimTime::from_whole_units(16));
/// assert_eq!(e, 8.0); // the paper's §2 example: ES(0,16) = 8
/// # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
/// ```
pub fn sample_profile<S: HarvestSource + ?Sized>(
    source: &mut S,
    start: SimTime,
    horizon: SimDuration,
    dt: SimDuration,
    seed: u64,
) -> Result<PiecewiseConstant, PiecewiseError> {
    if !dt.is_positive() || !horizon.is_positive() {
        return Err(PiecewiseError::LengthMismatch {
            breakpoints: 0,
            values: 0,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let n = ((horizon.as_ticks() + dt.as_ticks() - 1) / dt.as_ticks()) as usize;
    let mut samples = vec![0.0; n];
    source.draw_grid(start, dt, &mut rng, &mut samples);
    if let Some(i) = samples.iter().position(|p| !(p.is_finite() && *p >= 0.0)) {
        let t = SimTime::from_ticks(start.as_ticks() + i as i64 * dt.as_ticks());
        panic!(
            "source {:?} drew invalid power {} at {t}",
            source.name(),
            samples[i]
        );
    }
    PiecewiseConstant::from_samples(start, dt, samples, Extension::Hold)
}

impl<S: HarvestSource + ?Sized> HarvestSource for &mut S {
    fn draw(&mut self, t: SimTime, rng: &mut StdRng) -> f64 {
        (**self).draw(t, rng)
    }

    fn draw_grid(&mut self, start: SimTime, dt: SimDuration, rng: &mut StdRng, out: &mut [f64]) {
        (**self).draw_grid(start, dt, rng, out);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

impl<S: HarvestSource + ?Sized> HarvestSource for Box<S> {
    fn draw(&mut self, t: SimTime, rng: &mut StdRng) -> f64 {
        (**self).draw(t, rng)
    }

    fn draw_grid(&mut self, start: SimTime, dt: SimDuration, rng: &mut StdRng, out: &mut [f64]) {
        (**self).draw_grid(start, dt, rng, out);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::ConstantSource;

    fn u(x: i64) -> SimTime {
        SimTime::from_whole_units(x)
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let mk = |seed| {
            sample_profile(
                &mut ConstantSource::new(1.0),
                SimTime::ZERO,
                SimDuration::from_whole_units(10),
                SimDuration::from_whole_units(1),
                seed,
            )
            .unwrap()
        };
        assert_eq!(mk(9), mk(9));
    }

    #[test]
    fn sampling_covers_horizon_with_ceil() {
        let p = sample_profile(
            &mut ConstantSource::new(1.0),
            SimTime::ZERO,
            SimDuration::from_units(9.5),
            SimDuration::from_whole_units(2),
            0,
        )
        .unwrap();
        assert_eq!(p.segment_count(), 5);
        assert_eq!(p.domain_end(), u(10));
    }

    #[test]
    fn sampling_rejects_bad_grid() {
        let err = sample_profile(
            &mut ConstantSource::new(1.0),
            SimTime::ZERO,
            SimDuration::ZERO,
            SimDuration::from_whole_units(1),
            0,
        );
        assert!(err.is_err());
    }

    #[test]
    fn trait_objects_work() {
        let mut boxed: Box<dyn HarvestSource> = Box::new(ConstantSource::new(3.0));
        let p = sample_profile(
            &mut boxed,
            SimTime::ZERO,
            SimDuration::from_whole_units(4),
            SimDuration::from_whole_units(1),
            0,
        )
        .unwrap();
        assert_eq!(p.domain_mean(), 3.0);
    }
}
