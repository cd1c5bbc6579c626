//! The paper's stochastic solar model (eq. 13).

use std::cell::RefCell;

use harvest_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;

use crate::rand_util::{box_muller, uniform_pair};
use crate::source::HarvestSource;

/// `u2` values strictly inside this open band have `cos(2π·u2) < 0`, so
/// their clamped normal, and with it the sample, is `+0.0` whatever `u1`
/// and the envelope are. The band sits `1e-9` inside `(1/4, 3/4)`, far
/// beyond the rounding of `2π·u2` and `cos`, so the sign is certain; the
/// pairs between it and `1/4` or `3/4` take the full expression.
const CLAMPED_U2: (f64, f64) = (0.25 + 1e-9, 0.75 - 1e-9);

/// Whether a pair with this `u2` is certain to draw `+0.0`.
#[inline]
fn surely_clamped(u2: f64) -> bool {
    (u2 > CLAMPED_U2.0) & (u2 < CLAMPED_U2.1)
}

/// Samples per chunk of [`SolarModel::draw_grid`]'s two passes: one
/// chunk's kept pairs fit a 6 KiB stack array.
const GRID_CHUNK: usize = 256;

/// The envelope values of one grid: `cos²(t_i/τ)` at `t_i = start +
/// i·step`, keyed by `(start, step, τ bits, length)`.
struct EnvelopeGrid {
    key: (i64, i64, u64, usize),
    values: Vec<f64>,
}

thread_local! {
    /// The envelope of the last grid drawn on this thread. Every seed
    /// of a campaign samples the same grid, so a last-value memo
    /// evaluates its 10 000 cosines once per worker, not once per
    /// profile.
    static ENVELOPE_MEMO: RefCell<Option<EnvelopeGrid>> = const { RefCell::new(None) };
}

/// Stochastic solar source following the paper's generator (§5.1,
/// eq. 13):
///
/// ```text
/// PS(t) = A · N(t) · cos(t/τ) · cos(t/τ),   N(t) ~ N(0, 1)
/// ```
///
/// with `A = 10` and `τ = 70π` in the paper. `N(t)` is redrawn per
/// sample, capturing the fast stochastic component (clouds); the squared
/// cosine is the slow deterministic envelope (diurnal sweep, period
/// `π·τ ≈ 691` time units between nulls).
///
/// Figure 5 of the paper shows a strictly non-negative profile, so the
/// normal factor is clamped at zero (`max(N, 0)`); the substitution is
/// recorded in DESIGN.md. The resulting long-run mean power is
/// `A/√(2π) · 1/2 ≈ 0.1995·A` (≈ 2.0 for the paper's `A = 10`).
///
/// # Examples
///
/// ```
/// use harvest_energy::source::sample_profile;
/// use harvest_energy::sources::SolarModel;
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// let mut solar = SolarModel::paper();
/// let profile = sample_profile(
///     &mut solar,
///     SimTime::ZERO,
///     SimDuration::from_whole_units(10_000),
///     SimDuration::from_whole_units(1),
///     1,
/// )?;
/// let mean = profile.domain_mean();
/// assert!(mean > 1.5 && mean < 2.5, "mean {mean}");
/// # Ok::<(), harvest_sim::piecewise::PiecewiseError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolarModel {
    amplitude: f64,
    time_scale: f64,
}

impl SolarModel {
    /// Creates a solar model with envelope `amplitude · cos²(t /
    /// time_scale)`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is non-positive or not finite.
    pub fn new(amplitude: f64, time_scale: f64) -> Self {
        assert!(
            amplitude.is_finite() && amplitude > 0.0,
            "amplitude must be positive"
        );
        assert!(
            time_scale.is_finite() && time_scale > 0.0,
            "time scale must be positive"
        );
        SolarModel {
            amplitude,
            time_scale,
        }
    }

    /// The paper's parameters: `A = 10`, `τ = 70π` (eq. 13).
    pub fn paper() -> Self {
        SolarModel::new(10.0, 70.0 * std::f64::consts::PI)
    }

    /// Deterministic envelope value at `t` (the cos² factor).
    pub(crate) fn envelope(&self, t: SimTime) -> f64 {
        let c = (t.as_units() / self.time_scale).cos();
        c * c
    }

    /// Eq. 13 for one uniform pair at an instant whose envelope value
    /// is `env`: the one definition of a sample that
    /// [`draw`](HarvestSource::draw) and
    /// [`draw_grid`](HarvestSource::draw_grid) share.
    #[inline]
    fn sample(&self, env: f64, u1: f64, u2: f64) -> f64 {
        let n = box_muller(u1, u2).max(0.0);
        self.amplitude * n * env
    }
}

impl HarvestSource for SolarModel {
    fn draw(&mut self, t: SimTime, rng: &mut StdRng) -> f64 {
        let (u1, u2) = uniform_pair(rng);
        self.sample(self.envelope(t), u1, u2)
    }

    /// Bit-identical to the default loop, in two passes per chunk of
    /// 256 samples. About half the pairs have a `u2` that makes the
    /// sample surely `+0.0`, so pass 1 draws the chunk's pairs in stream
    /// order, zeroes every slot and keeps the other pairs, compacted
    /// without a branch (a per-sample `if` mispredicts about half the
    /// time). Pass 2 evaluates only those and never draws, so the
    /// stream order is the loop's. The envelope values come from a
    /// per-thread memo of the last grid drawn, each from the same
    /// `cos²(t/τ)` evaluation the loop makes.
    fn draw_grid(&mut self, start: SimTime, dt: SimDuration, rng: &mut StdRng, out: &mut [f64]) {
        let (t0, step) = (start.as_ticks(), dt.as_ticks());
        let key = (t0, step, self.time_scale.to_bits(), out.len());
        ENVELOPE_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            let env = match &mut *memo {
                Some(grid) if grid.key == key => &grid.values,
                slot => {
                    let values = (0..out.len())
                        .map(|i| self.envelope(SimTime::from_ticks(t0 + i as i64 * step)))
                        .collect();
                    &slot.insert(EnvelopeGrid { key, values }).values
                }
            };
            let mut kept = [(0usize, 0.0, 0.0); GRID_CHUNK];
            for (chunk, env) in out.chunks_mut(GRID_CHUNK).zip(env.chunks(GRID_CHUNK)) {
                let mut m = 0;
                for (i, p) in chunk.iter_mut().enumerate() {
                    let (u1, u2) = uniform_pair(rng);
                    *p = 0.0;
                    kept[m] = (i, u1, u2);
                    m += usize::from(!surely_clamped(u2));
                }
                for &(i, u1, u2) in &kept[..m] {
                    chunk[i] = self.sample(env[i], u1, u2);
                }
            }
        });
    }

    fn name(&self) -> &str {
        "solar-eq13"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::sample_profile;
    use harvest_sim::piecewise::PiecewiseConstant;
    use rand::SeedableRng;

    #[test]
    fn output_is_non_negative_and_bounded_by_amplitude_tail() {
        let mut s = SolarModel::paper();
        let mut rng = StdRng::seed_from_u64(3);
        for t in 0..2_000 {
            let p = s.draw(SimTime::from_whole_units(t), &mut rng);
            assert!(p >= 0.0);
            assert!(p < 10.0 * 6.0, "6-sigma bound breached: {p}");
        }
    }

    #[test]
    fn envelope_nulls_at_quarter_period() {
        let s = SolarModel::new(10.0, 100.0);
        // cos(t/100) = 0 at t = 50π.
        let t = SimTime::from_units(50.0 * std::f64::consts::PI);
        assert!(s.envelope(t) < 1e-12);
        assert!((s.envelope(SimTime::ZERO) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn long_run_mean_near_two_for_paper_params() {
        let p = sample_profile(
            &mut SolarModel::paper(),
            SimTime::ZERO,
            SimDuration::from_whole_units(50_000),
            SimDuration::from_whole_units(1),
            17,
        )
        .unwrap();
        let mean = p.domain_mean();
        // E = 10 · E[max(N,0)] · E[cos²] = 10 · 0.3989 · 0.5 ≈ 1.99
        assert!((mean - 1.99).abs() < 0.15, "mean {mean}");
    }

    #[test]
    fn paper_parameters() {
        let s = SolarModel::paper();
        assert_eq!(s.amplitude, 10.0);
        assert!((s.time_scale - 219.911).abs() < 1e-2);
        assert_eq!(s.name(), "solar-eq13");
    }

    /// The default grid loop, spelled out: one `draw` per grid point.
    fn draw_loop(
        s: &mut SolarModel,
        start: SimTime,
        dt: SimDuration,
        n: usize,
        rng: &mut StdRng,
    ) -> Vec<u64> {
        let mut t = start;
        (0..n)
            .map(|_| {
                let p = s.draw(t, rng);
                t += dt;
                p.to_bits()
            })
            .collect()
    }

    #[test]
    fn batch_draws_equal_a_loop_of_draws_bit_for_bit() {
        use rand::Rng;
        let starts = [SimTime::ZERO, SimTime::from_whole_units(37)];
        let dts = [
            SimDuration::from_whole_units(1),
            SimDuration::from_units(0.5),
            SimDuration::from_whole_units(3),
        ];
        let mut boxed: Box<dyn HarvestSource> = Box::new(SolarModel::paper());
        for seed in 0..200 {
            for &start in &starts {
                for &dt in &dts {
                    for n in [1, 7, GRID_CHUNK, GRID_CHUNK + 1, 10_000] {
                        let ctx = format!("seed {seed}, start {start}, dt {dt}, n {n}");
                        let mut rng = StdRng::seed_from_u64(seed);
                        let want = draw_loop(&mut SolarModel::paper(), start, dt, n, &mut rng);
                        let after = rng.gen::<u64>();

                        let mut rng = StdRng::seed_from_u64(seed);
                        let mut out = vec![f64::NAN; n];
                        SolarModel::paper().draw_grid(start, dt, &mut rng, &mut out);
                        let got: Vec<u64> = out.iter().map(|p| p.to_bits()).collect();
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(rng.gen::<u64>(), after, "stream position ({ctx})");

                        if n != 10_000 || seed % 20 == 0 {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let mut out = vec![f64::NAN; n];
                            boxed.draw_grid(start, dt, &mut rng, &mut out);
                            let got: Vec<u64> = out.iter().map(|p| p.to_bits()).collect();
                            assert_eq!(got, want, "boxed ({ctx})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn the_envelope_memo_is_keyed_by_grid_and_time_scale() {
        let grids = [
            (SolarModel::paper(), 0, 1_000_000, 500),
            (SolarModel::new(10.0, 100.0), 0, 1_000_000, 500),
            (SolarModel::paper(), 37_000_000, 1_000_000, 500),
            (SolarModel::paper(), 0, 500_000, 500),
            (SolarModel::paper(), 0, 1_000_000, 499),
        ];
        // Each grid twice in a row (a memo hit) and after another grid
        // (a miss), against the loop of draws.
        for round in 0..2 {
            for &(model, start, step, n) in &grids {
                let (start, dt) = (SimTime::from_ticks(start), SimDuration::from_ticks(step));
                for seed in [round, round + 10] {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let want = draw_loop(&mut model.clone(), start, dt, n, &mut rng);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let mut out = vec![f64::NAN; n];
                    model.clone().draw_grid(start, dt, &mut rng, &mut out);
                    let got: Vec<u64> = out.iter().map(|p| p.to_bits()).collect();
                    assert_eq!(
                        got, want,
                        "round {round}, seed {seed}, {model:?} {start} {dt} {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn sample_profile_takes_the_batch_path_through_any_handle() {
        let (start, horizon, dt) = (
            SimTime::from_whole_units(37),
            SimDuration::from_whole_units(1_000),
            SimDuration::from_units(0.5),
        );
        let mut rng = StdRng::seed_from_u64(5);
        let want = draw_loop(&mut SolarModel::paper(), start, dt, 2_000, &mut rng);
        let bits =
            |p: PiecewiseConstant| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut solar = SolarModel::paper();
        let mut boxed: Box<dyn HarvestSource> = Box::new(SolarModel::paper());
        let by_value = sample_profile(&mut solar, start, horizon, dt, 5).unwrap();
        let by_box = sample_profile(&mut boxed, start, horizon, dt, 5).unwrap();
        let by_dyn_ref = sample_profile(
            &mut (&mut solar as &mut dyn HarvestSource),
            start,
            horizon,
            dt,
            5,
        )
        .unwrap();
        assert_eq!(bits(by_value), want);
        assert_eq!(bits(by_box), want);
        assert_eq!(bits(by_dyn_ref), want);
    }

    #[test]
    fn the_shortcut_fires_only_where_the_full_expression_is_plus_zero() {
        let s = SolarModel::paper();
        let (lo, hi) = CLAMPED_U2;
        let step = |x: f64, d: i64| f64::from_bits((x.to_bits() as i64 + d) as u64);
        let mut fired = 0;
        for edge in [lo, hi] {
            for d in -1..=1 {
                let u2 = step(edge, d);
                for u1 in [1.0, 0.5, f64::EPSILON / 2.0] {
                    for t in [0.0, 37.0, 345.4, 1e4] {
                        let t = SimTime::from_units(t);
                        let full = s.sample(s.envelope(t), u1, u2);
                        if surely_clamped(u2) {
                            fired += 1;
                            assert_eq!(full.to_bits(), 0.0f64.to_bits(), "u1 {u1}, u2 {u2:e}");
                        }
                    }
                }
            }
            // The band is open: its edges take the full expression.
            assert!(!surely_clamped(edge));
        }
        assert!(surely_clamped(step(lo, 1)) && surely_clamped(step(hi, -1)));
        assert!(!surely_clamped(step(lo, -1)) && !surely_clamped(step(hi, 1)));
        assert_eq!(fired, 2 * 3 * 4);
        // u1 = 1: sqrt(-0.0) = -0.0, times a negative cosine is +0.0.
        assert_eq!(box_muller(1.0, 0.5).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    #[should_panic(expected = "amplitude")]
    fn rejects_zero_amplitude() {
        let _ = SolarModel::new(0.0, 1.0);
    }
}
