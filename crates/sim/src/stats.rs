//! Small statistics toolkit used by the experiment harness.

use serde::{Deserialize, Serialize};

use crate::time::{SimDuration, SimTime};

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use harvest_sim::stats::RunningStats;
///
/// let s: RunningStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningStats {
    /// Adds one observation.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not finite.
    pub(crate) fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "observation must be finite, got {x}");
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`).
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Sample variance (divides by `n − 1`; 0 when `n < 2`).
    pub(crate) fn sample_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub(crate) fn sample_std_dev(&self) -> f64 {
        self.sample_variance().sqrt()
    }

    /// Standard error of the mean.
    pub(crate) fn std_error(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }

    /// Half-width of an approximate 95% confidence interval on the mean
    /// (normal approximation, `1.96 · SE`).
    pub fn ci95_half_width(&self) -> f64 {
        1.96 * self.std_error()
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::default();
        s.extend(iter);
        s
    }
}

/// A value sampled on a fixed uniform time grid, supporting point-wise
/// averaging across many runs.
///
/// Used for the paper's remaining-energy curves (Figs. 6–7): each trial
/// produces one grid of samples; grids are averaged point-wise.
///
/// # Examples
///
/// ```
/// use harvest_sim::stats::SampledSeries;
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// let mut acc = SampledSeries::new(SimTime::ZERO, SimDuration::from_whole_units(10), 3);
/// acc.accumulate(&[1.0, 2.0, 3.0]);
/// acc.accumulate(&[3.0, 4.0, 5.0]);
/// assert_eq!(acc.mean_values(), vec![2.0, 3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SampledSeries {
    start: SimTime,
    step: SimDuration,
    points: Vec<RunningStats>,
}

impl SampledSeries {
    /// Creates an accumulator for `len` samples starting at `start`,
    /// spaced `step` apart.
    ///
    /// # Panics
    ///
    /// Panics if `step` is not positive or `len` is zero.
    pub fn new(start: SimTime, step: SimDuration, len: usize) -> Self {
        assert!(step.is_positive(), "sample step must be positive");
        assert!(len > 0, "series must have at least one point");
        SampledSeries {
            start,
            step,
            points: vec![RunningStats::default(); len],
        }
    }

    /// Adds one run's samples (must match the grid length).
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the grid length.
    pub fn accumulate(&mut self, samples: &[f64]) {
        assert_eq!(
            samples.len(),
            self.points.len(),
            "sample grid length mismatch"
        );
        for (p, &x) in self.points.iter_mut().zip(samples) {
            p.push(x);
        }
    }

    /// Point-wise means.
    pub fn mean_values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.mean()).collect()
    }

    /// Point-wise 95% CI half-widths.
    pub fn ci95_values(&self) -> Vec<f64> {
        self.points.iter().map(|p| p.ci95_half_width()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_neutral() {
        let s = RunningStats::default();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_variance(), 0.0);
        assert_eq!(s.std_error(), 0.0);
    }

    #[test]
    fn single_observation() {
        let mut s = RunningStats::default();
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.sample_variance(), 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data = [1.0, 2.5, -3.0, 7.5, 0.0, 12.25, 4.0];
        let (a, b) = data.split_at(3);
        let mut s1: RunningStats = a.iter().copied().collect();
        let s2: RunningStats = b.iter().copied().collect();
        s1.merge(&s2);
        let all: RunningStats = data.iter().copied().collect();
        assert_eq!(s1.count(), all.count());
        assert!((s1.mean() - all.mean()).abs() < 1e-12);
        assert!((s1.sample_variance() - all.sample_variance()).abs() < 1e-12);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: RunningStats = [1.0, 2.0].iter().copied().collect();
        let before = s;
        s.merge(&RunningStats::default());
        assert_eq!(s, before);
        let mut e = RunningStats::default();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_observation_panics() {
        RunningStats::default().push(f64::INFINITY);
    }

    #[test]
    fn series_accumulates_pointwise() {
        let mut s = SampledSeries::new(SimTime::ZERO, SimDuration::from_whole_units(5), 2);
        s.accumulate(&[0.0, 10.0]);
        s.accumulate(&[2.0, 30.0]);
        assert_eq!(s.mean_values(), vec![1.0, 20.0]);
        assert!(s.points.iter().all(|p| p.count() == 2));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn series_rejects_wrong_length() {
        let mut s = SampledSeries::new(SimTime::ZERO, SimDuration::from_whole_units(1), 3);
        s.accumulate(&[1.0]);
    }
}
