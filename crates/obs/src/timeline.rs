//! Run timelines: piecewise-constant step series of storage level and active
//! DVFS level versus time, with uniform-grid resampling for ASCII plots.
//!
//! A timeline is derived *after* a run from artifacts the simulator already
//! produces (periodic storage samples, trace events); building it never
//! touches simulation state, so it cannot perturb bit-identity.

use serde::{Deserialize, Serialize};

/// A `(time, value)` sample of a real-valued step series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    pub t: f64,
    pub value: f64,
}

/// A `(time, level)` sample of the active DVFS level. Negative levels encode
/// non-running states: [`LevelPoint::IDLE`] and [`LevelPoint::STALLED`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelPoint {
    pub t_ticks: i64,
    pub level: i64,
}

impl LevelPoint {
    /// The CPU is idle (no job admitted).
    pub const IDLE: i64 = -1;
    /// The CPU is stalled waiting for harvested energy.
    pub const STALLED: i64 = -2;
}

/// Energy/frequency timeline of one run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Timeline {
    /// Stored-energy level over time (step series, left-continuous).
    pub energy: Vec<TimePoint>,
    /// Active DVFS level over time; see [`LevelPoint`] for the encoding.
    pub level: Vec<LevelPoint>,
}

/// Sample a step series onto `width` uniform points across `[t0, t1]`.
/// Each output point holds the value of the last input sample at or before
/// that time (the first sample's value before any sample is seen).
fn resample_step(points: &[(f64, f64)], t0: f64, t1: f64, width: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(width);
    if width == 0 {
        return out;
    }
    if points.is_empty() {
        out.resize(width, 0.0);
        return out;
    }
    let span = (t1 - t0).max(f64::MIN_POSITIVE);
    let mut idx = 0usize;
    let mut current = points[0].1;
    for i in 0..width {
        let t = t0 + span * i as f64 / (width.max(2) - 1) as f64;
        while idx < points.len() && points[idx].0 <= t {
            current = points[idx].1;
            idx += 1;
        }
        out.push(current);
    }
    out
}

impl Timeline {
    /// Time span `[t0, t1]` covered by either series, if any samples exist.
    pub(crate) fn span(&self) -> Option<(f64, f64)> {
        let mut t0 = f64::INFINITY;
        let mut t1 = f64::NEG_INFINITY;
        for p in &self.energy {
            t0 = t0.min(p.t);
            t1 = t1.max(p.t);
        }
        for p in &self.level {
            t0 = t0.min(p.t_ticks as f64);
            t1 = t1.max(p.t_ticks as f64);
        }
        if t0.is_finite() && t1.is_finite() {
            Some((t0, t1))
        } else {
            None
        }
    }

    /// Storage level resampled onto `width` uniform points over `span`.
    pub fn energy_series(&self, width: usize) -> Vec<f64> {
        let (t0, t1) = match self.span() {
            Some(s) => s,
            None => return vec![0.0; width],
        };
        let pts: Vec<(f64, f64)> = self.energy.iter().map(|p| (p.t, p.value)).collect();
        resample_step(&pts, t0, t1, width)
    }

    /// Active DVFS level resampled onto `width` uniform points over `span`
    /// (idle/stalled states surface as their negative encodings).
    pub fn level_series(&self, width: usize) -> Vec<f64> {
        let (t0, t1) = match self.span() {
            Some(s) => s,
            None => return vec![0.0; width],
        };
        let pts: Vec<(f64, f64)> = self
            .level
            .iter()
            .map(|p| (p.t_ticks as f64, p.level as f64))
            .collect();
        resample_step(&pts, t0, t1, width)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resample_holds_last_value() {
        let pts = [(0.0, 1.0), (5.0, 3.0), (8.0, 2.0)];
        let s = resample_step(&pts, 0.0, 10.0, 11);
        assert_eq!(s[0], 1.0);
        assert_eq!(s[4], 1.0);
        assert_eq!(s[5], 3.0);
        assert_eq!(s[7], 3.0);
        assert_eq!(s[8], 2.0);
        assert_eq!(s[10], 2.0);
    }

    #[test]
    fn empty_timeline_yields_flat_zero() {
        let t = Timeline::default();
        assert_eq!(t.span(), None);
        assert_eq!(t.energy_series(4), vec![0.0; 4]);
    }

    #[test]
    fn span_covers_both_series() {
        let t = Timeline {
            energy: vec![TimePoint { t: 2.0, value: 1.0 }],
            level: vec![LevelPoint {
                t_ticks: 9,
                level: LevelPoint::IDLE,
            }],
        };
        assert_eq!(t.span(), Some((2.0, 9.0)));
        let lv = t.level_series(3);
        assert_eq!(lv.len(), 3);
        assert_eq!(*lv.last().unwrap(), -1.0);
    }
}
