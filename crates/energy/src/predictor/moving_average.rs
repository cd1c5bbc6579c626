//! Sliding-window moving-average predictor.

use std::collections::VecDeque;

use harvest_sim::piecewise::Segment;
use harvest_sim::time::{SimDuration, SimTime};

use super::EnergyPredictor;

/// Predicts the time-weighted mean power over a trailing window.
///
/// Observed segments are retained until their total span exceeds the
/// window; prediction assumes the windowed mean persists.
///
/// # Examples
///
/// ```
/// use harvest_energy::predictor::{EnergyPredictor, MovingAveragePredictor};
/// use harvest_sim::piecewise::Segment;
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// let mut p = MovingAveragePredictor::new(SimDuration::from_whole_units(10));
/// p.observe(Segment {
///     start: SimTime::ZERO,
///     end: SimTime::from_whole_units(4),
///     value: 1.0,
/// });
/// p.observe(Segment {
///     start: SimTime::from_whole_units(4),
///     end: SimTime::from_whole_units(8),
///     value: 3.0,
/// });
/// // Windowed mean = 2.0.
/// let e = p.predict_energy(SimTime::from_whole_units(8), SimTime::from_whole_units(13));
/// assert_eq!(e, 10.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MovingAveragePredictor {
    window: SimDuration,
    segments: VecDeque<Segment>,
    span: SimDuration,
}

impl MovingAveragePredictor {
    /// Creates a predictor averaging over the trailing `window`.
    ///
    /// # Panics
    ///
    /// Panics if `window` is not positive.
    pub fn new(window: SimDuration) -> Self {
        assert!(window.is_positive(), "window must be positive");
        MovingAveragePredictor {
            window,
            segments: VecDeque::new(),
            span: SimDuration::ZERO,
        }
    }

    /// Current time-weighted mean power over the retained history
    /// (zero before any observation).
    pub(crate) fn mean_power(&self) -> f64 {
        if self.span.is_zero() {
            return 0.0;
        }
        let energy: f64 = self.segments.iter().map(Segment::integral).sum();
        energy / self.span.as_units()
    }
}

impl EnergyPredictor for MovingAveragePredictor {
    fn observe(&mut self, segment: Segment) {
        if segment.end <= segment.start {
            return;
        }
        self.span += segment.duration();
        self.segments.push_back(segment);
        // Evict whole segments once the retained span exceeds the window;
        // keeping a partial overshoot (≤ one segment) is fine and avoids
        // splitting records.
        while self.span > self.window {
            let front = self
                .segments
                .front()
                .copied()
                .expect("span > 0 implies segments");
            if self.span - front.duration() < self.window {
                break;
            }
            self.span -= front.duration();
            self.segments.pop_front();
        }
    }

    fn predict_energy(&self, from: SimTime, until: SimTime) -> f64 {
        if until <= from {
            return 0.0;
        }
        self.mean_power() * (until - from).as_units()
    }

    fn name(&self) -> &str {
        "moving-average"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::test_util::seg;

    #[test]
    fn empty_history_predicts_zero() {
        let p = MovingAveragePredictor::new(SimDuration::from_whole_units(10));
        assert_eq!(
            p.predict_energy(SimTime::ZERO, SimTime::from_whole_units(5)),
            0.0
        );
    }

    #[test]
    fn time_weighted_mean() {
        let mut p = MovingAveragePredictor::new(SimDuration::from_whole_units(100));
        p.observe(seg(0, 1, 10.0)); // 10 energy
        p.observe(seg(1, 10, 0.0)); // 0 energy over 9 units
        assert!((p.mean_power() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn old_segments_are_evicted() {
        let mut p = MovingAveragePredictor::new(SimDuration::from_whole_units(5));
        p.observe(seg(0, 5, 100.0));
        p.observe(seg(5, 10, 2.0));
        // The first segment falls fully outside the 5-unit window.
        assert!((p.mean_power() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_length_segments_are_ignored() {
        let mut p = MovingAveragePredictor::new(SimDuration::from_whole_units(5));
        p.observe(seg(3, 3, 42.0));
        assert_eq!(p.mean_power(), 0.0);
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = MovingAveragePredictor::new(SimDuration::ZERO);
    }
}
