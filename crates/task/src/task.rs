//! Task definitions.

use harvest_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How a task releases jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub(crate) enum ReleasePattern {
    /// One job per `period`, starting at the task's phase.
    Periodic {
        /// Inter-arrival time.
        period: SimDuration,
    },
    /// A single job released at the task's phase (used by the paper's
    /// §2/§4.3 worked examples).
    Once,
}

/// A real-time task `τ_m = (a_m, d_m, w_m)` (paper §3.3): arrival
/// behaviour, relative deadline, and worst-case execution time at the
/// maximum frequency.
///
/// # Examples
///
/// ```
/// use harvest_task::task::Task;
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// // The paper's §2 task τ1 = (0, 16, 4).
/// let t1 = Task::once(SimTime::ZERO, SimDuration::from_whole_units(16), 4.0);
/// assert_eq!(t1.wcet(), 4.0);
///
/// // A periodic task with implicit deadline.
/// let p = Task::periodic_implicit(SimDuration::from_whole_units(20), 2.5);
/// assert_eq!(p.period(), Some(SimDuration::from_whole_units(20)));
/// assert_eq!(p.relative_deadline(), SimDuration::from_whole_units(20));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    phase: SimTime,
    pattern: ReleasePattern,
    relative_deadline: SimDuration,
    wcet: f64,
    /// True per-job work, `0 < actual ≤ wcet`. Defaults to the WCET;
    /// smaller values model early completion (slack) — see
    /// [`Task::with_actual_work`].
    actual_work: f64,
}

impl Task {
    /// Creates a periodic task.
    ///
    /// # Panics
    ///
    /// Panics if `period` or `relative_deadline` are not positive, or
    /// `wcet` is not finite and positive.
    pub fn periodic(
        phase: SimTime,
        period: SimDuration,
        relative_deadline: SimDuration,
        wcet: f64,
    ) -> Self {
        assert!(period.is_positive(), "period must be positive");
        Task::validated(
            phase,
            ReleasePattern::Periodic { period },
            relative_deadline,
            wcet,
        )
    }

    /// Periodic task with phase 0 and deadline equal to the period — the
    /// paper's workload shape (§5.1: "the relative deadline of the
    /// periodic task is set to its period").
    ///
    /// # Panics
    ///
    /// As [`Task::periodic`].
    pub fn periodic_implicit(period: SimDuration, wcet: f64) -> Self {
        Task::periodic(SimTime::ZERO, period, period, wcet)
    }

    /// Creates a one-shot task arriving at `arrival`.
    ///
    /// # Panics
    ///
    /// Panics if `relative_deadline` is not positive or `wcet` is not
    /// finite and positive.
    pub fn once(arrival: SimTime, relative_deadline: SimDuration, wcet: f64) -> Self {
        Task::validated(arrival, ReleasePattern::Once, relative_deadline, wcet)
    }

    fn validated(
        phase: SimTime,
        pattern: ReleasePattern,
        relative_deadline: SimDuration,
        wcet: f64,
    ) -> Self {
        assert!(
            relative_deadline.is_positive(),
            "relative deadline must be positive"
        );
        assert!(
            wcet.is_finite() && wcet > 0.0,
            "wcet must be finite and positive"
        );
        Task {
            phase,
            pattern,
            relative_deadline,
            wcet,
            actual_work: wcet,
        }
    }

    /// Sets the true per-job work below the budget (jobs of this task
    /// complete after `actual` full-speed units while schedulers still
    /// provision for the WCET).
    ///
    /// # Panics
    ///
    /// Panics if `actual` is not in `(0, wcet]`.
    pub fn with_actual_work(mut self, actual: f64) -> Self {
        assert!(
            actual > 0.0 && actual <= self.wcet + 1e-12,
            "actual work must lie in (0, wcet]"
        );
        self.actual_work = actual.min(self.wcet);
        self
    }

    /// The true per-job work (defaults to the WCET).
    pub fn actual_work(&self) -> f64 {
        self.actual_work
    }

    /// Release phase (arrival time of the first job).
    pub fn phase(&self) -> SimTime {
        self.phase
    }

    /// Period, if periodic.
    pub fn period(&self) -> Option<SimDuration> {
        match self.pattern {
            ReleasePattern::Periodic { period } => Some(period),
            ReleasePattern::Once => None,
        }
    }

    /// Relative deadline `d_m`.
    pub fn relative_deadline(&self) -> SimDuration {
        self.relative_deadline
    }

    /// Worst-case execution time `w_m` at the maximum frequency, in
    /// full-speed time units.
    pub fn wcet(&self) -> f64 {
        self.wcet
    }

    /// Returns a copy with the WCET scaled by `factor` (used to hit a
    /// target utilization, §5.1).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub(crate) fn scaled_wcet(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive"
        );
        Task {
            wcet: self.wcet * factor,
            actual_work: self.actual_work * factor,
            ..self.clone()
        }
    }

    /// Utilization `w_m / p_m` (eq. 14); `None` for one-shot tasks.
    pub(crate) fn utilization(&self) -> Option<f64> {
        self.period().map(|p| self.wcet / p.as_units())
    }

    /// Arrival instants of this task's jobs within `[from, until)`.
    pub fn arrivals_between(&self, from: SimTime, until: SimTime) -> Vec<SimTime> {
        match self.pattern {
            ReleasePattern::Once => {
                if self.phase >= from && self.phase < until {
                    vec![self.phase]
                } else {
                    vec![]
                }
            }
            ReleasePattern::Periodic { period } => {
                let mut out = Vec::new();
                let p = period.as_ticks();
                let first_k = if from <= self.phase {
                    0
                } else {
                    // smallest k with phase + k·p ≥ from
                    let diff = (from - self.phase).as_ticks();
                    (diff + p - 1) / p
                };
                let mut t = self.phase + SimDuration::from_ticks(first_k * p);
                while t < until {
                    out.push(t);
                    t += period;
                }
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn u(x: i64) -> SimTime {
        SimTime::from_whole_units(x)
    }

    fn d(x: i64) -> SimDuration {
        SimDuration::from_whole_units(x)
    }

    #[test]
    fn periodic_accessors() {
        let t = Task::periodic(u(2), d(10), d(8), 1.5);
        assert_eq!(t.phase(), u(2));
        assert_eq!(t.period(), Some(d(10)));
        assert_eq!(t.relative_deadline(), d(8));
        assert_eq!(t.wcet(), 1.5);
        assert_eq!(t.utilization(), Some(0.15));
    }

    #[test]
    fn once_has_no_period() {
        let t = Task::once(u(5), d(16), 1.5);
        assert_eq!(t.period(), None);
        assert_eq!(t.utilization(), None);
    }

    #[test]
    fn scaled_wcet_preserves_everything_else() {
        let t = Task::periodic_implicit(d(10), 2.0);
        let s = t.scaled_wcet(0.5);
        assert_eq!(s.wcet(), 1.0);
        assert_eq!(s.period(), t.period());
    }

    #[test]
    fn arrivals_periodic_window() {
        let t = Task::periodic(u(3), d(10), d(10), 1.0);
        assert_eq!(t.arrivals_between(u(0), u(30)), vec![u(3), u(13), u(23)]);
        assert_eq!(t.arrivals_between(u(13), u(24)), vec![u(13), u(23)]);
        assert_eq!(t.arrivals_between(u(14), u(23)), vec![]);
    }

    #[test]
    fn arrivals_once_window() {
        let t = Task::once(u(5), d(16), 1.5);
        assert_eq!(t.arrivals_between(u(0), u(10)), vec![u(5)]);
        assert_eq!(t.arrivals_between(u(6), u(10)), vec![]);
        assert_eq!(t.arrivals_between(u(5), u(6)), vec![u(5)]);
    }

    #[test]
    #[should_panic(expected = "wcet")]
    fn zero_wcet_rejected() {
        let _ = Task::periodic_implicit(d(10), 0.0);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_rejected() {
        let _ = Task::periodic(u(0), SimDuration::ZERO, d(1), 1.0);
    }

    /// A job's deadline follows its arrival only because this holds.
    #[test]
    #[should_panic(expected = "relative deadline must be positive")]
    fn zero_relative_deadline_rejected() {
        let _ = Task::once(u(5), SimDuration::ZERO, 1.0);
    }
}
