//! Job instances released by tasks.

use harvest_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Unique identifier of a released job, ordered by release sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub u64);

/// One released instance of a task (paper §3.3: once released, arrival,
/// deadline and WCET are all known).
///
/// Work is measured in full-speed time units; executing at normalized
/// speed `S` for `Δt` wall-clock units retires `S·Δt` work. A job
/// carries two work figures:
///
/// * the **budget** `wcet` — what the scheduler must provision for
///   (paper's `w_m`), and
/// * the **actual** work — what the job really needs, `actual ≤ wcet`
///   (defaults to the budget; set a smaller value to model early
///   completions and study slack reclamation).
///
/// Schedulers see the conservative [`Job::remaining_work`]; the engine
/// uses `Job::remaining_actual_work` / [`Job::time_to_finish`] for
/// true completion.
///
/// # Examples
///
/// ```
/// use harvest_task::job::{Job, JobId};
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// let mut job = Job::new(JobId(0), SimTime::from_whole_units(16), 4.0);
/// job.execute(0.5, SimDuration::from_whole_units(8)); // half speed, 8 units
/// assert!(job.is_finished());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Job {
    id: JobId,
    absolute_deadline: SimTime,
    wcet: f64,
    actual: f64,
    executed: f64,
}

impl Job {
    /// Creates a job whose actual work equals its budget. Its deadline
    /// follows its arrival because a [`Task`](crate::task::Task)'s
    /// relative deadline is positive.
    ///
    /// # Panics
    ///
    /// Panics if `wcet` is not finite and positive.
    pub fn new(id: JobId, absolute_deadline: SimTime, wcet: f64) -> Self {
        assert!(
            wcet.is_finite() && wcet > 0.0,
            "wcet must be finite and positive"
        );
        Job {
            id,
            absolute_deadline,
            wcet,
            actual: wcet,
            executed: 0.0,
        }
    }

    /// Sets the actual work to a value below the budget (early
    /// completion).
    ///
    /// # Panics
    ///
    /// Panics if `actual` is not in `(0, wcet]`.
    pub fn with_actual_work(mut self, actual: f64) -> Self {
        assert!(
            actual > 0.0 && actual <= self.wcet + 1e-12,
            "actual work must lie in (0, wcet]"
        );
        self.actual = actual.min(self.wcet);
        self
    }

    /// The job's identifier.
    pub fn id(&self) -> JobId {
        self.id
    }

    /// Absolute deadline `a_m + d_m`.
    pub fn absolute_deadline(&self) -> SimTime {
        self.absolute_deadline
    }

    /// Remaining *budgeted* full-speed work, `wcet − executed` — the
    /// conservative figure a scheduler provisions for.
    pub fn remaining_work(&self) -> f64 {
        (self.wcet - self.executed).max(0.0)
    }

    /// Remaining *actual* full-speed work, `actual − executed`.
    pub(crate) fn remaining_actual_work(&self) -> f64 {
        (self.actual - self.executed).max(0.0)
    }

    /// `true` once the actual work is retired.
    pub fn is_finished(&self) -> bool {
        self.remaining_actual_work() <= 0.0
    }

    /// Retires work by running at normalized `speed` for `dt`, returning
    /// the work actually retired (clamped at the remaining actual
    /// amount).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is outside `(0, 1]` or `dt` is negative.
    pub fn execute(&mut self, speed: f64, dt: SimDuration) -> f64 {
        assert!(speed > 0.0 && speed <= 1.0, "speed must lie in (0, 1]");
        assert!(dt >= SimDuration::ZERO, "duration must be non-negative");
        let retired = (speed * dt.as_units()).min(self.remaining_actual_work());
        self.executed += retired;
        if self.remaining_actual_work() < 1e-12 {
            self.executed = self.actual;
        }
        retired
    }

    /// Wall-clock time to finish the remaining *actual* work at
    /// normalized `speed` (engine-facing; rounds up to a whole tick).
    ///
    /// # Panics
    ///
    /// Panics if `speed` is outside `(0, 1]`.
    pub fn time_to_finish(&self, speed: f64) -> SimDuration {
        assert!(speed > 0.0 && speed <= 1.0, "speed must lie in (0, 1]");
        SimDuration::from_units_ceil(self.remaining_actual_work() / speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        Job::new(JobId(1), SimTime::from_whole_units(16), 4.0)
    }

    #[test]
    fn fresh_job_state() {
        let j = job();
        assert_eq!(j.remaining_work(), 4.0);
        assert_eq!(j.remaining_actual_work(), 4.0);
        assert_eq!(j.executed, 0.0);
        assert!(!j.is_finished());
    }

    #[test]
    fn execution_retires_work_at_speed() {
        let mut j = job();
        let retired = j.execute(0.5, SimDuration::from_whole_units(4));
        assert_eq!(retired, 2.0);
        assert_eq!(j.remaining_work(), 2.0);
    }

    #[test]
    fn execution_clamps_at_completion() {
        let mut j = job();
        let retired = j.execute(1.0, SimDuration::from_whole_units(100));
        assert_eq!(retired, 4.0);
        assert!(j.is_finished());
        // Further execution retires nothing.
        assert_eq!(j.execute(1.0, SimDuration::from_whole_units(1)), 0.0);
    }

    #[test]
    fn tiny_residue_snaps_to_zero() {
        let mut j = job();
        j.execute(1.0, SimDuration::from_units(4.0 - 1e-13));
        assert!(
            j.is_finished(),
            "residue {:e} should snap",
            j.remaining_actual_work()
        );
    }

    #[test]
    fn time_to_finish_rounds_up() {
        let j = job();
        assert_eq!(j.time_to_finish(0.5), SimDuration::from_whole_units(8));
        let mut j2 = job();
        j2.execute(1.0, SimDuration::from_units(0.5));
        assert_eq!(j2.time_to_finish(1.0), SimDuration::from_units(3.5));
    }

    #[test]
    fn early_completion_finishes_at_actual() {
        let mut j = job().with_actual_work(1.5);
        assert_eq!(j.actual, 1.5);
        assert_eq!(j.remaining_work(), 4.0, "budget stays conservative");
        assert_eq!(j.remaining_actual_work(), 1.5);
        j.execute(1.0, SimDuration::from_units(1.5));
        assert!(j.is_finished());
        // The conservative view still reports budget headroom — that is
        // the slack the early completion frees.
        assert!((j.remaining_work() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn early_completion_time_to_finish_uses_actual() {
        let j = job().with_actual_work(2.0);
        assert_eq!(j.time_to_finish(0.5), SimDuration::from_whole_units(4));
    }

    #[test]
    #[should_panic(expected = "actual work")]
    fn actual_above_budget_rejected() {
        let _ = job().with_actual_work(5.0);
    }
}
