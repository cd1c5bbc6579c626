//! The paper's random workload generator (§5.1).
//!
//! Periods are drawn uniformly from `{10, 20, …, 100}`; each task's
//! worst-case *energy* is drawn uniformly from `[0, P̄s·p]` (so that task
//! demand is commensurate with the source's mean power `P̄s`), converted
//! to a WCET via `w = e / P_max`, and finally all WCETs are scaled by a
//! common ratio to hit the requested utilization.

use harvest_sim::time::SimDuration;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::task::Task;
use crate::taskset::TaskSet;

/// Parameters of the §5.1 workload generator.
///
/// # Examples
///
/// ```
/// use harvest_task::generator::WorkloadSpec;
///
/// let spec = WorkloadSpec::paper(5, 0.4, 2.0, 3.2);
/// let set = spec.generate(42);
/// assert_eq!(set.len(), 5);
/// assert!((set.utilization() - 0.4).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of periodic tasks in the set.
    pub(crate) num_tasks: usize,
    /// Target total utilization `U ∈ (0, 1]`.
    pub(crate) utilization: f64,
    /// Mean harvested power `P̄s` used to size task energies.
    pub(crate) mean_harvest_power: f64,
    /// Maximum processor power `P_max` used to convert energy to WCET.
    pub(crate) max_cpu_power: f64,
    /// Candidate periods, in whole time units.
    pub(crate) period_choices: Vec<i64>,
    /// Lower bound of the actual-to-worst-case execution-time ratio.
    /// `1.0` (the paper's implicit assumption) makes every job consume
    /// its full WCET; smaller values draw each task's true work from
    /// `U[bcet_ratio, 1] · wcet`, modelling early completions.
    pub(crate) bcet_ratio: f64,
}

impl WorkloadSpec {
    /// The paper's configuration: periods drawn from `{10, 20, …, 100}`,
    /// implicit deadlines.
    ///
    /// # Panics
    ///
    /// Panics if `num_tasks` is zero, `utilization` is outside `(0, 1]`,
    /// or the powers are not positive.
    pub fn paper(
        num_tasks: usize,
        utilization: f64,
        mean_harvest_power: f64,
        max_cpu_power: f64,
    ) -> Self {
        let spec = WorkloadSpec {
            num_tasks,
            utilization,
            mean_harvest_power,
            max_cpu_power,
            period_choices: (1..=10).map(|k| 10 * k).collect(),
            bcet_ratio: 1.0,
        };
        spec.validate();
        spec
    }

    /// Sets the actual-to-WCET ratio lower bound (see
    /// `WorkloadSpec::bcet_ratio`).
    ///
    /// # Panics
    ///
    /// Panics if `ratio` is outside `(0, 1]`.
    pub fn with_bcet_ratio(mut self, ratio: f64) -> Self {
        assert!(ratio > 0.0 && ratio <= 1.0, "bcet ratio must lie in (0, 1]");
        self.bcet_ratio = ratio;
        self
    }

    fn validate(&self) {
        assert!(self.num_tasks > 0, "need at least one task");
        assert!(
            self.utilization > 0.0 && self.utilization <= 1.0,
            "utilization must lie in (0, 1]"
        );
        assert!(
            self.mean_harvest_power.is_finite() && self.mean_harvest_power > 0.0,
            "mean harvest power must be positive"
        );
        assert!(
            self.max_cpu_power.is_finite() && self.max_cpu_power > 0.0,
            "max CPU power must be positive"
        );
        assert!(!self.period_choices.is_empty(), "need candidate periods");
        assert!(
            self.period_choices.iter().all(|&p| p > 0),
            "periods must be positive"
        );
        assert!(
            self.bcet_ratio > 0.0 && self.bcet_ratio <= 1.0,
            "bcet ratio must lie in (0, 1]"
        );
    }

    /// Generates one task set deterministically from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid (see [`WorkloadSpec::paper`]).
    pub fn generate(&self, seed: u64) -> TaskSet {
        self.validate();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut tasks = Vec::with_capacity(self.num_tasks);
        for _ in 0..self.num_tasks {
            let period_units = self.period_choices[rng.gen_range(0..self.period_choices.len())];
            let period = SimDuration::from_whole_units(period_units);
            // Worst-case energy e ~ U[0, P̄s·p]; floor at a sliver of the
            // range so no task degenerates to zero work.
            let e_max = self.mean_harvest_power * period_units as f64;
            let e = (rng.gen::<f64>() * e_max).max(1e-3 * e_max);
            let wcet = e / self.max_cpu_power;
            let mut task = Task::periodic_implicit(period, wcet);
            if self.bcet_ratio < 1.0 {
                let fraction = self.bcet_ratio + rng.gen::<f64>() * (1.0 - self.bcet_ratio);
                task = task.with_actual_work(wcet * fraction);
            }
            tasks.push(task);
        }
        TaskSet::new(tasks).scaled_to_utilization(self.utilization)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::paper(5, 0.4, 2.0, 3.2)
    }

    #[test]
    fn generates_requested_count_and_utilization() {
        let set = spec().generate(7);
        assert_eq!(set.len(), 5);
        assert!((set.utilization() - 0.4).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(spec().generate(3), spec().generate(3));
        assert_ne!(spec().generate(3), spec().generate(4));
    }

    #[test]
    fn periods_come_from_choice_set() {
        let set = spec().generate(11);
        for t in &set {
            let p = t.period().unwrap().as_units();
            assert!((10..=100).contains(&(p as i64)));
            assert_eq!(p % 10.0, 0.0);
            // Implicit deadlines.
            assert_eq!(t.relative_deadline(), t.period().unwrap());
        }
    }

    #[test]
    fn per_task_utilization_bounded_by_total() {
        for seed in 0..50 {
            let set = spec().generate(seed);
            for t in &set {
                assert!(t.utilization().unwrap() <= 0.4 + 1e-9);
                assert!(t.wcet() > 0.0);
            }
        }
    }

    #[test]
    fn high_utilization_sets_remain_feasible() {
        let s = WorkloadSpec::paper(8, 1.0, 2.0, 3.2);
        let set = s.generate(1);
        assert!((set.utilization() - 1.0).abs() < 1e-9);
        for t in &set {
            // wcet ≤ period ⇔ per-task utilization ≤ 1.
            assert!(t.wcet() <= t.period().unwrap().as_units() + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn rejects_overload() {
        let _ = WorkloadSpec::paper(5, 1.2, 2.0, 3.2);
    }

    #[test]
    #[should_panic(expected = "at least one task")]
    fn rejects_empty() {
        let _ = WorkloadSpec::paper(0, 0.4, 2.0, 3.2);
    }
}
