//! Collections of tasks.

use harvest_sim::event::ReleaseTape;
use harvest_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::task::Task;

/// An ordered collection of tasks sharing a processor.
///
/// # Examples
///
/// ```
/// use harvest_task::task::Task;
/// use harvest_task::taskset::TaskSet;
/// use harvest_sim::time::SimDuration;
///
/// let set = TaskSet::new(vec![
///     Task::periodic_implicit(SimDuration::from_whole_units(10), 2.0),
///     Task::periodic_implicit(SimDuration::from_whole_units(20), 4.0),
/// ]);
/// assert_eq!(set.utilization(), 0.4);
/// let scaled = set.scaled_to_utilization(0.8);
/// assert!((scaled.utilization() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates a task set.
    pub fn new(tasks: Vec<Task>) -> Self {
        TaskSet { tasks }
    }

    /// The tasks, in index order (job `task_index` refers into this).
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// Total utilization `U = Σ w_m / p_m` (paper eq. 14). One-shot
    /// tasks contribute zero.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().filter_map(Task::utilization).sum()
    }

    /// Returns a copy whose periodic WCETs are scaled by a common factor
    /// so the total utilization equals `target` (the paper's §5.1
    /// procedure: "we scale the worst case execution time of each task
    /// in a task set in the same ratio").
    ///
    /// # Panics
    ///
    /// Panics if `target` is not in `(0, 1]` or the set has zero
    /// utilization.
    pub fn scaled_to_utilization(&self, target: f64) -> TaskSet {
        assert!(
            target > 0.0 && target <= 1.0,
            "target utilization must lie in (0, 1]"
        );
        let current = self.utilization();
        assert!(current > 0.0, "cannot scale a set with zero utilization");
        let factor = target / current;
        TaskSet {
            tasks: self.tasks.iter().map(|t| t.scaled_wcet(factor)).collect(),
        }
    }

    /// Hyperperiod (LCM of the periodic tasks' periods). `None` if the
    /// set has no periodic task or the LCM overflows the tick range.
    pub(crate) fn hyperperiod(&self) -> Option<SimDuration> {
        let mut acc: Option<i64> = None;
        for t in &self.tasks {
            if let Some(p) = t.period() {
                let ticks = p.as_ticks();
                acc = Some(match acc {
                    None => ticks,
                    Some(a) => lcm(a, ticks)?,
                });
            }
        }
        acc.map(SimDuration::from_ticks)
    }

    /// The [`ReleaseTape`] of `[0, horizon)`: lets a simulation serve
    /// this set's releases without its event queue. Constant time.
    ///
    /// The simulation computes each task's next release from its phase
    /// and period and serves the earliest by `(time, seq)`, where `seq`
    /// is the sequence number the heap-driven run would have given that
    /// arrival. That order is **not** `(time, task_index)`: each handled
    /// arrival schedules the task's next one. (Example: with task 0 =
    /// period 5 and task 1 = period 10 phase 5, task 0's t = 5 arrival
    /// is scheduled while handling its t = 0 arrival, *after* task 1's
    /// seeded t = 5 arrival — so task 1 releases first at t = 5 despite
    /// its higher index.)
    pub fn release_tape(&self, horizon: SimDuration) -> ReleaseTape {
        ReleaseTape::new((SimTime::ZERO + horizon).as_ticks(), self.len())
    }
}

impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

impl Extend<Task> for TaskSet {
    fn extend<I: IntoIterator<Item = Task>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

fn gcd(a: i64, b: i64) -> i64 {
    let (mut a, mut b) = (a.abs(), b.abs());
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

fn lcm(a: i64, b: i64) -> Option<i64> {
    let g = gcd(a, b);
    if g == 0 {
        return Some(0);
    }
    (a / g).checked_mul(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(x: i64) -> SimDuration {
        SimDuration::from_whole_units(x)
    }

    fn set() -> TaskSet {
        TaskSet::new(vec![
            Task::periodic_implicit(d(10), 1.0),
            Task::periodic_implicit(d(20), 3.0),
            Task::periodic_implicit(d(30), 3.0),
        ])
    }

    #[test]
    fn utilization_sums_ratios() {
        // 0.1 + 0.15 + 0.1 = 0.35
        assert!((set().utilization() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn one_shot_tasks_do_not_contribute() {
        let mut tasks: Vec<Task> = set().iter().cloned().collect();
        tasks.push(Task::once(SimTime::ZERO, d(5), 100.0));
        assert!((TaskSet::new(tasks).utilization() - 0.35).abs() < 1e-12);
    }

    #[test]
    fn scaling_hits_target_exactly() {
        let s = set().scaled_to_utilization(0.7);
        assert!((s.utilization() - 0.7).abs() < 1e-12);
        // Per-task utilization never exceeds the total.
        for t in &s {
            assert!(t.utilization().unwrap() <= 0.7 + 1e-12);
        }
    }

    #[test]
    fn hyperperiod_is_lcm() {
        assert_eq!(set().hyperperiod(), Some(d(60)));
    }

    #[test]
    fn hyperperiod_none_without_periodic_tasks() {
        let s = TaskSet::new(vec![Task::once(SimTime::ZERO, d(5), 1.0)]);
        assert_eq!(s.hyperperiod(), None);
    }

    #[test]
    fn collect_and_extend() {
        let s: TaskSet = (1..=3)
            .map(|i| Task::periodic_implicit(d(10 * i), 1.0))
            .collect();
        assert_eq!(s.len(), 3);
        let mut s2 = TaskSet::default();
        s2.extend(s.clone());
        assert_eq!(s2, s);
    }

    #[test]
    #[should_panic(expected = "target utilization")]
    fn scaling_rejects_overload() {
        let _ = set().scaled_to_utilization(1.5);
    }
}
