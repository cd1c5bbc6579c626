//! Collections of tasks.

use harvest_sim::event::{EventQueue, ReleaseEntry, ReleaseTape};
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

    /// Precomputes the release timeline of `[0, horizon)` as a
    /// [`ReleaseTape`]: every arrival, in the exact order a heap-driven
    /// simulation pops them.
    ///
    /// That order is **not** `(time, task_index)` — it is `(time, seq)`
    /// under the simulator's scheduling discipline, where each handled
    /// arrival immediately schedules the task's next one. (Example: with
    /// task 0 = period 5 and task 1 = period 10 phase 5, task 0's t = 5
    /// arrival is scheduled while handling its t = 0 arrival, *after*
    /// task 1's seeded t = 5 arrival — so task 1 pops first at t = 5
    /// despite its higher index.) The builder therefore replays that
    /// discipline as a mini-simulation of release events only, on the
    /// simulator's own [`EventQueue`]: schedule the in-horizon phase
    /// arrivals in task-index order, then pop, each pop scheduling its
    /// successor.
    pub fn release_tape(&self, horizon: SimDuration) -> ReleaseTape {
        let horizon_ticks = (SimTime::ZERO + horizon).as_ticks();
        let mut queue = EventQueue::new();
        for (i, task) in self.tasks.iter().enumerate() {
            let phase = task.phase();
            if phase >= SimTime::ZERO && phase.as_ticks() < horizon_ticks {
                queue.schedule(phase, i as u32);
            }
        }
        let mut entries = Vec::new();
        let mut job_seq = vec![0u32; self.len()];
        while let Some((time, task)) = queue.pop() {
            let ticks = time.as_ticks();
            entries.push(ReleaseEntry {
                ticks,
                task,
                job_seq: job_seq[task as usize],
            });
            job_seq[task as usize] += 1;
            if let Some(period) = self.tasks[task as usize].period() {
                let next = ticks + period.as_ticks();
                // A beyond-horizon successor is scheduled by the real
                // run but never popped; eliding it from the replay
                // renumbers later seqs uniformly without reordering.
                if next < horizon_ticks {
                    queue.schedule(SimTime::from_ticks(next), task);
                }
            }
        }
        ReleaseTape::from_entries(entries, horizon_ticks, self.len() as u32)
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
    fn release_tape_matches_arrival_multiset_and_counts_jobs() {
        let s = set();
        let horizon = d(60);
        let tape = s.release_tape(horizon);
        // Same multiset of (task, time) as the tasks' own arrivals,
        // whatever the order.
        let mut tape_pairs: Vec<(usize, i64)> = tape
            .entries()
            .iter()
            .map(|e| (e.task as usize, e.ticks))
            .collect();
        let mut ref_pairs: Vec<(usize, i64)> = s
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.arrivals_between(SimTime::ZERO, SimTime::ZERO + horizon)
                    .into_iter()
                    .map(move |a| (i, a.as_ticks()))
            })
            .collect();
        tape_pairs.sort_unstable();
        ref_pairs.sort_unstable();
        assert_eq!(tape_pairs, ref_pairs);
        // job_seq counts each task's arrivals from zero, in time order.
        for (i, _) in s.iter().enumerate() {
            let seqs: Vec<u32> = tape
                .entries()
                .iter()
                .filter(|e| e.task as usize == i)
                .map(|e| e.job_seq)
                .collect();
            assert_eq!(seqs, (0..seqs.len() as u32).collect::<Vec<_>>());
        }
        assert_eq!(tape.task_count(), 3);
        assert_eq!(tape.horizon_ticks(), (SimTime::ZERO + horizon).as_ticks());
    }

    #[test]
    fn release_tape_orders_ties_by_scheduling_discipline_not_index() {
        // Task 0: period 5, phase 0. Task 1: period 10, phase 5. At
        // t = 5 both release — but task 1's arrival was seeded before
        // task 0's t = 5 arrival was scheduled (while handling t = 0),
        // so the heap-driven run pops task 1 first. A (time, index) sort
        // would wrongly put task 0 first.
        let s = TaskSet::new(vec![
            Task::periodic(SimTime::ZERO, d(5), d(5), 1.0),
            Task::periodic(SimTime::ZERO + d(5), d(10), d(10), 1.0),
        ]);
        let tape = s.release_tape(d(20));
        let order: Vec<(i64, u32)> = tape
            .entries()
            .iter()
            .map(|e| (e.ticks / 1_000_000, e.task))
            .collect();
        assert_eq!(
            order,
            vec![(0, 0), (5, 1), (5, 0), (10, 0), (15, 1), (15, 0)]
        );
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
