//! Property-based tests of the task model.

use harvest_sim::time::{SimDuration, SimTime};
use harvest_task::analysis::{demand_bound, set_demand_bound};
use harvest_task::generator::WorkloadSpec;
use harvest_task::job::{Job, JobId};
use harvest_task::queue::EdfQueue;
use harvest_task::task::Task;
use harvest_task::taskset::TaskSet;
use proptest::prelude::*;

proptest! {
    /// Arrivals enumerated over a window match first-principles
    /// counting: phase + k·period within [from, until).
    #[test]
    fn arrivals_match_closed_form(
        phase in 0i64..50,
        period in 1i64..40,
        from in 0i64..200,
        len in 0i64..200,
    ) {
        let task = Task::periodic(
            SimTime::from_whole_units(phase),
            SimDuration::from_whole_units(period),
            SimDuration::from_whole_units(period),
            1.0,
        );
        let until = from + len;
        let got = task.arrivals_between(
            SimTime::from_whole_units(from),
            SimTime::from_whole_units(until),
        );
        let expected: Vec<SimTime> = (0..)
            .map(|k| phase + k * period)
            .take_while(|&t| t < until)
            .filter(|&t| t >= from)
            .map(SimTime::from_whole_units)
            .collect();
        prop_assert_eq!(got, expected);
    }

    /// Splitting an arrival window never loses or duplicates arrivals.
    #[test]
    fn arrivals_are_window_compositional(
        phase in 0i64..20,
        period in 1i64..30,
        cut in 0i64..100,
        rest in 0i64..100,
    ) {
        let task = Task::periodic(
            SimTime::from_whole_units(phase),
            SimDuration::from_whole_units(period),
            SimDuration::from_whole_units(period),
            1.0,
        );
        let a = SimTime::ZERO;
        let b = SimTime::from_whole_units(cut);
        let c = SimTime::from_whole_units(cut + rest);
        let mut split = task.arrivals_between(a, b);
        split.extend(task.arrivals_between(b, c));
        prop_assert_eq!(split, task.arrivals_between(a, c));
    }

    /// Scaling a set to a target utilization hits it exactly and keeps
    /// the per-task proportions.
    #[test]
    fn scaling_preserves_proportions(
        periods in proptest::collection::vec(1i64..20, 2..6),
        target in 0.05f64..1.0,
    ) {
        let set: TaskSet = periods
            .iter()
            .map(|&p| Task::periodic_implicit(
                SimDuration::from_whole_units(10 * p),
                p as f64,
            ))
            .collect();
        let scaled = set.scaled_to_utilization(target);
        prop_assert!((scaled.utilization() - target).abs() < 1e-9);
        let ratio0 = scaled.tasks()[0].wcet() / set.tasks()[0].wcet();
        for (orig, new) in set.iter().zip(scaled.iter()) {
            let r = new.wcet() / orig.wcet();
            prop_assert!((r - ratio0).abs() < 1e-9, "uneven scaling");
        }
    }

    /// The demand bound is monotone in the window and subadditive
    /// against utilization: h(t) ≤ U·t + Σw.
    #[test]
    fn demand_bound_is_sane(
        periods in proptest::collection::vec(1i64..20, 1..6),
        t in 0i64..500,
    ) {
        let set: TaskSet = periods
            .iter()
            .map(|&p| Task::periodic_implicit(SimDuration::from_whole_units(5 * p), 1.0))
            .collect();
        let window = SimDuration::from_whole_units(t);
        let h = set_demand_bound(&set, window);
        let h_next = set_demand_bound(&set, window + SimDuration::from_whole_units(1));
        prop_assert!(h_next + 1e-12 >= h, "demand bound must be monotone");
        let wsum: f64 = set.iter().map(Task::wcet).sum();
        prop_assert!(h <= set.utilization() * t as f64 + wsum + 1e-9);
        for task in &set {
            prop_assert!(demand_bound(task, window) >= 0.0);
        }
    }

    /// The workload generator respects its contract for every seed and
    /// parameterization.
    #[test]
    fn generator_contract(
        seed in 0u64..2_000,
        n in 1usize..10,
        u in 0.05f64..1.0,
        bcet in 0.1f64..1.0,
    ) {
        let set = WorkloadSpec::paper(n, u, 2.0, 3.2)
            .with_bcet_ratio(bcet)
            .generate(seed);
        prop_assert_eq!(set.len(), n);
        prop_assert!((set.utilization() - u).abs() < 1e-9);
        for task in &set {
            let p = task.period().expect("paper tasks are periodic");
            prop_assert_eq!(task.relative_deadline(), p);
            prop_assert!(task.wcet() <= p.as_units() + 1e-9, "wcet within period");
            prop_assert!(task.actual_work() <= task.wcet() + 1e-12);
            prop_assert!(task.actual_work() >= bcet * task.wcet() - 1e-9);
        }
    }

    /// EDF queue: any push sequence pops in (deadline, id) order, and
    /// total work is conserved.
    #[test]
    fn edf_queue_total_order(
        jobs in proptest::collection::vec((1i64..100, 0.1f64..5.0), 1..50),
    ) {
        let mut q = EdfQueue::new();
        let mut total = 0.0;
        for (i, &(deadline, work)) in jobs.iter().enumerate() {
            q.push(Job::new(
                JobId(i as u64),
                SimTime::from_whole_units(deadline),
                work,
            ));
            total += work;
        }
        prop_assert!((q.total_remaining_work() - total).abs() < 1e-9);
        let mut prev: Option<(SimTime, JobId)> = None;
        while let Some(job) = q.pop() {
            let key = (job.absolute_deadline(), job.id());
            if let Some(p) = prev {
                prop_assert!(key > p, "EDF order violated: {key:?} after {p:?}");
            }
            prev = Some(key);
        }
    }

    /// EDF queue vs. a naive sorted-Vec model: arbitrary interleavings
    /// of push/pop/remove/drain agree on contents, membership, and
    /// priority order — including deadline ties and removal of ids
    /// that are absent or already drained.
    #[test]
    fn edf_queue_matches_sorted_vec_model(
        ops in proptest::collection::vec((0u8..8, 1i64..20, 0usize..256), 1..200),
    ) {
        let mut q = EdfQueue::new();
        // The model: (deadline_units, id) keys of live jobs.
        let mut model: Vec<(i64, u64)> = Vec::new();
        let mut next_id = 0u64;
        let mut now = 0i64;

        for &(op, deadline, target) in &ops {
            match op {
                0..=3 => {
                    let id = next_id;
                    next_id += 1;
                    q.push(Job::new(JobId(id), SimTime::from_whole_units(deadline), 1.0));
                    model.push((deadline, id));
                }
                4 => {
                    model.sort_unstable();
                    let expected = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    let got = q.pop().map(|j| {
                        (j.absolute_deadline().as_ticks()
                            / SimTime::from_whole_units(1).as_ticks(),
                         j.id().0)
                    });
                    prop_assert_eq!(got, expected, "pop diverged");
                }
                5 => {
                    if next_id == 0 {
                        continue;
                    }
                    let id = (target as u64) % next_id;
                    let expected = model.iter().position(|&(_, i)| i == id);
                    let got = q.remove(JobId(id));
                    prop_assert_eq!(
                        got.is_some(),
                        expected.is_some(),
                        "remove({}) presence diverged",
                        id
                    );
                    if let Some(pos) = expected {
                        model.swap_remove(pos);
                        prop_assert_eq!(got.unwrap().id(), JobId(id));
                    }
                }
                6 => {
                    now += deadline;
                    let mut expected: Vec<(i64, u64)> = model
                        .iter()
                        .copied()
                        .filter(|&(d, _)| d <= now)
                        .collect();
                    expected.sort_unstable();
                    model.retain(|&(d, _)| d > now);
                    let mut out = Vec::new();
                    q.drain_expired_into(SimTime::from_whole_units(now), &mut out);
                    let got: Vec<(i64, u64)> = out
                        .iter()
                        .map(|j| {
                            (j.absolute_deadline().as_ticks()
                                / SimTime::from_whole_units(1).as_ticks(),
                             j.id().0)
                        })
                        .collect();
                    prop_assert_eq!(got, expected, "drain diverged");
                }
                _ => {
                    prop_assert_eq!(q.len(), model.len());
                    if next_id > 0 {
                        let id = (target as u64) % next_id;
                        let expected = model.iter().any(|&(_, i)| i == id);
                        prop_assert_eq!(q.contains(JobId(id)), expected);
                    }
                    let mut sorted = model.clone();
                    sorted.sort_unstable();
                    let head = q.peek().map(|j| j.id().0);
                    prop_assert_eq!(head, sorted.first().map(|&(_, i)| i));
                }
            }
        }

        // Final drain in strict priority order.
        model.sort_unstable();
        for &(d, id) in &model {
            let j = q.pop().expect("model job present");
            prop_assert_eq!(j.id().0, id);
            prop_assert_eq!(j.absolute_deadline(), SimTime::from_whole_units(d));
        }
        prop_assert!(q.is_empty());
    }
}
