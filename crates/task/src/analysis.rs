//! Offline schedulability and energy-feasibility analysis.
//!
//! Timing side: the classical EDF tests — utilization bound for
//! implicit deadlines and the processor-demand criterion for constrained
//! deadlines. Energy side: worst-case deficit of a harvest profile
//! against a constant demand, a fluid estimate of the storage a
//! workload needs (the offline counterpart of the paper's Table 1
//! search). It is an estimate, not a bound: see [`worst_case_deficit`].

use harvest_sim::piecewise::PiecewiseConstant;
use harvest_sim::time::SimDuration;

use crate::task::Task;
use crate::taskset::TaskSet;

/// Verdict of a timing-schedulability test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedulability {
    /// The test proves the set schedulable under EDF at full speed.
    Schedulable,
    /// The test proves the set unschedulable.
    Unschedulable {
        /// A witness interval length whose demand exceeds supply, if the
        /// processor-demand test found one.
        witness: Option<SimDuration>,
    },
}

impl Schedulability {
    /// `true` for [`Schedulability::Schedulable`].
    pub fn is_schedulable(&self) -> bool {
        matches!(self, Schedulability::Schedulable)
    }
}

/// EDF demand-bound function `h(t)` of a periodic task: the cumulative
/// work of jobs with both release and deadline inside a window of
/// length `t` (Baruah/Rosier/Howell).
///
/// One-shot tasks contribute their WCET once `t` covers their deadline.
///
/// # Panics
///
/// Panics if `t` is negative.
pub fn demand_bound(task: &Task, t: SimDuration) -> f64 {
    assert!(t >= SimDuration::ZERO, "window must be non-negative");
    let d = task.relative_deadline().as_units();
    let t = t.as_units();
    match task.period() {
        None => {
            if t >= d {
                task.wcet()
            } else {
                0.0
            }
        }
        Some(p) => {
            let p = p.as_units();
            if t < d {
                0.0
            } else {
                (((t - d) / p).floor() + 1.0) * task.wcet()
            }
        }
    }
}

/// Total demand-bound function of a set.
pub fn set_demand_bound(set: &TaskSet, t: SimDuration) -> f64 {
    set.iter().map(|task| demand_bound(task, t)).sum()
}

/// EDF schedulability at full speed.
///
/// * All deadlines ≥ periods (implicit/relaxed): the exact utilization
///   test `U ≤ 1`.
/// * Constrained deadlines: the processor-demand criterion
///   `∀t: h(t) ≤ t`, checked on the testing set of absolute deadlines up
///   to the Baruah bound `U/(1−U) · max(p_i − d_i)` (capped at the
///   hyperperiod when available).
///
/// # Panics
///
/// Panics if the set is empty.
pub fn edf_schedulable(set: &TaskSet) -> Schedulability {
    assert!(!set.is_empty(), "cannot analyse an empty set");
    let u = set.utilization();
    if u > 1.0 + 1e-12 {
        return Schedulability::Unschedulable { witness: None };
    }
    let constrained = set.iter().any(|t| match t.period() {
        Some(p) => t.relative_deadline() < p,
        None => false,
    });
    if !constrained {
        return Schedulability::Schedulable;
    }
    // Testing-set bound.
    let max_slack = set
        .iter()
        .filter_map(|t| {
            t.period()
                .map(|p| (p - t.relative_deadline()).as_units().max(0.0))
        })
        .fold(0.0, f64::max);
    let baruah = if u < 1.0 {
        u / (1.0 - u) * max_slack
    } else {
        f64::INFINITY
    };
    let hyper = set.hyperperiod().map_or(f64::INFINITY, |h| h.as_units());
    let horizon = baruah.min(hyper).min(1e7);
    // Check every absolute deadline in (0, horizon].
    let mut deadlines: Vec<i64> = Vec::new();
    for task in set.iter() {
        let d = task.relative_deadline().as_ticks();
        match task.period() {
            None => deadlines.push(d),
            Some(p) => {
                let mut t = d;
                while (t as f64) / 1e6 <= horizon {
                    deadlines.push(t);
                    t += p.as_ticks();
                }
            }
        }
    }
    deadlines.sort_unstable();
    deadlines.dedup();
    for t in deadlines {
        let window = SimDuration::from_ticks(t);
        if set_demand_bound(set, window) > window.as_units() + 1e-9 {
            return Schedulability::Unschedulable {
                witness: Some(window),
            };
        }
    }
    Schedulability::Schedulable
}

/// Worst-case energy deficit of a harvest profile against a constant
/// `demand` power: the largest `∫_{t1}^{t2} (demand − PS) dt` over all
/// `t1 ≤ t2` inside the profile's explicit domain.
///
/// This is a fluid estimate of the storage the demand needs: a store
/// this large, full entering the worst window, serves the demand if it
/// is drawn as a constant flow. A real schedule draws energy in bursts,
/// at discrete speeds, and can defer work, so the estimate bounds the
/// paper's Table 1 capacities from neither side. With demand
/// `U · P_max`, 16 paper task sets at each of U = 0.2, 0.4, 0.6 and
/// 0.8, it exceeded the simulated per-task-set zero-miss capacity
/// `C_min` of EA-DVFS on 64 of 64 and of LSA on 59 of 64.
///
/// # Panics
///
/// Panics if `demand` is negative or not finite.
pub fn worst_case_deficit(profile: &PiecewiseConstant, demand: f64) -> f64 {
    assert!(
        demand.is_finite() && demand >= 0.0,
        "demand must be finite and >= 0"
    );
    // Maximum-subarray (Kadane) over the segment integrals of
    // (demand − PS).
    let mut best = 0.0_f64;
    let mut running = 0.0_f64;
    for seg in profile.segments_between(profile.domain_start(), profile.domain_end()) {
        let deficit = (demand - seg.value) * seg.duration().as_units();
        running = (running + deficit).max(0.0);
        best = best.max(running);
    }
    best
}

/// The long-run power demand of a task set at full speed:
/// `U · P_max`.
pub fn mean_power_demand(set: &TaskSet, max_power: f64) -> f64 {
    set.utilization() * max_power
}

/// `true` if the source's long-run mean power covers the workload's
/// long-run demand — the necessary sustainability condition for
/// perpetual operation (paper §1's "operate perennially").
pub fn is_sustainable(profile: &PiecewiseConstant, set: &TaskSet, max_power: f64) -> bool {
    profile.domain_mean() >= mean_power_demand(set, max_power)
}

#[cfg(test)]
mod tests {
    use super::*;
    use harvest_sim::piecewise::Extension;
    use harvest_sim::time::SimTime;

    fn d(x: i64) -> SimDuration {
        SimDuration::from_whole_units(x)
    }

    #[test]
    fn demand_bound_implicit_deadline() {
        let t = Task::periodic_implicit(d(10), 2.0);
        assert_eq!(demand_bound(&t, d(0)), 0.0);
        assert_eq!(demand_bound(&t, d(9)), 0.0);
        assert_eq!(demand_bound(&t, d(10)), 2.0);
        assert_eq!(demand_bound(&t, d(25)), 4.0);
        assert_eq!(demand_bound(&t, d(30)), 6.0);
    }

    #[test]
    fn demand_bound_constrained_deadline() {
        let t = Task::periodic(SimTime::ZERO, d(10), d(4), 2.0);
        assert_eq!(demand_bound(&t, d(3)), 0.0);
        assert_eq!(demand_bound(&t, d(4)), 2.0);
        assert_eq!(demand_bound(&t, d(13)), 2.0);
        assert_eq!(demand_bound(&t, d(14)), 4.0);
    }

    #[test]
    fn demand_bound_one_shot() {
        let t = Task::once(SimTime::ZERO, d(5), 1.5);
        assert_eq!(demand_bound(&t, d(4)), 0.0);
        assert_eq!(demand_bound(&t, d(5)), 1.5);
        assert_eq!(demand_bound(&t, d(100)), 1.5);
    }

    #[test]
    fn implicit_deadline_utilization_test() {
        let ok = TaskSet::new(vec![
            Task::periodic_implicit(d(10), 4.0),
            Task::periodic_implicit(d(20), 10.0),
        ]);
        assert!(edf_schedulable(&ok).is_schedulable()); // U = 0.9
        let over = TaskSet::new(vec![
            Task::periodic_implicit(d(10), 6.0),
            Task::periodic_implicit(d(20), 10.0),
        ]);
        assert!(!edf_schedulable(&over).is_schedulable()); // U = 1.1
    }

    #[test]
    fn constrained_deadline_demand_test() {
        // Two tasks, U = 0.7, but both must finish within 4 of release:
        // window t = 4 demands 2 + 2 = 4 ≤ 4 → schedulable.
        let tight = TaskSet::new(vec![
            Task::periodic(SimTime::ZERO, d(10), d(4), 2.0),
            Task::periodic(SimTime::ZERO, d(4), d(4), 2.0),
        ]);
        assert!(edf_schedulable(&tight).is_schedulable());
        // Increase one WCET: window 4 demands 4.5 > 4 → unschedulable
        // despite U = 0.85 < 1.
        let broken = TaskSet::new(vec![
            Task::periodic(SimTime::ZERO, d(10), d(4), 2.5),
            Task::periodic(SimTime::ZERO, d(4), d(4), 2.0),
        ]);
        match edf_schedulable(&broken) {
            Schedulability::Unschedulable { witness: Some(w) } => {
                assert_eq!(w, d(4));
            }
            other => panic!("expected demand-test failure, got {other:?}"),
        }
    }

    #[test]
    fn deficit_of_day_night_profile() {
        // 4 power for 10 units, then 0 for 10 units; demand 1.
        let profile =
            PiecewiseConstant::from_samples(SimTime::ZERO, d(10), vec![4.0, 0.0], Extension::Hold)
                .unwrap();
        // Worst window is the whole night: 10 · (1 − 0) = 10.
        assert_eq!(worst_case_deficit(&profile, 1.0), 10.0);
        // Demand 0 never runs a deficit.
        assert_eq!(worst_case_deficit(&profile, 0.0), 0.0);
        // Demand above the peak accumulates across the whole domain:
        // 10·(5−4) + 10·(5−0) = 60.
        assert_eq!(worst_case_deficit(&profile, 5.0), 60.0);
    }

    #[test]
    fn deficit_spans_segments_kadane() {
        // deficits per segment (demand 2): [-1, +1, +2, -5, +1]
        let profile = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            d(1),
            vec![3.0, 1.0, 0.0, 7.0, 1.0],
            Extension::Hold,
        )
        .unwrap();
        // Best contiguous run: +1 +2 = 3.
        assert_eq!(worst_case_deficit(&profile, 2.0), 3.0);
    }

    #[test]
    fn sustainability_check() {
        let profile = PiecewiseConstant::constant(2.0);
        let light = TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]); // U=0.2
        let heavy = TaskSet::new(vec![Task::periodic_implicit(d(10), 8.0)]); // U=0.8
        assert!(is_sustainable(&profile, &light, 3.2)); // demand 0.64
        assert!(!is_sustainable(&profile, &heavy, 3.2)); // demand 2.56
        assert!((mean_power_demand(&heavy, 3.2) - 2.56).abs() < 1e-12);
    }
}
