//! Figures 6–7: normalized remaining energy over time.
//!
//! The paper's procedure (§5.2): run each task set against every
//! capacity in [`super::PAPER_CAPACITIES`]; normalize each run's stored
//! energy by its capacity; average all normalized curves with equal
//! weight.

use harvest_sim::stats::SampledSeries;
use harvest_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use super::resolve::{CellResolver, GridCell};
use super::{RunPlan, SweepExecStats};
use crate::scenario::{PaperScenario, PolicyKind};

/// Data behind Figures 6 (U = 0.4) and 7 (U = 0.8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RemainingEnergyFigure {
    /// Workload utilization.
    pub(crate) utilization: f64,
    /// Sample instants (whole time units).
    pub times: Vec<f64>,
    /// Mean normalized remaining energy per policy, aligned with
    /// `times`.
    pub(crate) series: Vec<(PolicyKind, Vec<f64>)>,
    /// Task sets per capacity point.
    pub trials: usize,
    /// Capacities averaged over.
    pub capacities: Vec<f64>,
    /// Time-averaged normalized level per capacity per policy,
    /// `per_capacity[c][p]` aligned with `capacities` × `series` — the
    /// gap between policies concentrates at the small capacities.
    pub per_capacity: Vec<Vec<f64>>,
}

impl RemainingEnergyFigure {
    /// The curve for one policy, if present.
    pub fn curve(&self, policy: PolicyKind) -> Option<&[f64]> {
        self.series
            .iter()
            .find(|(p, _)| *p == policy)
            .map(|(_, v)| v.as_slice())
    }

    /// Time-averaged normalized remaining energy for one policy.
    pub fn mean_level(&self, policy: PolicyKind) -> Option<f64> {
        self.curve(policy)
            .map(|c| c.iter().sum::<f64>() / c.len() as f64)
    }
}

/// Reproduces Fig. 6/7 for the given utilization.
///
/// `trials` task sets are run per capacity per policy;
/// `sample_interval_units` sets the curve resolution (the paper plots
/// ~100 points over 10 000 units). The engine samples at every
/// `k·dt` before the horizon, so the grid has `⌈horizon / dt⌉` points.
///
/// Stored summaries carry the raw sampled levels as IEEE-754 bit
/// patterns, so a curve rebuilt from the plan's store is bit-identical
/// to one rebuilt from fresh simulations; a fully warm re-run builds no
/// prefab and simulates nothing.
///
/// # Panics
///
/// Panics if `trials`, `sample_interval_units` or `plan.threads` is
/// not positive.
pub fn remaining_energy_figure(
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    sample_interval_units: i64,
    plan: RunPlan<'_>,
) -> (RemainingEnergyFigure, SweepExecStats) {
    assert!(trials > 0, "need at least one trial");
    assert!(
        sample_interval_units > 0,
        "sample interval must be positive"
    );
    let capacities = super::PAPER_CAPACITIES.to_vec();
    let scenario = |capacity: f64| {
        PaperScenario::new(utilization, capacity).with_sampling(sample_interval_units)
    };
    let horizon_units = scenario(capacities[0]).horizon_units;
    let points = (horizon_units as u64).div_ceil(sample_interval_units as u64) as usize;
    let grid_step = SimDuration::from_whole_units(sample_interval_units);

    // Policy-major, then capacity, then seed.
    let mut cells: Vec<GridCell> = Vec::with_capacity(policies.len() * capacities.len() * trials);
    for &policy in policies {
        for &capacity in &capacities {
            cells.extend((0..trials as u64).map(|seed| (scenario(capacity), policy, seed)));
        }
    }
    let mut resolver =
        CellResolver::new(plan, PaperScenario::new(utilization, capacities[0]), trials);
    let summaries = resolver.resolve(&cells);

    let mut series = Vec::new();
    let mut per_capacity = vec![vec![0.0; policies.len()]; capacities.len()];
    let per_policy = summaries.chunks(capacities.len() * trials);
    for (pi, (&policy, runs)) in policies.iter().zip(per_policy).enumerate() {
        let mut acc = SampledSeries::new(SimTime::ZERO, grid_step, points);
        for (ci, (&capacity, point)) in capacities.iter().zip(runs.chunks(trials)).enumerate() {
            for summary in point {
                let samples = summary.normalized_sample_values(capacity);
                acc.accumulate(&samples);
                let run_mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
                per_capacity[ci][pi] += run_mean / trials as f64;
            }
        }
        series.push((policy, acc.mean_values()));
    }
    let figure = RemainingEnergyFigure {
        utilization,
        times: (0..points)
            .map(|k| (k as i64 * sample_interval_units) as f64)
            .collect(),
        series,
        trials,
        capacities,
        per_capacity,
    };
    (figure, resolver.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Small but real instance of the Fig. 6 headline: at U = 0.4 the
    /// EA-DVFS system stores significantly more energy than LSA.
    #[test]
    fn ea_dvfs_stores_more_at_low_utilization() {
        let (fig, _) = remaining_energy_figure(
            0.4,
            &[PolicyKind::Lsa, PolicyKind::EaDvfs],
            3,
            500,
            RunPlan::new(2),
        );
        let lsa = fig.mean_level(PolicyKind::Lsa).unwrap();
        let ea = fig.mean_level(PolicyKind::EaDvfs).unwrap();
        assert!(
            ea > lsa,
            "EA-DVFS should retain more energy (ea {ea:.3} vs lsa {lsa:.3})"
        );
        assert_eq!(fig.times.len(), 20);
        assert!(fig.curve(PolicyKind::Edf).is_none());
        // Per-capacity breakdown is filled and bounded.
        assert_eq!(fig.per_capacity.len(), fig.capacities.len());
        for row in &fig.per_capacity {
            assert_eq!(row.len(), 2);
            for &v in row {
                assert!((0.0..=1.0 + 1e-9).contains(&v), "mean level {v}");
            }
        }
    }

    #[test]
    fn curves_start_full() {
        let (fig, _) =
            remaining_energy_figure(0.4, &[PolicyKind::EaDvfs], 2, 1000, RunPlan::new(2));
        let c = fig.curve(PolicyKind::EaDvfs).unwrap();
        // Storage starts full in every run → the first sample is 1.0.
        assert!((c[0] - 1.0).abs() < 1e-9, "first sample {}", c[0]);
        assert!(c.iter().all(|&v| (0.0..=1.0 + 1e-9).contains(&v)));
    }

    /// An interval that does not divide the horizon still samples at
    /// every `k·dt` before it: 34 points for `dt = 300`, the last at
    /// 9 900.
    #[test]
    fn sample_grid_rounds_up_to_the_last_sample_before_the_horizon() {
        let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
        let (fig, _) = remaining_energy_figure(0.4, &policies, 1, 300, RunPlan::new(2));
        let times: Vec<f64> = (0..34).map(|k| f64::from(k * 300)).collect();
        assert_eq!(fig.times, times);
        for (policy, curve) in &fig.series {
            assert_eq!(curve.len(), 34, "{}", policy.name());
            assert!((curve[0] - 1.0).abs() < 1e-9, "first sample {}", curve[0]);
        }
    }

    #[test]
    #[should_panic(expected = "sample interval must be positive")]
    fn zero_sample_interval_is_rejected() {
        remaining_energy_figure(0.4, &[PolicyKind::EaDvfs], 1, 0, RunPlan::new(1));
    }
}
