//! Figures 8–9: deadline miss rate vs. normalized storage capacity.

use serde::{Deserialize, Serialize};

use harvest_obs::span::{SpanSink, CAT_FIGURE, TID_DRIVER};

use super::resolve::{CellResolver, GridCell};
use super::{GroupingMode, RunPlan, SweepExecStats};
use crate::scenario::{PaperScenario, PolicyKind};
use crate::store::PackStore;
use crate::telemetry::CampaignTelemetry;

/// One capacity point of a miss-rate sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissRateRow {
    /// Absolute capacity.
    pub capacity: f64,
    /// Capacity normalized by the sweep maximum (the paper's x axis).
    pub normalized_capacity: f64,
    /// Mean miss rate per policy, in `policies` order.
    pub miss_rates: Vec<f64>,
}

/// Data behind Figures 8 (U = 0.4) and 9 (U = 0.8).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MissRateFigure {
    /// Workload utilization.
    pub utilization: f64,
    /// Policies, in row order.
    pub policies: Vec<PolicyKind>,
    /// One row per swept capacity, ascending.
    pub rows: Vec<MissRateRow>,
    /// Task sets per capacity point.
    pub trials: usize,
}

impl MissRateFigure {
    /// Mean miss rate of `policy` across all capacities.
    pub fn mean_miss_rate(&self, policy: PolicyKind) -> Option<f64> {
        let idx = self.policies.iter().position(|&p| p == policy)?;
        let sum: f64 = self.rows.iter().map(|r| r.miss_rates[idx]).sum();
        Some(sum / self.rows.len() as f64)
    }

    /// The miss-rate curve of `policy` (aligned with `rows`).
    pub fn curve(&self, policy: PolicyKind) -> Option<Vec<f64>> {
        let idx = self.policies.iter().position(|&p| p == policy)?;
        Some(self.rows.iter().map(|r| r.miss_rates[idx]).collect())
    }
}

/// The capacity sweep used for Figs. 8–9 (denser at the small end where
/// the curves move fastest; maximum matches the paper's 5 000).
pub(crate) fn sweep_capacities() -> Vec<f64> {
    vec![
        50.0, 100.0, 200.0, 300.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0,
    ]
}

/// Reproduces Fig. 8/9 for the given utilization: the mean miss rate
/// of each policy over `trials` task sets at every swept capacity.
///
/// Resolves the capacities × policies × seeds grid in one pass of the
/// figure resolver: one batch probe of the plan's store (a fully warm
/// re-run does no simulation work at all), prefabs only for the seeds
/// that still need simulating, then the pending cells through
/// per-worker pooled contexts, written back and synced before the
/// driver returns.
///
/// Under telemetry it traces the `probe`/`build` phases, each simulated
/// `cell` and `store` write, and the whole `miss-rate-figure`, and
/// streams one progress event per decided cell. The driver opens the
/// progress stream ([`ProgressReporter::start`]) but never closes it
/// ([`ProgressReporter::finish`] stays with the CLI).
///
/// [`ProgressReporter::start`]: harvest_obs::ProgressReporter::start
/// [`ProgressReporter::finish`]: harvest_obs::ProgressReporter::finish
///
/// # Panics
///
/// Panics if `trials` or `plan.threads` is zero.
pub fn miss_rate_figure(
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    plan: RunPlan<'_>,
) -> (MissRateFigure, SweepExecStats) {
    assert!(trials > 0, "need at least one trial");
    let mut figure_sink = plan.telemetry.sink(TID_DRIVER);
    let figure_start = figure_sink.as_ref().map(SpanSink::start);
    let capacities = sweep_capacities();
    let max_capacity = capacities.last().copied().expect("non-empty sweep");
    let cells: Vec<GridCell> = capacities
        .iter()
        .flat_map(|&c| {
            policies.iter().flat_map(move |&p| {
                (0..trials as u64).map(move |s| (PaperScenario::new(utilization, c), p, s))
            })
        })
        .collect();
    if let Some(progress) = &plan.telemetry.progress {
        progress.start(
            &format!("sweep-u{utilization}"),
            cells.len() as u64,
            0,
            plan.threads,
        );
    }
    let mut resolver =
        CellResolver::new(plan, PaperScenario::new(utilization, max_capacity), trials);
    let summaries = resolver.resolve(&cells);

    let mut rows: Vec<MissRateRow> = capacities
        .iter()
        .map(|&c| MissRateRow {
            capacity: c,
            normalized_capacity: c / max_capacity,
            miss_rates: vec![0.0; policies.len()],
        })
        .collect();
    // Cells run capacity-major, then policy, then seed.
    for (i, summary) in summaries.iter().enumerate() {
        let (ci, pi) = (i / (policies.len() * trials), i / trials % policies.len());
        rows[ci].miss_rates[pi] += summary.miss_rate() / trials as f64;
    }
    let figure = MissRateFigure {
        utilization,
        policies: policies.to_vec(),
        rows,
        trials,
    };
    let stats = resolver.finish();
    if let (Some(sink), Some(t)) = (figure_sink.as_mut(), figure_start) {
        sink.record_with(
            t,
            "miss-rate-figure",
            CAT_FIGURE,
            vec![("utilization".into(), utilization.to_string())],
        );
    }
    (figure, stats)
}

/// [`miss_rate_figure`] with the argument list the campaign benchmark's
/// parity test calls it with; `batch` and `grouping` are ignored. Goes
/// when that test moves onto [`RunPlan`].
#[allow(clippy::too_many_arguments)]
pub fn miss_rate_figure_grouped(
    store: Option<&PackStore>,
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    threads: usize,
    _batch: usize,
    _grouping: GroupingMode,
    telemetry: &CampaignTelemetry,
) -> (MissRateFigure, SweepExecStats) {
    miss_rate_figure(
        utilization,
        policies,
        trials,
        RunPlan {
            threads,
            store,
            telemetry,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_ascending_and_normalized() {
        let caps = sweep_capacities();
        assert!(caps.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*caps.last().unwrap(), 5000.0);
    }

    /// Shrunk Fig. 8 headline: at U = 0.4, EA-DVFS misses markedly fewer
    /// deadlines than LSA.
    #[test]
    fn ea_dvfs_beats_lsa_at_low_utilization() {
        let (fig, _) = miss_rate_figure(
            0.4,
            &[PolicyKind::Lsa, PolicyKind::EaDvfs],
            3,
            RunPlan::new(2),
        );
        let lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
        let ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
        assert!(
            ea < lsa,
            "EA-DVFS should miss less (ea {ea:.3} vs lsa {lsa:.3})"
        );
        // Monotone-ish: the largest capacity should not miss more than
        // the smallest.
        let curve = fig.curve(PolicyKind::EaDvfs).unwrap();
        assert!(curve.last().unwrap() <= curve.first().unwrap());
    }

    /// A driver call holds one prefab per seed it simulates, and builds
    /// none for a seed the store answers.
    #[test]
    fn prefabs_high_water_counts_the_seeds_simulated() {
        let dir =
            std::env::temp_dir().join(format!("harvest-prefab-high-water-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
        let run = |store: &PackStore| {
            let plan = RunPlan {
                store: Some(store),
                ..RunPlan::new(2)
            };
            miss_rate_figure(0.4, &policies, 3, plan)
        };
        let store = PackStore::open(&dir).unwrap();
        let (cold, cold_stats) = run(&store);
        assert_eq!(cold_stats.prefabs_high_water, 3);
        drop(store);
        let store = PackStore::open(&dir).unwrap();
        let (warm, warm_stats) = run(&store);
        assert_eq!(
            (warm_stats.simulated, warm_stats.prefabs_high_water),
            (0, 0)
        );
        assert_eq!(warm, cold);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
