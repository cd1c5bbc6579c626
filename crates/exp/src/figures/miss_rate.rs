//! Figures 8–9: deadline miss rate vs. normalized storage capacity.

use serde::{Deserialize, Serialize};

use harvest_obs::progress::CellDecision;
use harvest_obs::span::{CAT_BUILD, CAT_FIGURE, CAT_PROBE, CAT_SIMULATE, CAT_STORE, TID_DRIVER};

use super::{GroupingMode, SweepExecStats};
use crate::cache::{TrialKey, TrialSummary};
use crate::parallel::{parallel_map, parallel_map_with};
use crate::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};
use crate::store::{store_from_env, TrialStore};
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

/// Reproduces Fig. 8/9 for the given utilization.
///
/// Store-gated by the `HARVEST_SWEEP_STORE` environment variable (see
/// [`crate::store`]); use
/// [`miss_rate_figure_cached`] to pass a store explicitly.
///
/// # Panics
///
/// Panics if `trials` or `threads` is zero.
pub fn miss_rate_figure(
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    threads: usize,
) -> MissRateFigure {
    let store = store_from_env();
    miss_rate_figure_cached(
        store.as_ref().map(|s| s as &dyn TrialStore),
        utilization,
        policies,
        trials,
        threads,
    )
    .0
}

/// [`miss_rate_figure`] with an explicit trial store and execution
/// accounting.
///
/// Runs in three phases: **probe** every grid cell against the store in
/// one batch (no prefab is built for a cell the store answers, so a
/// fully warm re-run does no simulation work at all), **build** trial
/// prefabs only for the seeds that still need simulating, then **run**
/// the pending cells through per-worker pooled contexts and write their
/// summaries back to the store.
///
/// # Panics
///
/// Panics if `trials` or `threads` is zero.
pub fn miss_rate_figure_cached(
    store: Option<&dyn TrialStore>,
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    threads: usize,
) -> (MissRateFigure, SweepExecStats) {
    miss_rate_figure_instrumented(
        store,
        utilization,
        policies,
        trials,
        threads,
        &CampaignTelemetry::off(),
    )
}

/// [`miss_rate_figure_instrumented`] with two ignored arguments, `batch`
/// and `grouping`. Kept because the campaign benchmark calls it with
/// them.
///
/// # Panics
///
/// Panics if `trials`, `threads`, or `batch` is zero.
#[allow(clippy::too_many_arguments)]
pub fn miss_rate_figure_grouped(
    store: Option<&dyn TrialStore>,
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    threads: usize,
    batch: usize,
    _grouping: GroupingMode,
    telemetry: &CampaignTelemetry,
) -> (MissRateFigure, SweepExecStats) {
    assert!(batch > 0, "batch width must be at least 1");
    miss_rate_figure_instrumented(store, utilization, policies, trials, threads, telemetry)
}

/// [`miss_rate_figure_cached`] under campaign telemetry: span tracing of
/// the probe/build/run phases and each simulated cell, and live progress
/// events per decided cell. With the default (disabled)
/// [`CampaignTelemetry`] every observer site is one `None` branch, so
/// results — and the warm-path cost the sweep bench pins — are those of
/// the plain driver. The caller owns the telemetry lifecycle: this
/// driver opens the progress stream ([`ProgressReporter::start`]) but
/// never closes it ([`ProgressReporter::finish`] stays with the CLI).
///
/// [`ProgressReporter::start`]: harvest_obs::ProgressReporter::start
/// [`ProgressReporter::finish`]: harvest_obs::ProgressReporter::finish
///
/// # Panics
///
/// Panics if `trials` or `threads` is zero.
pub fn miss_rate_figure_instrumented(
    store: Option<&dyn TrialStore>,
    utilization: f64,
    policies: &[PolicyKind],
    trials: usize,
    threads: usize,
    telemetry: &CampaignTelemetry,
) -> (MissRateFigure, SweepExecStats) {
    assert!(trials > 0, "need at least one trial");
    let mut driver_sink = telemetry.sink(TID_DRIVER);
    let figure_start = driver_sink.as_ref().map(|s| s.start());
    let capacities = sweep_capacities();
    let max_capacity = capacities.last().copied().expect("non-empty sweep");
    let jobs: Vec<(usize, f64, PolicyKind, u64)> = capacities
        .iter()
        .enumerate()
        .flat_map(|(ci, &c)| {
            policies
                .iter()
                .flat_map(move |&p| (0..trials as u64).map(move |s| (ci, c, p, s)))
        })
        .collect();

    // Probe: resolve every cell the store already holds, in one batch
    // (a pack store answers the whole grid under a single map lock with
    // zero per-cell syscalls).
    let probe_start = driver_sink.as_ref().map(|s| s.start());
    let keys: Option<Vec<TrialKey>> = store.map(|_| {
        jobs.iter()
            .map(|&(_, capacity, policy, seed)| {
                PaperScenario::new(utilization, capacity).trial_key(policy, seed)
            })
            .collect()
    });
    let mut summaries: Vec<Option<TrialSummary>> = match (store, &keys) {
        (Some(c), Some(keys)) => c.probe_many(keys),
        _ => vec![None; jobs.len()],
    };
    if let (Some(sink), Some(t)) = (driver_sink.as_mut(), probe_start) {
        sink.record_with(
            t,
            "probe",
            CAT_PROBE,
            vec![("cells".into(), jobs.len().to_string())],
        );
    }
    let pending: Vec<usize> = (0..jobs.len())
        .filter(|&i| summaries[i].is_none())
        .collect();
    let mut stats = SweepExecStats {
        simulated: pending.len() as u64,
        cached: (jobs.len() - pending.len()) as u64,
        ..SweepExecStats::default()
    };
    if let Some(progress) = &telemetry.progress {
        progress.start(
            &format!("sweep-u{utilization}"),
            jobs.len() as u64,
            0,
            threads,
        );
        if let Some(keys) = &keys {
            for (i, key) in keys.iter().enumerate() {
                if summaries[i].is_some() {
                    progress.cell(CellDecision::Hit, key.text(), 0);
                }
            }
        }
    }

    // Build: a trial's solar realization and task set depend on the
    // seed but not the capacity or policy, so each needed prefab is
    // built once and shared across the whole capacities × policies
    // grid — and only for seeds with at least one uncached cell.
    let mut needed: Vec<u64> = pending.iter().map(|&i| jobs[i].3).collect();
    needed.sort_unstable();
    needed.dedup();
    let build_start = driver_sink.as_ref().map(|s| s.start());
    let built: Vec<TrialPrefab> = parallel_map(needed.clone(), threads, |seed| {
        PaperScenario::new(utilization, max_capacity).prefab(seed)
    });
    if let (Some(sink), Some(t)) = (driver_sink.as_mut(), build_start) {
        sink.record_with(
            t,
            "build",
            CAT_BUILD,
            vec![("prefabs".into(), needed.len().to_string())],
        );
    }
    let mut prefabs: Vec<Option<TrialPrefab>> = vec![None; trials];
    for (seed, prefab) in needed.into_iter().zip(built) {
        prefabs[seed as usize] = Some(prefab);
    }

    // Run: pending cells only, each worker replaying its share through
    // one pooled context.
    let (computed, pools) = parallel_map_with(
        pending,
        threads,
        |w| (w, SimPool::new(), telemetry.sink(w as u32 + 1)),
        |(worker, pool, sink), i| {
            let (_, capacity, policy, seed) = jobs[i];
            let scenario = PaperScenario::new(utilization, capacity);
            let key = scenario.trial_key(policy, seed);
            let prefab = prefabs[seed as usize]
                .as_ref()
                .expect("prefab built for every pending seed");
            let cell_start = sink.as_ref().map(|s| s.start());
            let result = scenario.run_prefab_in(pool, policy, prefab);
            if let (Some(sink), Some(t)) = (sink.as_mut(), cell_start) {
                sink.record_with(
                    t,
                    "cell",
                    CAT_SIMULATE,
                    vec![("key".into(), key.text().to_owned())],
                );
            }
            let summary = TrialSummary::of(&result);
            if let Some(c) = store {
                let store_start = sink.as_ref().map(|s| s.start());
                c.store(&key, &summary);
                if let (Some(sink), Some(t)) = (sink.as_mut(), store_start) {
                    sink.record(t, "store", CAT_STORE);
                }
            }
            telemetry.cell(CellDecision::Simulated, key.text(), *worker);
            (i, summary)
        },
    );
    for (_, pool, _) in &pools {
        stats.merge_pool(pool.stats());
    }
    for (i, summary) in computed {
        summaries[i] = Some(summary);
    }

    let mut rows: Vec<MissRateRow> = capacities
        .iter()
        .map(|&c| MissRateRow {
            capacity: c,
            normalized_capacity: c / max_capacity,
            miss_rates: vec![0.0; policies.len()],
        })
        .collect();
    for ((ci, _, policy, _), summary) in jobs.into_iter().zip(summaries) {
        let pi = policies
            .iter()
            .position(|&p| p == policy)
            .expect("policy in list");
        let rate = summary.expect("every cell resolved").miss_rate();
        rows[ci].miss_rates[pi] += rate / trials as f64;
    }
    let figure = MissRateFigure {
        utilization,
        policies: policies.to_vec(),
        rows,
        trials,
    };
    if let (Some(sink), Some(t)) = (driver_sink.as_mut(), figure_start) {
        sink.record_with(
            t,
            "miss-rate-figure",
            CAT_FIGURE,
            vec![("utilization".into(), utilization.to_string())],
        );
    }
    (figure, stats)
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
        let fig = miss_rate_figure(0.4, &[PolicyKind::Lsa, PolicyKind::EaDvfs], 3, 2);
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
}
