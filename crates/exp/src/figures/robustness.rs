//! Robustness figure: deadline miss rate vs. fault intensity.
//!
//! Not a figure from the paper — a robustness extension: the §5.1
//! scenario is re-run under deterministic fault injection
//! ([`crate::scenario::FaultScenario`]) with the intensity knob swept
//! from 0 (fault-free, reproducing the paper's operating point) to 1
//! (heavy blackouts, storage fade, DVFS level lockouts), for each
//! policy × predictor pair.
//!
//! The driver doubles as the harness-resilience integration point: it
//! runs cells through the quarantining parallel map (a panicking cell
//! is reported, not fatal), honors an engine watchdog (a stuck cell
//! aborts with a typed error and is quarantined), and checkpoints every
//! decided cell into an optional [`PackStore`] — whose decided records
//! are both the result cache and the resume log — so a killed campaign
//! resumes without re-simulating finished cells.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use harvest_obs::flight::FlightDump;
use harvest_obs::progress::CellDecision;
use harvest_obs::span::{SpanSink, CAT_FIGURE, CAT_PROBE, CAT_SIMULATE, TID_DRIVER};
use harvest_sim::engine::Watchdog;
use harvest_sim::event::QueueStats;

use super::resolve::build_prefabs;
use super::{RunPlan, SweepExecStats};
use crate::cache::{fnv1a64, TrialKey, TrialSummary};
use crate::parallel::{parallel_map_quarantined, CellFailure};
use crate::scenario::{PaperScenario, PolicyKind, PredictorKind, SimPool, TrialPrefab};
use crate::store::{CellOutcome, PackStore};
use crate::telemetry::write_flight_dump;

/// One intensity point of a robustness sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessRow {
    /// Fault intensity in `[0, 1]`.
    pub intensity: f64,
    /// Mean miss rate per (predictor, policy) pair, predictor-major —
    /// index `pi * policies.len() + pj`.
    pub miss_rates: Vec<f64>,
    /// Decided trials behind each mean (quarantined cells are excluded
    /// from the mean and from this count).
    pub decided: Vec<u64>,
}

/// Data behind the robustness figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RobustnessFigure {
    /// Workload utilization.
    pub utilization: f64,
    /// Storage capacity.
    pub capacity: f64,
    /// Policies, in column order.
    pub policies: Vec<PolicyKind>,
    /// Predictors, in (major) column order.
    pub predictors: Vec<PredictorKind>,
    /// One row per swept intensity, ascending.
    pub rows: Vec<RobustnessRow>,
    /// Task sets per grid cell.
    pub trials: usize,
}

impl RobustnessFigure {
    /// The miss-rate curve of one (predictor, policy) pair, aligned
    /// with `rows`.
    pub fn curve(&self, predictor: PredictorKind, policy: PolicyKind) -> Option<Vec<f64>> {
        let pi = self.predictors.iter().position(|&p| p == predictor)?;
        let pj = self.policies.iter().position(|&p| p == policy)?;
        let idx = pi * self.policies.len() + pj;
        Some(self.rows.iter().map(|r| r.miss_rates[idx]).collect())
    }

    /// Content digest of the figure data (FNV-1a over its canonical
    /// JSON) — what the resume smoke compares across campaign runs.
    pub fn digest(&self) -> u64 {
        let json = serde_json::to_string(self).expect("figure is plain data");
        fnv1a64(json.as_bytes())
    }
}

/// One cell of the robustness grid, as shown to the sabotage hook.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    /// The row's fault intensity.
    pub intensity: f64,
    /// The cell's policy.
    pub policy: PolicyKind,
    /// The cell's predictor.
    pub predictor: PredictorKind,
    /// The cell's trial seed.
    pub seed: u64,
}

/// Deterministic failure injection for harness smoke tests: what the
/// sabotage hook may do to one cell. The production path passes a hook
/// that always returns [`Sabotage::None`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Sabotage {
    /// Run the cell normally.
    #[default]
    None,
    /// Panic inside the cell (exercises panic quarantine).
    Panic,
    /// Run the cell under a tiny watchdog budget, forcing a typed
    /// watchdog abort (exercises error quarantine).
    Starve,
}

/// Grid parameters of one robustness campaign (the workers, store and
/// telemetry come from its [`RunPlan`]).
#[derive(Debug, Clone)]
pub struct RobustnessConfig {
    /// Workload utilization.
    pub utilization: f64,
    /// Storage capacity (scarce by default, so faults visibly move the
    /// miss rate).
    pub capacity: f64,
    /// Horizon in whole time units.
    pub horizon_units: i64,
    /// Fault intensities to sweep, ascending, each in `[0, 1]`.
    pub intensities: Vec<f64>,
    /// Policies to compare.
    pub policies: Vec<PolicyKind>,
    /// Predictors to cross with the policies.
    pub predictors: Vec<PredictorKind>,
    /// Task sets per grid cell.
    pub trials: usize,
    /// Watchdog armed on every cell — the campaign-level stuck-trial
    /// guard. The default budget is far above any legitimate §5.1 run.
    pub watchdog: Option<Watchdog>,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        RobustnessConfig {
            utilization: 0.4,
            capacity: 300.0,
            horizon_units: 10_000,
            intensities: vec![0.0, 0.25, 0.5, 0.75, 1.0],
            policies: vec![PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs],
            predictors: vec![PredictorKind::Oracle],
            trials: 5,
            watchdog: Some(Watchdog::with_max_events(5_000_000)),
        }
    }
}

/// One quarantined cell: its identity (the canonical trial key plus
/// the human-relevant coordinates) and what went wrong.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuarantineRecord {
    /// Canonical trial key text (scenario + policy + seed).
    pub key: String,
    /// The cell's policy.
    pub policy: PolicyKind,
    /// The cell's trial seed.
    pub seed: u64,
    /// The row's fault intensity.
    pub intensity: f64,
    /// The caught panic or typed simulation error.
    pub failure: CellFailure,
}

/// Everything one campaign run produced: the figure, the quarantine
/// report, and execution accounting.
#[derive(Debug)]
pub struct CampaignReport {
    /// The aggregated figure (quarantined cells excluded from means).
    pub figure: RobustnessFigure,
    /// Cells that panicked or aborted, in grid order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Simulated cell counts and pooled-context reuse (`cached` stays
    /// 0: store hits count as `resumed`).
    pub exec: SweepExecStats,
    /// Cells resolved from the store's decided records (a resumed
    /// campaign's skipped work).
    pub resumed: u64,
    /// Per-worker event-queue statistics, for post-mortem inspection of
    /// quarantining runs (one entry per worker whose pool ever ran).
    /// Pooled queues reset their per-run counters between trials, so
    /// the durable signal here is the retained footprint
    /// (`slab_capacity`); the cumulative counters live in
    /// [`SweepExecStats::pool`](super::SweepExecStats).
    pub queues: Vec<QueueStats>,
}

/// Per-worker state of a campaign: the worker's pooled context, its
/// span sink, and the flight dumps drained so far, each with the key
/// text of the cell it belongs to.
struct CampaignWorker {
    index: usize,
    pool: SimPool,
    sink: Option<SpanSink>,
    dumps: Vec<(String, FlightDump)>,
}

/// The key text a cell marked on the flight ring on entry, if the ring
/// still holds it.
fn marked_key(dump: &FlightDump) -> Option<String> {
    dump.events
        .iter()
        .rev()
        .find(|e| e.kind == "mark")
        .map(|m| m.detail.clone())
}

/// Runs a robustness campaign over `config`'s grid on `plan`.
///
/// Resolution per cell: a decided record in the plan's store (left by
/// an earlier campaign or sweep over the same cells, `done` or
/// `quarantined`) resolves the cell as resumed; every other cell
/// simulates. Every freshly decided cell — clean or quarantined — is
/// appended to the store as soon as it is known, so killing the process
/// loses at most the in-flight cells. This differs from the figure
/// drivers, which re-simulate quarantined records, so the campaign
/// keeps its own loop and shares only the plan and the prefab build.
///
/// `sabotage` deterministically injects failures for smoke testing;
/// pass `|_| Sabotage::None` in production.
///
/// Under telemetry it traces the resolve/build phases and each
/// simulated cell, streams one progress event per decided cell
/// (resumed / simulated / quarantined), and — when [`FlightOptions`] is
/// set — arms a crash flight recorder on every worker pool whose dump
/// is written out per failed cell and linked from
/// [`CellFailure::flight`].
///
/// A watchdog dump is frozen by the engine during the aborted run, so
/// the dumps drained right after a run belong to that cell. A panic
/// dump is frozen by a drop guard while the worker unwinds; each cell
/// marks the flight ring with its key text on entry, so a panic dump's
/// last `mark` event names its cell. Dumps are matched to failed cells
/// after the map ends.
///
/// The caller owns the telemetry lifecycle: this driver opens the
/// progress stream but never closes it ([`ProgressReporter::finish`]
/// stays with the CLI).
///
/// [`FlightOptions`]: crate::telemetry::FlightOptions
/// [`ProgressReporter::finish`]: harvest_obs::ProgressReporter::finish
///
/// # Panics
///
/// Panics if the grid is empty or `trials`/`plan.threads` is zero.
/// Panics *inside cells* (including sabotaged ones) are quarantined,
/// never propagated.
#[allow(clippy::too_many_lines)]
pub fn robustness_campaign<S>(
    config: &RobustnessConfig,
    plan: RunPlan<'_>,
    sabotage: S,
) -> CampaignReport
where
    S: Fn(&Cell) -> Sabotage + Sync,
{
    let RunPlan {
        threads,
        store,
        telemetry,
    } = plan;
    assert!(config.trials > 0, "need at least one trial");
    assert!(
        !config.intensities.is_empty(),
        "need at least one intensity"
    );
    assert!(!config.policies.is_empty(), "need at least one policy");
    assert!(!config.predictors.is_empty(), "need at least one predictor");
    let mut driver_sink = telemetry.sink(TID_DRIVER);
    let figure_start = driver_sink.as_ref().map(|s| s.start());

    // A store that degraded in an earlier campaign re-probes its
    // directory now: the failure may have been transient (disk full,
    // unmounted share) and a new campaign deserves a fresh attempt.
    if let Some(c) = store {
        c.reprobe();
    }

    let scenario_of = |intensity: f64, predictor: PredictorKind| {
        let mut s = PaperScenario::new(config.utilization, config.capacity)
            .with_predictor(predictor)
            .with_fault_intensity(intensity);
        s.horizon_units = config.horizon_units;
        s
    };

    // The grid, row-major: (row, predictor idx, policy idx, seed).
    let jobs: Vec<(usize, usize, usize, u64)> = (0..config.intensities.len())
        .flat_map(|row| {
            (0..config.predictors.len()).flat_map(move |pi| {
                (0..config.policies.len())
                    .flat_map(move |pj| (0..config.trials as u64).map(move |s| (row, pi, pj, s)))
            })
        })
        .collect();
    let keys: Vec<TrialKey> = jobs
        .iter()
        .map(|&(row, pi, pj, seed)| {
            scenario_of(config.intensities[row], config.predictors[pi])
                .trial_key(config.policies[pj], seed)
        })
        .collect();

    // Resolve: every cell the store already decided is resumed.
    let probe_start = driver_sink.as_ref().map(|s| s.start());
    let mut resolved: Vec<usize> = Vec::new();
    let mut outcomes: Vec<Option<CellOutcome>> = vec![None; jobs.len()];
    if let Some(s) = store {
        for (i, key) in keys.iter().enumerate() {
            if let Some(outcome) = s.decided(key) {
                outcomes[i] = Some(outcome);
                resolved.push(i);
            }
        }
    }
    let resumed = resolved.len() as u64;
    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();
    if let (Some(sink), Some(t)) = (driver_sink.as_mut(), probe_start) {
        sink.record_with(
            t,
            "resolve",
            CAT_PROBE,
            vec![
                ("cells".into(), jobs.len().to_string()),
                ("resumed".into(), resumed.to_string()),
            ],
        );
    }
    if let Some(progress) = &telemetry.progress {
        progress.start("fault-sweep", jobs.len() as u64, resumed, threads);
        for i in resolved {
            progress.cell(CellDecision::Resumed, keys[i].text(), 0);
        }
    }

    // Build: one prefab per seed still needing simulation.
    let mut prefabs: Vec<Option<TrialPrefab>> = vec![None; config.trials];
    build_prefabs(
        &scenario_of(0.0, config.predictors[0]),
        pending.iter().map(|&i| jobs[i].3),
        &mut prefabs,
        threads,
        &mut driver_sink,
    );

    // Freezes the flight ring while the worker unwinds, so the events
    // leading up to a panic survive into a post-map dump.
    struct PanicCapture(Option<harvest_obs::SharedFlightRecorder>);
    impl Drop for PanicCapture {
        fn drop(&mut self) {
            if std::thread::panicking() {
                if let Some(f) = &self.0 {
                    f.lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .capture("panic", 0);
                }
            }
        }
    }
    // Run: pending cells through quarantining pooled workers. Each
    // decided cell checkpoints into the store immediately. A work item
    // stays one cell, not the policy arms of one trial as in the figure
    // resolver, so a panic quarantines exactly that cell and each flight
    // dump pairs with one cell.
    let flight_opts = telemetry.flight.as_ref();
    let (computed, pools) = parallel_map_quarantined(
        pending.clone(),
        threads,
        |w| {
            let mut pool = SimPool::new();
            if let Some(opts) = flight_opts {
                pool.enable_flight(opts.capacity);
            }
            CampaignWorker {
                index: w,
                pool,
                sink: telemetry.sink(w as u32 + 1),
                dumps: Vec::new(),
            }
        },
        |w, i| {
            let (row, pi, pj, seed) = jobs[i];
            let cell = Cell {
                intensity: config.intensities[row],
                policy: config.policies[pj],
                predictor: config.predictors[pi],
                seed,
            };
            let scenario = scenario_of(cell.intensity, cell.predictor);
            let key = &keys[i];
            let cell_start = w.sink.as_ref().map(|s| s.start());
            let _panic_capture = PanicCapture(w.pool.flight().cloned());
            if let Some(f) = w.pool.flight() {
                f.lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .mark(key.text());
            }
            let watchdog = match sabotage(&cell) {
                Sabotage::Panic => panic!("injected sabotage: panic in cell {}", key.text()),
                Sabotage::Starve => Some(Watchdog::with_max_events(4)),
                Sabotage::None => config.watchdog,
            };
            let prefab = prefabs[seed as usize]
                .as_ref()
                .expect("prefab built for every pending seed");
            let result = scenario
                .try_run_arms_in(&mut w.pool, &[cell.policy], prefab, watchdog)
                .pop()
                .expect("one arm, one result");
            if let (Some(sink), Some(t)) = (w.sink.as_mut(), cell_start) {
                sink.record_with(
                    t,
                    "cell",
                    CAT_SIMULATE,
                    vec![("key".into(), key.text().to_owned())],
                );
            }
            // A panic dump drained here was left by an earlier cell on
            // this worker; every other dump belongs to this run.
            for dump in w.pool.take_flight_dumps() {
                let owner = match dump.reason.as_str() {
                    "panic" => marked_key(&dump),
                    _ => Some(key.text().to_owned()),
                };
                if let Some(owner) = owner {
                    w.dumps.push((owner, dump));
                }
            }
            let summary = TrialSummary::of(&result?);
            if let Some(s) = store {
                let _ = s.record_done(key, &summary);
            }
            telemetry.cell(CellDecision::Simulated, key.text(), w.index);
            Ok::<_, harvest_core::result::SimError>(summary)
        },
    );

    let mut exec = SweepExecStats {
        simulated: pending.len() as u64,
        ..SweepExecStats::default()
    };
    let mut queues = Vec::new();
    for w in &pools {
        exec.merge_pool(w.pool.stats());
        if let Some(qs) = w.pool.queue_stats() {
            queues.push(qs);
        }
    }
    // Batch-boundary durability barrier: every record the workers
    // appended is synced before the campaign reports its figures.
    if let Some(s) = store {
        s.barrier();
    }
    // Flight dumps by owning cell. A worker whose last cell panicked
    // still holds that cell's dump on its recorder.
    let mut dump_by_key: HashMap<String, FlightDump> = HashMap::new();
    for mut w in pools {
        for dump in w.pool.take_flight_dumps() {
            if let Some(owner) = marked_key(&dump) {
                dump_by_key.insert(owner, dump);
            }
        }
        dump_by_key.extend(w.dumps);
    }

    let mut quarantined = Vec::new();
    let quarantine = |i: usize, failure: CellFailure, quarantined: &mut Vec<QuarantineRecord>| {
        let job = jobs[i];
        let key = &keys[i];
        telemetry.cell(CellDecision::Quarantined, key.text(), failure.worker);
        if let Some(s) = store {
            let _ = s.record_quarantined(key, &failure);
        }
        quarantined.push(QuarantineRecord {
            key: key.text().to_owned(),
            policy: config.policies[job.2],
            seed: job.3,
            intensity: config.intensities[job.0],
            failure: failure.clone(),
        });
        CellOutcome::Quarantined(failure)
    };
    for (i, result) in pending.into_iter().zip(computed) {
        outcomes[i] = Some(match result {
            Ok(summary) => CellOutcome::Done(summary),
            Err(mut failure) => {
                if let (Some(dump), Some(opts)) = (dump_by_key.remove(keys[i].text()), flight_opts)
                {
                    failure.flight = write_flight_dump(&opts.dir, keys[i].text(), dump)
                        .ok()
                        .map(|p| p.display().to_string());
                }
                quarantine(i, failure, &mut quarantined)
            }
        });
    }

    // Aggregate: means over decided cells only.
    let pairs = config.predictors.len() * config.policies.len();
    let mut sums = vec![vec![0.0f64; pairs]; config.intensities.len()];
    let mut counts = vec![vec![0u64; pairs]; config.intensities.len()];
    for ((row, pi, pj, _), outcome) in jobs.into_iter().zip(outcomes) {
        let idx = pi * config.policies.len() + pj;
        if let Some(CellOutcome::Done(summary)) = outcome {
            sums[row][idx] += summary.miss_rate();
            counts[row][idx] += 1;
        }
    }
    let rows: Vec<RobustnessRow> = config
        .intensities
        .iter()
        .zip(sums.into_iter().zip(counts))
        .map(|(&intensity, (sum, decided))| RobustnessRow {
            intensity,
            miss_rates: sum
                .iter()
                .zip(&decided)
                .map(|(&s, &n)| if n == 0 { 0.0 } else { s / n as f64 })
                .collect(),
            decided,
        })
        .collect();

    // Quarantine checkpoints appended after the mid-campaign barrier
    // sync here; the recovery accounting they generated rides into the
    // final heartbeat.
    if let Some(s) = store {
        s.barrier();
    }
    if let Some(progress) = &telemetry.progress {
        progress.note_store_health(store.map(PackStore::io_health).unwrap_or_default());
    }

    if let (Some(sink), Some(t)) = (driver_sink.as_mut(), figure_start) {
        sink.record_with(
            t,
            "robustness-campaign",
            CAT_FIGURE,
            vec![("quarantined".into(), quarantined.len().to_string())],
        );
    }
    CampaignReport {
        figure: RobustnessFigure {
            utilization: config.utilization,
            capacity: config.capacity,
            policies: config.policies.clone(),
            predictors: config.predictors.clone(),
            rows,
            trials: config.trials,
        },
        quarantined,
        exec,
        resumed,
        queues,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> RobustnessConfig {
        RobustnessConfig {
            horizon_units: 2_000,
            intensities: vec![0.0, 1.0],
            policies: vec![PolicyKind::Lsa, PolicyKind::EaDvfs],
            predictors: vec![PredictorKind::Oracle],
            trials: 2,
            ..RobustnessConfig::default()
        }
    }

    #[test]
    fn faults_move_the_miss_rate() {
        let report = robustness_campaign(&small_config(), RunPlan::new(2), |_| Sabotage::None);
        let fig = &report.figure;
        assert_eq!(fig.rows.len(), 2);
        assert!(report.quarantined.is_empty());
        assert_eq!(report.exec.simulated, 2 * 2 * 2);
        for row in &fig.rows {
            for (&rate, &n) in row.miss_rates.iter().zip(&row.decided) {
                assert!((0.0..=1.0).contains(&rate));
                assert_eq!(n, 2, "every cell decided");
            }
        }
        let clean: f64 = fig.rows[0].miss_rates.iter().sum();
        let faulted: f64 = fig.rows[1].miss_rates.iter().sum();
        assert!(
            faulted >= clean,
            "full-intensity faults cannot reduce misses (clean {clean:.3}, faulted {faulted:.3})"
        );
        assert!(
            faulted > 0.0,
            "blackouts and lockouts at intensity 1 must cause misses"
        );
        // The figure digest is a pure function of the data.
        assert_eq!(fig.digest(), report.figure.digest());
    }

    #[test]
    fn sabotaged_cells_are_quarantined_not_fatal() {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let report = robustness_campaign(&small_config(), RunPlan::new(2), |cell| {
            if (cell.policy, cell.seed, cell.intensity) == (PolicyKind::Lsa, 0, 0.0) {
                Sabotage::Panic
            } else if (cell.policy, cell.seed, cell.intensity) == (PolicyKind::EaDvfs, 1, 1.0) {
                Sabotage::Starve
            } else {
                Sabotage::None
            }
        });
        std::panic::set_hook(hook);
        assert_eq!(report.quarantined.len(), 2, "exactly the sabotaged cells");
        let panicked = &report.quarantined[0];
        assert_eq!(panicked.policy, PolicyKind::Lsa);
        assert_eq!(panicked.seed, 0);
        assert!(panicked.failure.panicked);
        assert!(panicked.key.contains("|lsa|0"), "{}", panicked.key);
        let starved = &report.quarantined[1];
        assert_eq!(starved.policy, PolicyKind::EaDvfs);
        assert_eq!(starved.seed, 1);
        assert!(!starved.failure.panicked);
        assert!(
            starved.failure.message.contains("watchdog"),
            "{}",
            starved.failure.message
        );
        // Quarantined cells are excluded from the means, the rest decide.
        let fig = &report.figure;
        assert_eq!(fig.rows[0].decided[0], 1, "LSA row 0 lost one trial");
        assert_eq!(fig.rows[1].decided[1], 1, "EA-DVFS row 1 lost one trial");
        assert_eq!(fig.rows[0].decided[1], 2);
        // Queue stats from the surviving pools are reported.
        assert!(!report.queues.is_empty());
        assert!(report.exec.pool.runs > 0);
    }

    #[test]
    fn store_resume_skips_every_decided_cell() {
        let dir =
            std::env::temp_dir().join(format!("harvest-robustness-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = small_config();
        fn plan(store: &PackStore) -> RunPlan<'_> {
            RunPlan {
                store: Some(store),
                ..RunPlan::new(2)
            }
        }

        let store = PackStore::open(&dir).unwrap();
        let first = robustness_campaign(&config, plan(&store), |_| Sabotage::None);
        assert_eq!(first.resumed, 0);
        assert_eq!(first.exec.simulated, 8);
        drop(store);

        let store = PackStore::open(&dir).unwrap();
        assert_eq!(store.loaded(), 8);
        let second = robustness_campaign(&config, plan(&store), |_| Sabotage::None);
        assert_eq!(second.exec.simulated, 0, "nothing re-simulates");
        assert_eq!(second.exec.cached, 0, "store hits count as resumed");
        assert_eq!(second.resumed, 8);
        assert_eq!(
            second.figure.digest(),
            first.figure.digest(),
            "resumed figure is bit-identical"
        );
        assert_eq!(store.len(), 8, "a resume appends nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
