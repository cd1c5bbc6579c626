//! The cell resolver under the three fault-free figure drivers (Figs.
//! 6–9 and Table 1's capacity search), and the prefab build it shares
//! with the robustness campaign.
//!
//! A figure sweep resolves a cell from the store's `done` record when
//! there is one and re-simulates everything else, quarantined records
//! included. A robustness campaign instead resumes every decided
//! record, quarantined ones too (DESIGN §10.3), so it keeps its own
//! loop and shares only [`build_prefabs`].

use std::collections::HashMap;

use harvest_obs::progress::CellDecision;
use harvest_obs::span::{SpanSink, CAT_BUILD, CAT_PROBE, CAT_SIMULATE, CAT_STORE, TID_DRIVER};

use super::{RunPlan, SweepExecStats};
use crate::cache::{TrialKey, TrialSummary};
use crate::parallel::{parallel_map, parallel_map_with};
use crate::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};
use crate::store::TrialStore;

/// One cell of a figure grid: the scenario, the policy, the trial seed.
pub(super) type GridCell = (PaperScenario, PolicyKind, u64);

/// Groups the `pending` cells into work items, one per `(scenario,
/// seed)`, in order of first appearance: the policy arms of one trial,
/// which [`PaperScenario::run_arms_in`] simulates together.
fn work_items(cells: &[GridCell], pending: &[usize]) -> Vec<Vec<usize>> {
    let mut scenarios: Vec<&PaperScenario> = Vec::new();
    let mut item_of: HashMap<(usize, u64), usize> = HashMap::new();
    let mut items: Vec<Vec<usize>> = Vec::new();
    for &i in pending {
        let (scenario, _, seed) = &cells[i];
        // A grid holds a handful of scenarios, and its cells come in
        // runs of one scenario: search from the latest.
        let s = match scenarios.iter().rposition(|&known| known == scenario) {
            Some(s) => s,
            None => {
                scenarios.push(scenario);
                scenarios.len() - 1
            }
        };
        let item = *item_of.entry((s, *seed)).or_insert_with(|| {
            items.push(Vec::new());
            items.len() - 1
        });
        items[item].push(i);
    }
    items
}

/// Builds the prefab of every seed in `seeds` that `prefabs` still
/// lacks, over the plan's workers, under one `build` span on `sink`,
/// and returns how many prefabs `prefabs` then holds: the caller's
/// [`SweepExecStats::prefabs_high_water`] candidate.
///
/// A trial's solar realization and task set depend on the seed but not
/// on the capacity, policy, predictor or fault intensity, so one prefab
/// serves every cell of its seed.
pub(super) fn build_prefabs(
    base: &PaperScenario,
    seeds: impl IntoIterator<Item = u64>,
    prefabs: &mut [Option<TrialPrefab>],
    threads: usize,
    sink: &mut Option<SpanSink>,
) -> u64 {
    let mut needed: Vec<u64> = seeds
        .into_iter()
        .filter(|&seed| prefabs[seed as usize].is_none())
        .collect();
    needed.sort_unstable();
    needed.dedup();
    let start = sink.as_ref().map(SpanSink::start);
    let built = parallel_map(needed.clone(), threads, |seed| base.prefab(seed));
    if let (Some(sink), Some(t)) = (sink.as_mut(), start) {
        sink.record_with(
            t,
            "build",
            CAT_BUILD,
            vec![("prefabs".into(), needed.len().to_string())],
        );
    }
    for (seed, prefab) in needed.into_iter().zip(built) {
        prefabs[seed as usize] = Some(prefab);
    }
    prefabs.iter().filter(|p| p.is_some()).count() as u64
}

/// Resolves the cell grids of one figure-driver call against its
/// [`RunPlan`], keeping the prefabs built so far and the running
/// [`SweepExecStats`] across grids (a capacity search resolves one grid
/// per probed capacity).
pub(super) struct CellResolver<'p> {
    plan: RunPlan<'p>,
    /// The scenario whose `prefab(seed)` serves every cell.
    base: PaperScenario,
    /// Prefabs by seed, built on the first grid that needs them.
    prefabs: Vec<Option<TrialPrefab>>,
    /// The driver track of the span trace.
    sink: Option<SpanSink>,
    stats: SweepExecStats,
}

impl<'p> CellResolver<'p> {
    /// A resolver for seeds `0..trials`, building prefabs from `base`.
    pub(super) fn new(plan: RunPlan<'p>, base: PaperScenario, trials: usize) -> Self {
        CellResolver {
            plan,
            base,
            prefabs: vec![None; trials],
            sink: plan.telemetry.sink(TID_DRIVER),
            stats: SweepExecStats::default(),
        }
    }

    /// Resolves `cells` to their summaries, in order.
    ///
    /// Probes the whole grid in one `probe_many` batch, builds the
    /// prefabs the unanswered cells need (never for a seed the store
    /// fully answered), simulates those cells on pooled workers and
    /// writes their summaries back to the store. A work item is the
    /// unanswered policy arms of one `(scenario, seed)`, simulated
    /// together; store writes and progress events stay per cell, and
    /// the item's `cell` span lists all of its keys.
    pub(super) fn resolve(&mut self, cells: &[GridCell]) -> Vec<TrialSummary> {
        let RunPlan {
            threads,
            store,
            telemetry,
        } = self.plan;
        let probe_start = self.sink.as_ref().map(SpanSink::start);
        // Keys are only needed to talk to the store or an observer.
        let keys: Vec<TrialKey> = if store.is_some() || !telemetry.is_off() {
            cells
                .iter()
                .map(|(scenario, policy, seed)| scenario.trial_key(*policy, *seed))
                .collect()
        } else {
            Vec::new()
        };
        let mut summaries = match store {
            Some(store) => store.probe_many(&keys),
            None => vec![None; cells.len()],
        };
        if let (Some(sink), Some(t)) = (self.sink.as_mut(), probe_start) {
            sink.record_with(
                t,
                "probe",
                CAT_PROBE,
                vec![("cells".into(), cells.len().to_string())],
            );
        }
        let pending: Vec<usize> = (0..cells.len())
            .filter(|&i| summaries[i].is_none())
            .collect();
        self.stats.simulated += pending.len() as u64;
        self.stats.cached += (cells.len() - pending.len()) as u64;
        if telemetry.progress.is_some() {
            for (key, summary) in keys.iter().zip(&summaries) {
                if summary.is_some() {
                    telemetry.cell(CellDecision::Hit, key.text(), 0);
                }
            }
        }

        let held = build_prefabs(
            &self.base,
            pending.iter().map(|&i| cells[i].2),
            &mut self.prefabs,
            threads,
            &mut self.sink,
        );
        self.stats.prefabs_high_water = self.stats.prefabs_high_water.max(held);
        let prefabs = &self.prefabs;
        let (computed, pools) = parallel_map_with(
            work_items(cells, &pending),
            threads,
            |w| (w, SimPool::new(), telemetry.sink(w as u32 + 1)),
            |(worker, pool, sink), item: Vec<usize>| {
                let (scenario, _, seed) = &cells[item[0]];
                let prefab = prefabs[*seed as usize]
                    .as_ref()
                    .expect("prefab built for every pending seed");
                let policies: Vec<PolicyKind> = item.iter().map(|&i| cells[i].1).collect();
                let cell_start = sink.as_ref().map(SpanSink::start);
                let results = scenario.run_arms_in(pool, &policies, prefab);
                if let (Some(sink), Some(t), false) = (sink.as_mut(), cell_start, keys.is_empty()) {
                    let texts: Vec<&str> = item.iter().map(|&i| keys[i].text()).collect();
                    sink.record_with(
                        t,
                        "cell",
                        CAT_SIMULATE,
                        vec![("key".into(), texts.join(" "))],
                    );
                }
                item.into_iter()
                    .zip(results)
                    .map(|(i, result)| {
                        let summary = TrialSummary::of(&result);
                        let key = keys.get(i);
                        if let (Some(store), Some(key)) = (store, key) {
                            let store_start = sink.as_ref().map(SpanSink::start);
                            store.store(key, &summary);
                            if let (Some(sink), Some(t)) = (sink.as_mut(), store_start) {
                                sink.record(t, "store", CAT_STORE);
                            }
                        }
                        if let Some(key) = key {
                            telemetry.cell(CellDecision::Simulated, key.text(), *worker);
                        }
                        (i, summary)
                    })
                    .collect::<Vec<_>>()
            },
        );
        for (_, pool, _) in &pools {
            self.stats.merge_pool(pool.stats());
        }
        for (i, summary) in computed.into_iter().flatten() {
            summaries[i] = Some(summary);
        }
        summaries
            .into_iter()
            .map(|s| s.expect("every cell resolved"))
            .collect()
    }

    /// Ends the driver call: a store barrier syncs every record it
    /// appended, then the call's execution stats are returned.
    pub(super) fn finish(self) -> SweepExecStats {
        if let Some(store) = self.plan.store {
            store.barrier();
        }
        self.stats
    }
}
