//! The Fig. 8/9 workloads: the miss-rate grid run cold (scalar or
//! policy-lockstep) and re-assembled warm from a filled pack store.
//!
//! Both follow `miss_rate_figure_grouped`: probe → build → run → store →
//! assemble, over the grid capacity × policy × seed in the library's
//! order, and render the figure exactly as `exp sweep` does, so
//! [`Report::figure_fnv64`](crate::Report::figure_fnv64) equals the
//! `figure_fnv64` it prints for the same grid.

use std::collections::BTreeSet;
use std::ops::Range;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

use harvest_exp::cache::{fnv1a64, TrialKey, TrialSummary};
use harvest_exp::figures::{MissRateFigure, MissRateRow};
use harvest_exp::parallel::{parallel_map, parallel_map_with};
use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};
use harvest_exp::store::{PackStore, TrialStore};
use harvest_obs::span::{CAT_PROBE, CAT_SIMULATE};

use crate::trace::{closed_loop, timed, Layer, Phase, Tracer};
use crate::work::{Replayer, WorkCounts};
use crate::{
    build_prefabs, Campaign, Options, Report, StoreFacts, POLICIES, REPLAY_EVERY, THREADS,
};

/// The Figs. 8–9 capacity sweep (`exp`'s `sweep_capacities`).
pub const CAPACITIES: [f64; 12] = [
    50.0, 100.0, 200.0, 300.0, 500.0, 750.0, 1000.0, 1500.0, 2000.0, 3000.0, 4000.0, 5000.0,
];

/// Seeds sampled by the work replay.
const REPLAY_SEEDS: usize = 10;

/// Largest seed block of the timed phases' op order.
const OP_BLOCK: usize = 10;

/// The miss-rate grid: capacity × policy × seed, capacity-major, then
/// policy, then seed — the order `miss_rate_figure_grouped` uses.
#[derive(Debug, Clone, Copy)]
pub struct MissGrid {
    /// Workload utilization.
    pub utilization: f64,
    /// First seed.
    pub seed_base: u64,
    /// Seeds per (capacity, policy) point.
    pub seeds: usize,
}

impl MissGrid {
    /// Cells in the grid.
    pub fn len(&self) -> usize {
        CAPACITIES.len() * POLICIES.len() * self.seeds
    }

    /// Cell `i` as (capacity index, policy index, seed index).
    pub fn cell(&self, i: usize) -> (usize, usize, usize) {
        let s = i % self.seeds;
        let pi = (i / self.seeds) % POLICIES.len();
        let ci = i / (self.seeds * POLICIES.len());
        (ci, pi, s)
    }

    /// Index of cell (capacity index, policy index, seed index).
    pub fn index(&self, ci: usize, pi: usize, s: usize) -> usize {
        (ci * POLICIES.len() + pi) * self.seeds + s
    }

    /// The scenario at capacity index `ci`.
    pub fn scenario(&self, ci: usize) -> PaperScenario {
        PaperScenario::new(self.utilization, CAPACITIES[ci])
    }

    /// The seed of seed index `s`.
    pub fn seed(&self, s: usize) -> u64 {
        self.seed_base + s as u64
    }

    /// The store key of cell `i`.
    pub fn key(&self, i: usize) -> TrialKey {
        let (ci, pi, s) = self.cell(i);
        self.scenario(ci).trial_key(POLICIES[pi], self.seed(s))
    }

    /// Assembles the figure from per-cell summaries in grid order,
    /// summing each point's seeds in the library's order so the result
    /// is bit-identical.
    pub fn figure<'a>(
        &self,
        summaries: impl IntoIterator<Item = &'a TrialSummary>,
    ) -> MissRateFigure {
        let max = CAPACITIES[CAPACITIES.len() - 1];
        let mut rows: Vec<MissRateRow> = CAPACITIES
            .iter()
            .map(|&c| MissRateRow {
                capacity: c,
                normalized_capacity: c / max,
                miss_rates: vec![0.0; POLICIES.len()],
            })
            .collect();
        for (i, summary) in summaries.into_iter().enumerate() {
            let (ci, pi, _) = self.cell(i);
            rows[ci].miss_rates[pi] += summary.miss_rate() / self.seeds as f64;
        }
        MissRateFigure {
            utilization: self.utilization,
            policies: POLICIES.to_vec(),
            rows,
            trials: self.seeds,
        }
    }

    /// Seeds per block of the timed phases' op order: the largest
    /// divisor of `seeds` up to [`OP_BLOCK`].
    pub fn block(&self) -> usize {
        (1..=OP_BLOCK)
            .rev()
            .find(|&b| self.seeds.is_multiple_of(b))
            .unwrap_or(1)
    }

    /// Seed indices the work replay samples: about [`REPLAY_SEEDS`],
    /// evenly strided.
    fn replay_seeds(&self) -> impl Iterator<Item = usize> {
        (0..self.seeds).step_by(self.seeds.div_ceil(REPLAY_SEEDS))
    }
}

/// `fnv1a64` of the figure's JSON, as `exp sweep` prints it.
pub fn figure_fnv64(figure: &MissRateFigure) -> u64 {
    let json = serde_json::to_string(figure).expect("figure serialization is infallible");
    fnv1a64(json.as_bytes())
}

/// Keeps the first summary of every cell and flags any later op whose
/// summary differs from it.
fn record(slots: &[OnceLock<TrialSummary>], i: usize, summary: TrialSummary) -> Result<(), String> {
    if let Err(summary) = slots[i].set(summary) {
        if slots[i].get() != Some(&summary) {
            return Err(format!("cell {i} changed between runs"));
        }
    }
    Ok(())
}

/// Replays `cells` through the unpooled, untaped `run_prefab` and
/// returns one message per cell whose summary differs from `expected`.
fn reference_check(
    grid: &MissGrid,
    prefabs: &[TrialPrefab],
    cells: Vec<usize>,
    expected: impl Fn(usize) -> Option<TrialSummary> + Sync,
) -> Vec<String> {
    parallel_map(cells, THREADS, |i| {
        let (ci, pi, s) = grid.cell(i);
        let reference = TrialSummary::of(&grid.scenario(ci).run_prefab(POLICIES[pi], &prefabs[s]));
        match expected(i) {
            Some(summary) if summary == reference => None,
            Some(_) => Some(format!("cell {i}: pooled run differs from run_prefab")),
            None => Some(format!("cell {i}: no result to check")),
        }
    })
    .into_iter()
    .flatten()
    .collect()
}

/// `fig9-cold` (scalar, U = 0.8) and `fig8-lockstep` (two-arm lockstep
/// batches, U = 0.4): the grid simulated with no store. An op is one
/// cell, or one batch of both policy arms of a (capacity, seed) point.
pub struct Cold {
    grid: MissGrid,
    lockstep: bool,
    prefabs: Vec<TrialPrefab>,
    results: Vec<OnceLock<TrialSummary>>,
    /// Pass-relative op indices picked for the reference replay.
    picked: Mutex<BTreeSet<usize>>,
}

impl Cold {
    /// The campaign for `opts`; `lockstep` picks `fig8-lockstep`.
    pub fn new(opts: &Options, lockstep: bool) -> Self {
        let grid = MissGrid {
            utilization: if lockstep { 0.4 } else { 0.8 },
            seed_base: opts.seed_base,
            seeds: opts.seeds,
        };
        Cold {
            grid,
            lockstep,
            prefabs: Vec::new(),
            results: Vec::new(),
            picked: Mutex::new(BTreeSet::new()),
        }
    }

    /// Policy arms per op: both in a lockstep batch, one otherwise.
    fn arms(&self) -> usize {
        if self.lockstep {
            POLICIES.len()
        } else {
            1
        }
    }

    /// Ops per pass over the grid.
    fn ops_per_pass(&self) -> usize {
        self.grid.len() / self.arms()
    }

    /// The (capacity index, policy indices, seed index) of pass-relative
    /// op `r`. Ops walk the seeds in blocks of [`MissGrid::block`]
    /// seeds, each block covering every capacity and policy before the
    /// next starts, so any stretch of ops — such as the one a timed
    /// phase ends in — is an even mix of the grid's capacities.
    fn op_point(&self, r: usize) -> (usize, Range<usize>, usize) {
        let (b, arms) = (self.grid.block(), self.arms());
        let per_point = POLICIES.len() / arms;
        let per_block = CAPACITIES.len() * per_point * b;
        let (block, q) = (r / per_block, r % per_block);
        let p = (q / b) % per_point;
        (
            q / (per_point * b),
            p * arms..(p + 1) * arms,
            block * b + q % b,
        )
    }

    /// Grid cells of pass-relative op `r`.
    fn op_cells(&self, r: usize) -> Vec<usize> {
        let (ci, pis, s) = self.op_point(r);
        pis.map(|pi| self.grid.index(ci, pi, s)).collect()
    }

    fn op(&self, pool: &mut SimPool, k: u64, tr: Option<&Tracer>) -> Result<u64, String> {
        let r = (k % self.ops_per_pass() as u64) as usize;
        if k.is_multiple_of(REPLAY_EVERY) {
            self.picked.lock().expect("replay set lock").insert(r);
        }
        let (ci, pis, s) = self.op_point(r);
        let scenario = self.grid.scenario(ci);
        let prefab = &self.prefabs[s];
        let results = if self.lockstep {
            let arms: Vec<(PolicyKind, &TrialPrefab)> =
                pis.clone().map(|pi| (POLICIES[pi], prefab)).collect();
            timed(tr, Layer::Batch, arms.len() as u64, || {
                scenario.run_arms_batched_in(pool, &arms)
            })
        } else {
            let policy = POLICIES[pis.start];
            vec![timed(tr, Layer::Run, 1, || {
                scenario.run_prefab_in(pool, policy, prefab)
            })]
        };
        for (pi, result) in pis.zip(&results) {
            let summary = timed(tr, Layer::Summary, 1, || TrialSummary::of(result));
            if let Some(t) = tr {
                t.add_events(result.events);
            }
            record(&self.results, self.grid.index(ci, pi, s), summary)?;
        }
        Ok(results.len() as u64)
    }
}

impl Campaign for Cold {
    fn setup(&mut self, tr: Option<&Tracer>) -> Result<(), String> {
        // Drop the previous set-up's inputs first, so repeated set-ups
        // do not raise the memory high-water mark.
        self.prefabs.clear();
        let seeds = (0..self.grid.seeds).map(|s| self.grid.seed(s)).collect();
        self.prefabs = build_prefabs(&self.grid.scenario(CAPACITIES.len() - 1), seeds, tr);
        self.results = (0..self.grid.len()).map(|_| OnceLock::new()).collect();
        Ok(())
    }

    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Phase {
        let span = if self.lockstep { "batch" } else { "cell" };
        closed_loop(budget, tr, span, CAT_SIMULATE, SimPool::new, |pool, k| {
            self.op(pool, k, tr)
        })
    }

    fn check(&mut self, report: &mut Report) {
        // Cells the timed phases never reached (a short run) are
        // simulated now, untimed, so the figure is always complete.
        let missing: Vec<usize> = (0..self.grid.len())
            .filter(|&i| self.results[i].get().is_none())
            .collect();
        let (computed, _) = parallel_map_with(
            missing.clone(),
            THREADS,
            |_| SimPool::new(),
            |pool, i| {
                let (ci, pi, s) = self.grid.cell(i);
                TrialSummary::of(&self.grid.scenario(ci).run_prefab_in(
                    pool,
                    POLICIES[pi],
                    &self.prefabs[s],
                ))
            },
        );
        for (i, summary) in missing.into_iter().zip(computed) {
            let _ = self.results[i].set(summary);
        }
        let picked: Vec<usize> = std::mem::take(&mut *self.picked.lock().expect("replay set lock"))
            .into_iter()
            .flat_map(|r| self.op_cells(r))
            .collect();
        let results = &self.results;
        for failure in reference_check(&self.grid, &self.prefabs, picked, |i| {
            results[i].get().cloned()
        }) {
            report.fail(failure);
        }
        let figure = self.grid.figure(
            self.results
                .iter()
                .map(|s| s.get().expect("every cell resolved")),
        );
        let digest = figure_fnv64(&figure);
        report.figure_fnv64 = Some(digest);
        report.lines.push(format!("# figure_fnv64={digest:016x}"));
    }

    fn replay(&self) -> Result<WorkCounts, String> {
        let mut replayer = Replayer::new();
        for s in self.grid.replay_seeds() {
            let prefab = &self.prefabs[s];
            for ci in 0..CAPACITIES.len() {
                let scenario = self.grid.scenario(ci);
                if self.lockstep {
                    replayer.lockstep(&scenario, &POLICIES, prefab)?;
                } else {
                    for policy in POLICIES {
                        replayer.scalar(&scenario, policy, prefab)?;
                    }
                }
            }
        }
        Ok(replayer.finish())
    }

    fn store_facts(&self) -> StoreFacts {
        StoreFacts::default()
    }
}

/// `fig9-warm`: set-up fills a fresh pack store with the Fig. 9 grid;
/// an op is one warm re-run — open → build every key → `probe_many` →
/// assemble and digest the figure → drop, as `exp sweep --store DIR
/// --expect-warm` does.
pub struct Warm {
    grid: MissGrid,
    dir: PathBuf,
    prefabs: Vec<TrialPrefab>,
    fill: Vec<TrialSummary>,
    fill_digest: Option<u64>,
    setup_failures: Vec<String>,
    hits: AtomicU64,
    probes: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
}

impl Warm {
    /// The campaign for `opts`.
    pub fn new(opts: &Options) -> Self {
        Warm {
            grid: MissGrid {
                utilization: 0.8,
                seed_base: opts.seed_base,
                seeds: opts.seeds,
            },
            dir: opts.work_dir.join("fill"),
            prefabs: Vec::new(),
            fill: Vec::new(),
            fill_digest: None,
            setup_failures: Vec::new(),
            hits: AtomicU64::new(0),
            probes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    fn rerun(&self, tr: Option<&Tracer>) -> Result<u64, String> {
        let grid = &self.grid;
        let n = grid.len();
        let store = timed(tr, Layer::Open, 1, || PackStore::open(&self.dir))
            .map_err(|e| format!("open store: {e}"))?;
        let keys: Vec<TrialKey> = timed(tr, Layer::Key, n as u64, || {
            (0..n).map(|i| grid.key(i)).collect()
        });
        let probed = timed(tr, Layer::Probe, n as u64, || store.probe_many(&keys));
        let hits = probed.iter().flatten().count();
        let digest = timed(tr, Layer::Assemble, 1, || {
            (hits == n).then(|| figure_fnv64(&grid.figure(probed.iter().flatten())))
        });
        let health = store.io_health();
        timed(tr, Layer::Close, 1, || drop(store));
        self.hits.fetch_add(hits as u64, Ordering::Relaxed);
        self.probes.fetch_add(n as u64, Ordering::Relaxed);
        self.retries.fetch_add(health.retries, Ordering::Relaxed);
        self.degraded.fetch_add(health.degraded, Ordering::Relaxed);
        if health.degraded > 0 {
            return Err(format!("store degraded: {health:?}"));
        }
        match digest {
            None => Err(format!("warm re-run missed {} of {n} cells", n - hits)),
            Some(d) if Some(d) != self.fill_digest => {
                Err(format!("warm digest {d:016x} differs from the fill's"))
            }
            Some(_) => Ok(n as u64),
        }
    }
}

impl Campaign for Warm {
    fn setup(&mut self, tr: Option<&Tracer>) -> Result<(), String> {
        self.prefabs.clear();
        let _ = std::fs::remove_dir_all(&self.dir);
        let grid = self.grid;
        let seeds = (0..grid.seeds).map(|s| grid.seed(s)).collect();
        self.prefabs = build_prefabs(&grid.scenario(CAPACITIES.len() - 1), seeds, tr);
        let store = PackStore::open(&self.dir).map_err(|e| format!("open store: {e}"))?;
        let keys: Vec<TrialKey> = (0..grid.len()).map(|i| grid.key(i)).collect();
        let pending: Vec<usize> = store
            .probe_many(&keys)
            .iter()
            .enumerate()
            .filter_map(|(i, hit)| hit.is_none().then_some(i))
            .collect();
        if pending.len() != grid.len() {
            return Err("a fresh store answered a probe".into());
        }
        let prefabs = &self.prefabs;
        let (fill, _) = parallel_map_with(
            pending,
            THREADS,
            |_| SimPool::new(),
            |pool, i| {
                let (ci, pi, s) = grid.cell(i);
                let summary = TrialSummary::of(&grid.scenario(ci).run_prefab_in(
                    pool,
                    POLICIES[pi],
                    &prefabs[s],
                ));
                store.store(&keys[i], &summary);
                summary
            },
        );
        let health = store.io_health();
        drop(store);
        if health.degraded > 0 {
            return Err(format!("fill store degraded: {health:?}"));
        }
        let digest = figure_fnv64(&grid.figure(&fill));
        if let Some(first) = self.fill_digest.filter(|&d| d != digest) {
            self.setup_failures.push(format!(
                "fill digest {digest:016x} differs from the previous fill's {first:016x}"
            ));
        }
        self.fill_digest = Some(digest);
        self.fill = fill;
        Ok(())
    }

    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Phase {
        closed_loop(budget, tr, "rerun", CAT_PROBE, || (), |_, _| self.rerun(tr))
    }

    fn check(&mut self, report: &mut Report) {
        for failure in self.setup_failures.drain(..) {
            report.fail(failure);
        }
        let picked: Vec<usize> = (0..self.grid.len())
            .step_by(REPLAY_EVERY as usize)
            .collect();
        let fill = &self.fill;
        for failure in reference_check(&self.grid, &self.prefabs, picked, |i| fill.get(i).cloned())
        {
            report.fail(failure);
        }
        let digest = self.fill_digest.expect("set-up ran");
        report.figure_fnv64 = Some(digest);
        report
            .lines
            .push(format!("# figure_fnv64={digest:016x} (fill)"));
    }

    fn replay(&self) -> Result<WorkCounts, String> {
        // A warm re-run simulates nothing: no engine work to count.
        Ok(WorkCounts::default())
    }

    fn store_facts(&self) -> StoreFacts {
        let stat = PackStore::stat(&self.dir).ok();
        StoreFacts {
            hits: self.hits.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            bytes: stat.map_or(0, |s| s.bytes),
            records: stat.map_or(0, |s| s.records as u64),
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}
