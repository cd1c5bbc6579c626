//! `table1-search`: the Table 1 capacity searches, the write side of the
//! pack store.
//!
//! Follows `min_zero_miss_capacity_cached` step for step: for each
//! utilization and policy, double the capacity from 100 until every seed
//! runs miss-free (giving up above 1e7), then bisect down to a relative
//! tolerance of 0.005. Each probed capacity is one op — a step: build
//! the seeds' keys, `probe_many` them against the search's store, and
//! simulate the misses in a `parallel_map_with` whose workers append
//! each summary. Every search writes one fresh `PackStore::open` store,
//! dropped when the search ends, so every probe misses.
//!
//! Two departures from the library, neither of which changes a searched
//! capacity or `C_min`: prefabs are built in set-up and shared by both
//! policies' searches of a utilization (the library builds them lazily
//! per search), and the eight searches of a pass advance round-robin
//! (the library runs them one after another).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use harvest_exp::cache::{TrialKey, TrialSummary};
use harvest_exp::parallel::{parallel_map, parallel_map_with};
use harvest_exp::scenario::{PaperScenario, SimPool, TrialPrefab};
use harvest_exp::store::{PackStore, TrialStore};
use harvest_obs::span::{CAT_SIMULATE, CAT_STORE};

use crate::trace::{guarded, timed, Layer, Phase, Tracer, TID_DRIVER};
use crate::work::{Replayer, WorkCounts};
use crate::{
    build_prefabs, Campaign, Options, Report, StoreFacts, POLICIES, REPLAY_EVERY, THREADS,
};

/// Table 1's utilizations.
pub const UTILIZATIONS: [f64; 4] = [0.2, 0.4, 0.6, 0.8];
/// First capacity of the doubling phase.
pub const START_CAPACITY: f64 = 100.0;
/// Above this the search gives up and reports infinity.
pub const MAX_CAPACITY: f64 = 1e7;
/// Bisection stops when `hi - lo <= REL_TOL * hi`.
pub const REL_TOL: f64 = 0.005;

/// Seeds sampled by the work replay at each step.
const REPLAY_SEEDS: usize = 4;

/// One probed capacity of a search.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Step {
    /// Index into [`UTILIZATIONS`].
    ui: usize,
    /// Index into [`POLICIES`].
    pi: usize,
    capacity: f64,
}

/// Cells of a step picked for the reference replay.
struct Picked {
    step: Step,
    fresh: Vec<(usize, TrialSummary)>,
}

/// A search in progress within a pass.
struct Running {
    ui: usize,
    pi: usize,
    bracket: Bracket,
    /// The search's fresh store and its directory, until it finishes.
    store: Option<(PackStore, PathBuf)>,
    answer: Option<f64>,
}

/// What a search does next.
enum Next {
    Probe(f64),
    Done(f64),
}

/// A search's bracket, advanced one step at a time: double `hi` from
/// [`START_CAPACITY`] until miss-free (giving up above [`MAX_CAPACITY`]),
/// then bisect while `hi - lo > REL_TOL * hi` — the arithmetic of
/// `min_zero_miss_capacity_cached`, step for step.
#[derive(Debug, Clone, Copy)]
struct Bracket {
    lo: f64,
    hi: f64,
    bisecting: bool,
    gave_up: bool,
}

impl Default for Bracket {
    fn default() -> Self {
        Bracket {
            lo: 0.0,
            hi: START_CAPACITY,
            bisecting: false,
            gave_up: false,
        }
    }
}

impl Bracket {
    fn next(&self) -> Next {
        if self.gave_up {
            Next::Done(f64::INFINITY)
        } else if !self.bisecting {
            Next::Probe(self.hi)
        } else if self.hi - self.lo > REL_TOL * self.hi {
            Next::Probe(0.5 * (self.lo + self.hi))
        } else {
            Next::Done(self.hi)
        }
    }

    fn observe(&mut self, capacity: f64, miss_free: bool) {
        if !self.bisecting {
            if miss_free {
                self.bisecting = true;
            } else {
                self.lo = self.hi;
                self.hi *= 2.0;
                self.gave_up = self.hi > MAX_CAPACITY;
            }
        } else if miss_free {
            self.hi = capacity;
        } else {
            self.lo = capacity;
        }
    }
}

/// The `table1-search` campaign.
pub struct Search {
    seed_base: u64,
    seeds: usize,
    root: PathBuf,
    /// One prefab per seed, per utilization.
    prefabs: Vec<Vec<TrialPrefab>>,
    /// Stores opened so far; names each store directory uniquely.
    stores: AtomicU64,
    /// `C_min` per search of the first complete pass, and its steps.
    reference: Mutex<Option<(Vec<f64>, Vec<Step>)>>,
    /// Later passes' `C_min` that differed from the reference.
    mismatches: Mutex<Vec<String>>,
    picked: Mutex<Vec<Picked>>,
    probes: AtomicU64,
    hits: AtomicU64,
    bytes: AtomicU64,
    records: AtomicU64,
    retries: AtomicU64,
    degraded: AtomicU64,
}

impl Search {
    /// The campaign for `opts`.
    pub fn new(opts: &Options) -> Self {
        Search {
            seed_base: opts.seed_base,
            seeds: opts.seeds,
            root: opts.work_dir.join("table1"),
            prefabs: Vec::new(),
            stores: AtomicU64::new(0),
            reference: Mutex::new(None),
            mismatches: Mutex::new(Vec::new()),
            picked: Mutex::new(Vec::new()),
            probes: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            records: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    fn seed(&self, s: usize) -> u64 {
        self.seed_base + s as u64
    }

    /// One step: is every seed miss-free at `step.capacity`?
    fn step(&self, store: &PackStore, step: Step, pick: bool, tr: Option<&Tracer>) -> bool {
        let step_start = Instant::now();
        let scenario = PaperScenario::new(UTILIZATIONS[step.ui], step.capacity);
        let policy = POLICIES[step.pi];
        let n = self.seeds;
        let keys: Vec<TrialKey> = timed(tr, Layer::Key, n as u64, || {
            (0..n)
                .map(|s| scenario.trial_key(policy, self.seed(s)))
                .collect()
        });
        let probed = timed(tr, Layer::Probe, n as u64, || store.probe_many(&keys));
        self.probes.fetch_add(n as u64, Ordering::Relaxed);
        self.hits
            .fetch_add(probed.iter().flatten().count() as u64, Ordering::Relaxed);
        let pending: Vec<usize> = (0..n).filter(|&s| probed[s].is_none()).collect();
        let prefabs = &self.prefabs[step.ui];
        let map_start = Instant::now();
        let (fresh, _pools) = parallel_map_with(
            pending.clone(),
            THREADS,
            |w| (SimPool::new(), tr.map(|t| t.sink(w as u32 + 1))),
            |(pool, sink), s| {
                let t0 = Instant::now();
                let span = sink.as_ref().map(|k| k.start());
                let result = timed(tr, Layer::Run, 1, || {
                    scenario.run_prefab_in(pool, policy, &prefabs[s])
                });
                let summary = timed(tr, Layer::Summary, 1, || TrialSummary::of(&result));
                let key = timed(tr, Layer::Key, 1, || {
                    scenario.trial_key(policy, self.seed(s))
                });
                timed(tr, Layer::Append, 1, || store.store(&key, &summary));
                if let Some(t) = tr {
                    t.add_events(result.events);
                    t.add_slot_busy(t0.elapsed());
                }
                if let (Some(sink), Some(span)) = (sink.as_mut(), span) {
                    sink.record(span, "cell", CAT_SIMULATE);
                }
                summary
            },
        );
        let map_end = Instant::now();
        let all_free = probed.iter().flatten().all(TrialSummary::is_miss_free)
            && fresh.iter().all(TrialSummary::is_miss_free);
        if pick {
            self.picked.lock().expect("replay list lock").push(Picked {
                step,
                fresh: pending.into_iter().zip(fresh).collect(),
            });
        }
        if let Some(t) = tr {
            // The driver's share of the step: everything outside the map.
            t.add_slot_busy((map_start - step_start) + map_end.elapsed());
        }
        all_free
    }

    /// Runs passes over all searches until `deadline` (one full pass
    /// when `None`), recording each step as an op of `phase`. A pass
    /// opens one fresh store per search and interleaves the searches
    /// round-robin, one step each, so any stretch of steps is an even
    /// mix of utilizations and policies; each search's own steps are
    /// those `min_zero_miss_capacity_cached` takes.
    fn passes(&self, deadline: Option<Instant>, tr: Option<&Tracer>, phase: &mut Phase) {
        let mut driver = tr.map(|t| t.sink(TID_DRIVER));
        let mut k = 0u64;
        loop {
            let mut searches = Vec::new();
            for ui in 0..UTILIZATIONS.len() {
                for pi in 0..POLICIES.len() {
                    let id = self.stores.fetch_add(1, Ordering::Relaxed);
                    let dir = self.root.join(format!("s{id}"));
                    match timed(tr, Layer::Open, 1, || PackStore::open(&dir)) {
                        Ok(store) => searches.push(Running {
                            ui,
                            pi,
                            bracket: Bracket::default(),
                            store: Some((store, dir)),
                            answer: None,
                        }),
                        Err(e) => {
                            phase.note_failure(format!("open store {}: {e}", dir.display()));
                            for (store, dir) in searches.iter_mut().filter_map(|r| r.store.take()) {
                                self.close(store, &dir, tr, phase);
                            }
                            return;
                        }
                    }
                }
            }
            let mut steps = Vec::new();
            let mut complete = true;
            'rounds: while searches.iter().any(|r| r.answer.is_none()) {
                for run in searches.iter_mut().filter(|r| r.answer.is_none()) {
                    let Next::Probe(capacity) = run.bracket.next() else {
                        unreachable!("finished searches are closed when they finish");
                    };
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        complete = false;
                        break 'rounds;
                    }
                    let step = Step {
                        ui: run.ui,
                        pi: run.pi,
                        capacity,
                    };
                    let (store, _) = run
                        .store
                        .as_ref()
                        .expect("an unfinished search holds its store");
                    let pick = k.is_multiple_of(REPLAY_EVERY);
                    k += 1;
                    let span = driver.as_ref().map(|s| s.start());
                    let t0 = Instant::now();
                    let outcome = guarded(|| Ok(self.step(store, step, pick, tr)));
                    let latency = t0.elapsed();
                    if let (Some(sink), Some(span)) = (driver.as_mut(), span) {
                        sink.record(span, "step", CAT_SIMULATE);
                    }
                    phase.maps += 1;
                    steps.push(step);
                    let free = outcome.as_ref().ok().copied();
                    phase.note(latency, outcome.map(|_| self.seeds as u64));
                    let Some(free) = free else {
                        complete = false;
                        break 'rounds;
                    };
                    run.bracket.observe(capacity, free);
                    if let Next::Done(cmin) = run.bracket.next() {
                        run.answer = Some(cmin);
                        let span = driver.as_ref().map(|s| s.start());
                        let (store, dir) = run.store.take().expect("closed once");
                        self.close(store, &dir, tr, phase);
                        if let (Some(sink), Some(span)) = (driver.as_mut(), span) {
                            sink.record(span, "close", CAT_STORE);
                        }
                    }
                }
            }
            for (store, dir) in searches.iter_mut().filter_map(|r| r.store.take()) {
                self.close(store, &dir, tr, phase);
            }
            if complete {
                let cmins = searches
                    .iter()
                    .map(|r| r.answer.expect("complete"))
                    .collect();
                self.note_pass(cmins, steps);
            }
            if !complete || deadline.is_none() {
                return;
            }
        }
    }

    /// Ends a search's store: barrier, health check, drop.
    fn close(&self, store: PackStore, dir: &Path, tr: Option<&Tracer>, phase: &mut Phase) {
        timed(tr, Layer::Barrier, 1, || store.barrier());
        let health = store.io_health();
        timed(tr, Layer::Close, 1, || drop(store));
        self.note_store(dir);
        self.retries.fetch_add(health.retries, Ordering::Relaxed);
        self.degraded.fetch_add(health.degraded, Ordering::Relaxed);
        if health.degraded > 0 {
            phase.note_failure(format!("store {} degraded: {health:?}", dir.display()));
        }
    }

    /// Records a finished store's size, then deletes it.
    fn note_store(&self, dir: &Path) {
        if let Ok(stat) = PackStore::stat(dir) {
            self.bytes.fetch_add(stat.bytes, Ordering::Relaxed);
            self.records
                .fetch_add(stat.records as u64, Ordering::Relaxed);
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Keeps the first complete pass as the reference and flags later
    /// passes that disagree with it.
    fn note_pass(&self, cmins: Vec<f64>, steps: Vec<Step>) {
        let mut reference = self.reference.lock().expect("reference lock");
        match reference.as_ref() {
            None => *reference = Some((cmins, steps)),
            Some((first, _)) if *first != cmins => {
                self.mismatches.lock().expect("mismatch lock").push(format!(
                    "pass C_min {cmins:?} differs from the first pass's {first:?}"
                ))
            }
            Some(_) => {}
        }
    }
}

impl Campaign for Search {
    fn setup(&mut self, tr: Option<&Tracer>) -> Result<(), String> {
        self.prefabs.clear();
        for u in UTILIZATIONS {
            let seeds = (0..self.seeds).map(|s| self.seed(s)).collect();
            let prefabs = build_prefabs(&PaperScenario::new(u, START_CAPACITY), seeds, tr);
            self.prefabs.push(prefabs);
        }
        Ok(())
    }

    fn timed(&self, budget: Duration, tr: Option<&Tracer>) -> Phase {
        let start = Instant::now();
        let mut phase = Phase::default();
        self.passes(Some(start + budget), tr, &mut phase);
        phase.wall_ns = start.elapsed().as_nanos() as u64;
        if let Some(t) = tr {
            // Slot time: map items on the workers and the driver's work
            // outside the maps, plus each store's open and close.
            let stores: u64 = [Layer::Open, Layer::Barrier, Layer::Close]
                .iter()
                .map(|&l| t.ns(l))
                .sum();
            phase.busy_ns = t.slot_busy_ns() + stores;
        }
        phase
    }

    fn check(&mut self, report: &mut Report) {
        if self.reference.lock().expect("reference lock").is_none() {
            // The timed phases never finished a pass (a short run):
            // finish one now, untimed, for the checks and the table.
            let mut phase = Phase::default();
            self.passes(None, None, &mut phase);
            report.absorb(&phase);
        }
        for failure in self.mismatches.lock().expect("mismatch lock").drain(..) {
            report.fail(failure);
        }
        let picked = std::mem::take(&mut *self.picked.lock().expect("replay list lock"));
        let cells: Vec<(Step, usize, TrialSummary)> = picked
            .into_iter()
            .flat_map(|p| {
                p.fresh
                    .into_iter()
                    .map(move |(s, summary)| (p.step, s, summary))
            })
            .collect();
        let failures = parallel_map(cells, THREADS, |(step, s, summary)| {
            let scenario = PaperScenario::new(UTILIZATIONS[step.ui], step.capacity);
            let reference = TrialSummary::of(
                &scenario.run_prefab(POLICIES[step.pi], &self.prefabs[step.ui][s]),
            );
            (reference != summary).then(|| {
                format!(
                    "seed {s} at C={}: pooled run differs from run_prefab",
                    step.capacity
                )
            })
        });
        for failure in failures.into_iter().flatten() {
            report.fail(failure);
        }
        let reference = self.reference.lock().expect("reference lock");
        if let Some((cmins, _)) = reference.as_ref() {
            let mut it = cmins.iter();
            for u in UTILIZATIONS {
                let row: Vec<f64> = POLICIES
                    .iter()
                    .map(|_| *it.next().expect("one per search"))
                    .collect();
                report.lines.push(format!(
                    "# table1 U={u} cmin_lsa={} cmin_ea_dvfs={} ratio={:.4}",
                    row[0],
                    row[1],
                    row[0] / row[1]
                ));
                for (policy, cmin) in POLICIES.iter().zip(row) {
                    report.cmin.push((u, *policy, cmin));
                }
            }
        }
    }

    fn replay(&self) -> Result<WorkCounts, String> {
        let reference = self.reference.lock().expect("reference lock");
        let Some((_, steps)) = reference.as_ref() else {
            return Ok(WorkCounts::default());
        };
        let mut replayer = Replayer::new();
        for step in steps {
            let scenario = PaperScenario::new(UTILIZATIONS[step.ui], step.capacity);
            for s in (0..self.seeds).step_by(self.seeds.div_ceil(REPLAY_SEEDS)) {
                replayer.scalar(&scenario, POLICIES[step.pi], &self.prefabs[step.ui][s])?;
            }
        }
        Ok(replayer.finish())
    }

    fn store_facts(&self) -> StoreFacts {
        StoreFacts {
            hits: self.hits.load(Ordering::Relaxed),
            probes: self.probes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            records: self.records.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
        }
    }
}
