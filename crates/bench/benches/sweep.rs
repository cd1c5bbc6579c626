//! Sweep-scale execution: what pooled run contexts and the result store
//! buy per trial.
//!
//! The profile is a **sweep-grain microcell**: the §5.1 scarce-energy
//! setting (10 tasks, U = 0.8, C = 200) cut to a 50-unit horizon. That
//! is the grain at which sweep overheads matter — a capacity-search or
//! figure grid runs thousands of such cells, and at this size the
//! per-run fixed cost (event-queue and ready-queue allocation, metrics
//! registry, policy boxing) is a large fraction of the trial. Pooling
//! removes exactly that fixed cost, so the pooled speedup shrinks as
//! cells grow; the microcell isolates what is being measured instead of
//! burying it under simulation work.
//!
//! Four modes are timed as `sweep/trials_*`:
//!
//! * `cold` — the pre-PR4 fast path: shared prefab, but fresh queues,
//!   registry, and boxed policy every run.
//! * `pooled` — `run_prefab_in` through one reused [`SimPool`], with
//!   the release tape stripped: this is the PR 4 reference path the
//!   tape speedup is measured against.
//! * `tape` — the same pooled run with the prefab's release tape:
//!   every `Arrival` is a cursor bump instead of a heap pop, nothing
//!   else changes.
//! * `store_warm` — a warm [`PackStore`] hit: one fingerprint map
//!   lookup plus an in-memory record decode, zero syscalls.
//!
//! Three write-path modes time the store's durability levels as
//! `sweep/store_append_{none,batch,record}`: one decided-record append
//! per iteration with no barriers, with a barrier every 64 appends (the
//! default `--durability batch` checkpoint grain), and with a sync
//! inside every append (`--durability record`). The report carries the
//! batch-vs-none and record-vs-none overhead ratios, so the cost of the
//! default durability is a number, not a feeling. The warm store itself
//! is opened at `Durability::None` — the exact `--durability none` warm
//! path the PR 7 `store_warm` regression gate pins.
//!
//! Running this bench writes `BENCH_PR10.json` at the workspace root:
//! raw medians, trials/sec per mode with the pooled-vs-cold and
//! tape-vs-pooled speedups, heap-allocation counts per trial (cold vs
//! pooled, via a counting global allocator),
//! and the per-worker allocation/item counts of one sharded pooled
//! mini-sweep — workers after the first few trials should allocate only
//! what the results themselves need, and (with the start-line barrier
//! in `parallel_map_with`) **every** worker must execute a non-zero
//! share, which the report asserts.
//!
//! Two further modes time the campaign-telemetry layer as
//! `sweep/figure_warm_{off,traced}`: one fully warm
//! `miss_rate_figure`, first with the disabled
//! [`CampaignTelemetry`] bundle (the exact code path the pinned figure
//! tests run), then with a live span collector and a progress stream
//! writing to a sink. The report carries both rates and their ratio, so
//! the cost of switching telemetry on — and any creep in the off
//! path — is a number, not a feeling.
//!
//! Pass `--smoke` for a 1-sample sanity run (CI): every benchmark
//! executes once and no report is written. Pass
//! `--check-regression PATH` to compare the fresh `trials_per_sec`
//! medians against a committed baseline report (e.g. `BENCH_PR7.json`)
//! instead of writing one: any mode that drops more than 20% prints a
//! `REGRESSION` line and the process exits 1 (a failing CI step; a mode
//! only one of the two runs measured is skipped).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use criterion::Criterion;
use harvest_exp::cache::TrialSummary;
use harvest_exp::figures::{miss_rate_figure, RunPlan};
use harvest_exp::parallel::parallel_map_with;
use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool, TrialPrefab};
use harvest_exp::store::{PackStore, TrialStore};
use harvest_exp::telemetry::CampaignTelemetry;
use harvest_obs::io::{Durability, RealIo, RetryPolicy};
use harvest_obs::span::SpanCollector;
use harvest_obs::ProgressReporter;
use serde::Value;

/// Counts every heap allocation, globally and per thread, then defers
/// to the system allocator. The per-thread counter is `const`-initialized
/// so reading it can never itself allocate.
struct CountingAlloc;

static GLOBAL_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// This thread's allocation count so far.
fn thread_allocs() -> u64 {
    THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        GLOBAL_ALLOCS.fetch_add(1, Ordering::Relaxed);
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const SEED: u64 = 0;
const POLICY: PolicyKind = PolicyKind::EaDvfs;

/// The sweep-grain microcell (see module docs).
fn scenario() -> PaperScenario {
    let mut s = PaperScenario::new(0.8, 200.0);
    s.num_tasks = 10;
    s.horizon_units = 50;
    s
}

/// A throwaway pack store, pre-warmed with the microcell's result. The
/// store is opened at [`Durability::None`] — warm probes never touch a
/// barrier, so this is the exact `--durability none` read path the
/// `store_warm` regression gate pins.
fn warm_store(s: &PaperScenario, prefab: &TrialPrefab) -> (PackStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("harvest-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PackStore::open_with(
        &dir,
        RealIo::shared(),
        RetryPolicy::default(),
        Durability::None,
    )
    .expect("temp store dir");
    let summary = TrialSummary::of(&s.run_prefab(POLICY, prefab));
    harvest_exp::store::TrialStore::store(&store, &s.trial_key(POLICY, SEED), &summary);
    (store, dir)
}

/// `sweep/trials_{cold,pooled,tape,store_warm}`: one microcell
/// trial per iteration under each execution mode. `heap_prefab` is the
/// tape-stripped twin of `prefab` — cold and pooled run it so they stay
/// the PR 4 reference paths.
fn trial_modes(
    c: &mut Criterion,
    s: &PaperScenario,
    prefab: &TrialPrefab,
    heap_prefab: &TrialPrefab,
    store: &PackStore,
) {
    let mut g = c.benchmark_group("sweep");
    g.bench_function("trials_cold", |b| {
        b.iter(|| black_box(s.run_prefab(POLICY, heap_prefab)))
    });
    let mut pool = SimPool::new();
    g.bench_function("trials_pooled", |b| {
        b.iter(|| black_box(s.run_prefab_in(&mut pool, POLICY, heap_prefab)))
    });
    let mut pool = SimPool::new();
    g.bench_function("trials_tape", |b| {
        b.iter(|| black_box(s.run_prefab_in(&mut pool, POLICY, prefab)))
    });
    let mut pool = SimPool::new();
    g.bench_function("trials_store_warm", |b| {
        b.iter(|| black_box(s.run_summary(&mut pool, Some(store), POLICY, prefab)))
    });
    g.finish();
}

/// The miss-rate-figure utilization the telemetry benches sweep.
const FIGURE_UTIL: f64 = 0.8;
/// The policies the telemetry benches sweep (same pair as `exp sweep`).
const FIGURE_POLICIES: [PolicyKind; 2] = [PolicyKind::Lsa, PolicyKind::EaDvfs];

/// A throwaway pack store pre-warmed with every cell of the telemetry
/// benches' miss-rate figure (one cold run fills it).
fn warm_figure_store() -> (PackStore, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("harvest-bench-figure-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PackStore::open(&dir).expect("temp figure store dir");
    let plan = RunPlan {
        store: Some(&store),
        ..RunPlan::new(1)
    };
    miss_rate_figure(FIGURE_UTIL, &FIGURE_POLICIES, 1, plan);
    (store, dir)
}

/// `sweep/figure_warm_{off,traced}`: one fully warm miss-rate figure
/// per iteration through the figure driver — first with the
/// disabled telemetry bundle, then with a live span collector plus a
/// progress stream into an IO sink (fresh observers per iteration, so
/// the collector cannot grow without bound across samples).
fn figure_telemetry_modes(c: &mut Criterion, store: &PackStore) {
    let mut g = c.benchmark_group("sweep");
    g.bench_function("figure_warm_off", |b| {
        b.iter(|| {
            let plan = RunPlan {
                store: Some(store),
                ..RunPlan::new(1)
            };
            black_box(miss_rate_figure(FIGURE_UTIL, &FIGURE_POLICIES, 1, plan))
        })
    });
    g.bench_function("figure_warm_traced", |b| {
        b.iter(|| {
            let telemetry = CampaignTelemetry {
                spans: Some(SpanCollector::shared()),
                progress: Some(std::sync::Arc::new(ProgressReporter::new(
                    Some(Box::new(std::io::sink())),
                    false,
                ))),
            };
            let plan = RunPlan {
                threads: 1,
                store: Some(store),
                telemetry: &telemetry,
            };
            black_box(miss_rate_figure(FIGURE_UTIL, &FIGURE_POLICIES, 1, plan))
        })
    });
    g.finish();
}

/// `sweep/store_append_{none,batch,record}`: one decided-record append
/// per iteration at each durability level, each into its own throwaway
/// store. `batch` adds a barrier every 64 appends — the campaign
/// driver's checkpoint grain — and `record` syncs inside every append,
/// so the three medians bracket what `--durability` costs on the write
/// path. Returns the store directories for cleanup.
fn durability_append_modes(
    c: &mut Criterion,
    s: &PaperScenario,
    prefab: &TrialPrefab,
) -> Vec<std::path::PathBuf> {
    let key = s.trial_key(POLICY, SEED);
    let summary = TrialSummary::of(&s.run_prefab(POLICY, prefab));
    let mut dirs = Vec::new();
    let mut g = c.benchmark_group("sweep");
    for (mode, durability) in [
        ("none", Durability::None),
        ("batch", Durability::Batch),
        ("record", Durability::Record),
    ] {
        let dir = std::env::temp_dir().join(format!(
            "harvest-bench-durability-{mode}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store =
            PackStore::open_with(&dir, RealIo::shared(), RetryPolicy::default(), durability)
                .expect("temp durability store dir");
        let mut appended = 0u64;
        g.bench_function(format!("store_append_{mode}"), |b| {
            b.iter(|| {
                TrialStore::store(&store, &key, &summary);
                appended += 1;
                if durability == Durability::Batch && appended.is_multiple_of(64) {
                    TrialStore::barrier(&store);
                }
            })
        });
        assert!(
            store.io_health().is_clean(),
            "durability bench degraded the {mode} store"
        );
        dirs.push(dir);
    }
    g.finish();
    dirs
}

/// Median heap allocations per trial for a run closure, measured on
/// this thread outside any timed region.
fn allocs_per_trial(mut run: impl FnMut()) -> u64 {
    // Warm up so lazy pool state does not pollute the count.
    for _ in 0..8 {
        run();
    }
    let trials = 64u64;
    let before = thread_allocs();
    for _ in 0..trials {
        run();
    }
    (thread_allocs() - before) / trials
}

/// One sharded pooled mini-sweep with per-worker accounting: each
/// worker reports how many trials it executed and how many heap
/// allocations its whole share cost (pool construction included).
fn sharded_worker_allocs(s: &PaperScenario, prefab: &TrialPrefab) -> Vec<Value> {
    struct WorkerState {
        worker: usize,
        pool: SimPool,
        start_allocs: u64,
        allocs: u64,
        items: u64,
    }
    let threads = 4;
    let (_, states) = parallel_map_with(
        0..256u32,
        threads,
        |worker| WorkerState {
            worker,
            pool: SimPool::new(),
            start_allocs: thread_allocs(),
            allocs: 0,
            items: 0,
        },
        |state, _| {
            black_box(s.run_prefab_in(&mut state.pool, POLICY, prefab));
            state.items += 1;
            state.allocs = thread_allocs() - state.start_allocs;
        },
    );
    // The start-line barrier in `run_sharded` is what guarantees this:
    // without it worker 0 historically drained all 256 items while the
    // later workers spun up into exhausted cursors. The guarantee only
    // holds when every worker can actually run concurrently — on a
    // machine with fewer cores than workers, a CPU-bound shard can
    // legitimately drain inside another worker's first scheduling
    // quantum — so the assertion is gated on core count (the
    // `parallel` unit tests pin the barrier semantics independently,
    // with blocking items that spread on any core count).
    let can_run_all_workers = std::thread::available_parallelism()
        .map(|p| p.get() >= threads)
        .unwrap_or(false);
    for w in &states {
        assert!(
            !can_run_all_workers || w.items > 0,
            "worker {} executed no items — sharded spread regressed",
            w.worker
        );
    }
    states
        .iter()
        .map(|w| {
            Value::Map(vec![
                ("worker".to_string(), Value::U64(w.worker as u64)),
                ("items".to_string(), Value::U64(w.items)),
                ("allocs".to_string(), Value::U64(w.allocs)),
                (
                    "allocs_per_item".to_string(),
                    Value::F64(w.allocs as f64 / w.items.max(1) as f64),
                ),
                ("pool_runs".to_string(), Value::U64(w.pool.stats().runs)),
            ])
        })
        .collect()
}

fn write_report(path: &std::path::Path, s: &PaperScenario, prefab: &TrialPrefab) {
    let results = criterion::all_results();
    let entries: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::Map(vec![
                ("id".to_string(), Value::Str(r.id.clone())),
                ("ns_per_iter".to_string(), Value::F64(r.ns_per_iter)),
                (
                    "iters_per_sample".to_string(),
                    Value::U64(r.iters_per_sample),
                ),
                ("samples".to_string(), Value::U64(r.samples as u64)),
            ])
        })
        .collect();
    let find = |id: &str| results.iter().find(|r| r.id == id).map(|r| r.ns_per_iter);

    let trials_per_sec = match (
        find("sweep/trials_cold"),
        find("sweep/trials_pooled"),
        find("sweep/trials_store_warm"),
    ) {
        (Some(cold), Some(pooled), Some(store_warm)) => {
            let mut modes = vec![
                ("cold".to_string(), Value::F64(1e9 / cold)),
                ("pooled".to_string(), Value::F64(1e9 / pooled)),
                ("store_warm".to_string(), Value::F64(1e9 / store_warm)),
            ];
            if let Some(tape) = find("sweep/trials_tape") {
                modes.push(("tape".to_string(), Value::F64(1e9 / tape)));
            }
            modes.push(("pooled_vs_cold".to_string(), Value::F64(cold / pooled)));
            if let Some(tape) = find("sweep/trials_tape") {
                modes.push(("tape_vs_pooled".to_string(), Value::F64(pooled / tape)));
            }
            vec![Value::Map(modes)]
        }
        _ => Vec::new(),
    };

    // Campaign-telemetry accounting: the warm figure with the bundle
    // off is the exact path the pinned-figure tests take, the traced
    // mode bounds what switching spans + progress on costs per figure.
    let telemetry = match (
        find("sweep/figure_warm_off"),
        find("sweep/figure_warm_traced"),
    ) {
        (Some(off), Some(traced)) => Value::Map(vec![
            ("figure_warm_off_ns".to_string(), Value::F64(off)),
            ("figure_warm_traced_ns".to_string(), Value::F64(traced)),
            (
                "traced_overhead_ratio".to_string(),
                Value::F64(traced / off),
            ),
        ]),
        _ => Value::Null,
    };

    // Write-path durability accounting: what the default batch barriers
    // and per-record syncs cost over a barrier-free append.
    let durability = match (
        find("sweep/store_append_none"),
        find("sweep/store_append_batch"),
        find("sweep/store_append_record"),
    ) {
        (Some(none), Some(batch), Some(record)) => Value::Map(vec![
            ("append_none_ns".to_string(), Value::F64(none)),
            ("append_batch_ns".to_string(), Value::F64(batch)),
            ("append_record_ns".to_string(), Value::F64(record)),
            ("batch_overhead_ratio".to_string(), Value::F64(batch / none)),
            (
                "record_overhead_ratio".to_string(),
                Value::F64(record / none),
            ),
        ]),
        _ => Value::Null,
    };

    // Allocation accounting runs untimed, after the measurements.
    let cold_allocs = allocs_per_trial(|| {
        black_box(s.run_prefab(POLICY, prefab));
    });
    let mut pool = SimPool::new();
    let pooled_allocs = allocs_per_trial(|| {
        black_box(s.run_prefab_in(&mut pool, POLICY, prefab));
    });
    let per_worker = sharded_worker_allocs(s, prefab);

    let doc = Value::Map(vec![
        ("bench".to_string(), Value::Str("sweep".to_string())),
        (
            "command".to_string(),
            Value::Str("cargo bench -p harvest-bench --bench sweep".to_string()),
        ),
        (
            "scenario".to_string(),
            Value::Map(vec![
                ("num_tasks".to_string(), Value::U64(10)),
                ("utilization".to_string(), Value::F64(0.8)),
                ("capacity".to_string(), Value::F64(200.0)),
                (
                    "horizon_units".to_string(),
                    Value::U64(s.horizon_units as u64),
                ),
                ("policy".to_string(), Value::Str(POLICY.name().to_string())),
                ("seed".to_string(), Value::U64(SEED)),
            ]),
        ),
        ("results".to_string(), Value::Seq(entries)),
        ("trials_per_sec".to_string(), Value::Seq(trials_per_sec)),
        ("telemetry".to_string(), telemetry),
        ("durability".to_string(), durability),
        (
            "allocations".to_string(),
            Value::Map(vec![
                ("cold_per_trial".to_string(), Value::U64(cold_allocs)),
                ("pooled_per_trial".to_string(), Value::U64(pooled_allocs)),
                ("sharded_per_worker".to_string(), Value::Seq(per_worker)),
            ]),
        ),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("report serializes");
    std::fs::write(path, json + "\n").expect("report written");
    println!("wrote {}", path.display());
}

/// Compares the fresh medians against a committed baseline report's
/// `trials_per_sec` modes. Ratio entries (`*_vs_*`) are derived, not
/// measured, so only the raw per-mode rates are compared. Returns
/// `true` when any mode dropped more than 20%.
fn check_regression(baseline: &std::path::Path) -> bool {
    // Cargo runs benches with the package dir as cwd; a relative
    // baseline path is meant against the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let baseline_path = &root.join(baseline);
    let text = std::fs::read_to_string(baseline_path)
        .unwrap_or_else(|e| panic!("cannot read baseline {}: {e}", baseline_path.display()));
    let doc: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("baseline {} does not parse: {e}", baseline_path.display()));
    let baseline_modes = doc
        .get("trials_per_sec")
        .and_then(Value::as_array)
        .and_then(|seq| seq.first())
        .and_then(Value::as_object)
        .cloned()
        .unwrap_or_default();
    let results = criterion::all_results();
    let fresh_rate = |mode: &str| -> Option<f64> {
        results
            .iter()
            .find(|r| r.id == format!("sweep/trials_{mode}"))
            .map(|r| 1e9 / r.ns_per_iter)
    };
    let mut regressed = false;
    for (mode, value) in &baseline_modes {
        if mode.contains("_vs_") {
            continue;
        }
        let (Some(base), Some(now)) = (value.as_f64(), fresh_rate(mode)) else {
            continue;
        };
        let ratio = now / base;
        let flag = ratio < 0.8;
        println!(
            "regression-check {mode}: baseline {base:.0}/s now {now:.0}/s ({:+.1}%){}",
            (ratio - 1.0) * 100.0,
            if flag { "  << REGRESSION" } else { "" }
        );
        if flag {
            regressed = true;
        }
    }
    regressed
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let check = args
        .iter()
        .position(|a| a == "--check-regression")
        .map(|i| {
            std::path::PathBuf::from(
                args.get(i + 1)
                    .expect("--check-regression expects a baseline report path"),
            )
        });
    let mut c = Criterion::default();
    if smoke {
        c.sample_size(1);
        c.measurement_time(Duration::from_millis(1));
    }
    let s = scenario();
    let prefab = s.prefab(SEED);
    let heap_prefab = prefab.clone().without_tape();
    let (store, store_dir) = warm_store(&s, &prefab);
    let (figure_store, figure_dir) = warm_figure_store();
    trial_modes(&mut c, &s, &prefab, &heap_prefab, &store);
    figure_telemetry_modes(&mut c, &figure_store);
    let durability_dirs = durability_append_modes(&mut c, &s, &prefab);
    let cleanup = || {
        let _ = std::fs::remove_dir_all(&store_dir);
        let _ = std::fs::remove_dir_all(&figure_dir);
        for dir in &durability_dirs {
            let _ = std::fs::remove_dir_all(dir);
        }
    };

    if smoke {
        cleanup();
        println!("smoke mode: all benches executed; no report written");
        return;
    }
    if let Some(baseline) = check {
        let regressed = check_regression(&baseline);
        cleanup();
        if regressed {
            std::process::exit(1);
        }
        return;
    }
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    write_report(&root.join("BENCH_PR10.json"), &s, &prefab);
    cleanup();
}
