//! End-to-end simulator throughput: whole-run scheduler events/sec.
//!
//! The canonical workload is a 10-task, U = 0.8, C = 200 scarce-energy
//! scenario — small store and high utilization keep the scheduler busy
//! with misses, stalls, and DVFS re-evaluations, so the run exercises
//! every hot path (event queue, EDF queue, storage evolution, policy
//! decisions) rather than idling through an energy-rich schedule.
//!
//! Running this bench writes `BENCH_PR3.json` at the workspace root:
//! raw medians, scheduler events/sec per policy (observability off and
//! on), the prefab-sharing gain, and — when `BENCH_PR2.json` is
//! present — the metrics-off overhead of the instrumented simulator
//! against the pre-observability medians for the shared `sim_*` ids
//! (the tentpole's "<2% events/sec regression with null sinks" check).
//!
//! Pass `--smoke` for a 1-sample sanity run (CI): every benchmark
//! executes once and no report is written.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Duration;

use criterion::{BenchmarkId, Criterion};
use harvest_core::system::{try_simulate_arms_in, RunContext};
use harvest_exp::scenario::{PaperScenario, PolicyKind, TrialPrefab};
use harvest_sim::event::EventQueue;
use harvest_sim::time::SimTime;
use harvest_task::job::{Job, JobId};
use harvest_task::queue::EdfQueue;
use serde::Value;

/// Policies whose events/sec the report tracks.
const POLICIES: [PolicyKind; 3] = [PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs];

const SEED: u64 = 0;

/// The canonical scarce-energy scenario: 10 tasks at U = 0.8 against a
/// 200-unit store.
fn scenario() -> PaperScenario {
    let mut s = PaperScenario::new(0.8, 200.0);
    s.num_tasks = 10;
    s
}

/// Same ids as the kernel bench, so each report's `event_queue/push_pop`
/// rows compare directly with `BENCH_PR1.json`: scheduled-then-drained
/// bursts of 1 000 and 10 000 scattered events through `EventQueue`.
fn event_queue_throughput(c: &mut Criterion) {
    let mut g = c.benchmark_group("event_queue");
    for n in [1_000usize, 10_000] {
        g.bench_with_input(BenchmarkId::new("push_pop", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = EventQueue::new();
                for i in 0..n {
                    // Scatter times deterministically.
                    let t = SimTime::from_ticks(((i * 2_654_435_761) % (n * 7)) as i64);
                    q.schedule(t, i);
                }
                let mut sum = 0usize;
                while let Some((_, v)) = q.pop() {
                    sum += v;
                }
                black_box(sum)
            })
        });
    }
    g.finish();
}

/// Same id as the kernel bench: the slab-backed indexed heap vs the
/// old `BTreeMap` ready queue.
fn edf_queue_ops(c: &mut Criterion) {
    c.bench_function("edf_queue_churn_100", |b| {
        b.iter(|| {
            let mut q = EdfQueue::new();
            for i in 0..100u64 {
                let d = SimTime::from_whole_units(((i * 37) % 100 + 1) as i64);
                q.push(Job::new(JobId(i), d, 1.0));
            }
            let mut n = 0;
            while q.pop().is_some() {
                n += 1;
            }
            black_box(n)
        })
    });
}

/// Whole-simulation runs on the canonical scenario, one per policy,
/// with the trial prefab built outside the timed region (the sweep
/// fast path).
fn whole_sim(c: &mut Criterion) {
    let s = scenario();
    let prefab = s.prefab(SEED);
    let mut g = c.benchmark_group("sim_10task_scarce");
    for policy in POLICIES {
        g.bench_function(BenchmarkId::from_parameter(policy.name()), |b| {
            b.iter(|| black_box(s.run_prefab(policy, &prefab)))
        });
    }
    g.finish();
}

/// One run with metrics collection and phase profiling enabled (the
/// always-on counters are frozen into a snapshot; the trace stays off,
/// as in sweeps). The gap between this and `sim_10task_scarce`
/// bounds what turning observability *on* costs.
fn run_observed(s: &PaperScenario, policy: PolicyKind, prefab: &TrialPrefab) -> u64 {
    let config = s.config().with_metrics().with_profiling();
    let predictor = s.predictor.build_shared(&prefab.profile);
    try_simulate_arms_in(
        &mut RunContext::new(),
        config,
        Arc::clone(&prefab.tasks),
        Arc::clone(&prefab.profile),
        &mut [policy.build().as_mut()],
        predictor,
        None,
    )
    .pop()
    .expect("one arm, one result")
    .expect("no watchdog, no abort")
    .events
}

/// Whole-simulation runs with the metrics snapshot + phase profiler
/// enabled, one per policy.
fn whole_sim_observed(c: &mut Criterion) {
    let s = scenario();
    let prefab = s.prefab(SEED);
    let mut g = c.benchmark_group("sim_observed");
    for policy in POLICIES {
        g.bench_function(BenchmarkId::from_parameter(policy.name()), |b| {
            b.iter(|| black_box(run_observed(&s, policy, &prefab)))
        });
    }
    g.finish();
}

/// What prefab sharing saves: a full trial with per-run profile and
/// task-set reconstruction vs the shared-prefab path.
fn prefab_sharing(c: &mut Criterion) {
    let s = scenario();
    let prefab = s.prefab(SEED);
    let mut g = c.benchmark_group("trial");
    g.bench_function("rebuild_inputs_per_run", |b| {
        b.iter(|| black_box(s.run(PolicyKind::EaDvfs, SEED)))
    });
    g.bench_function("shared_prefab", |b| {
        b.iter(|| black_box(s.run_prefab(PolicyKind::EaDvfs, &prefab)))
    });
    g.finish();
}

fn write_report(path: &std::path::Path, pr2: Option<&Value>) {
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

    // Scheduler events/sec: the run is deterministic, so the event
    // count comes from one untimed replay per policy.
    let s = scenario();
    let prefab = s.prefab(SEED);
    let events_per_sec: Vec<Value> = POLICIES
        .iter()
        .filter_map(|&policy| {
            let ns = find(&format!("sim_10task_scarce/{}", policy.name()))?;
            let events = s.run_prefab(policy, &prefab).events;
            Some(Value::Map(vec![
                ("policy".to_string(), Value::Str(policy.name().to_string())),
                ("events_per_run".to_string(), Value::U64(events)),
                ("ns_per_run".to_string(), Value::F64(ns)),
                (
                    "events_per_sec".to_string(),
                    Value::F64(events as f64 / (ns * 1e-9)),
                ),
            ]))
        })
        .collect();

    // Null-sink overhead: the same `sim_10task_scarce/*` ids measured
    // before the observability layer landed (BENCH_PR2.json) vs now,
    // with metrics off. Ratios near 1.0 mean the always-on counters are
    // free; the acceptance bar is < 1.02 (2% events/sec regression).
    let pr2_find = |id: &str| -> Option<f64> {
        let Value::Seq(rows) = pr2?.get("results")? else {
            return None;
        };
        rows.iter()
            .find(|r| r.get("id").and_then(Value::as_str) == Some(id))
            .and_then(|r| r.get("ns_per_iter"))
            .and_then(Value::as_f64)
    };
    let overhead_off: Vec<Value> = POLICIES
        .iter()
        .filter_map(|&policy| {
            let id = format!("sim_10task_scarce/{}", policy.name());
            let (before, after) = (pr2_find(&id)?, find(&id)?);
            Some(Value::Map(vec![
                ("id".to_string(), Value::Str(id)),
                ("pr2_ns_per_iter".to_string(), Value::F64(before)),
                ("pr3_ns_per_iter".to_string(), Value::F64(after)),
                ("overhead_ratio".to_string(), Value::F64(after / before)),
            ]))
        })
        .collect();

    // Cost of turning observability *on* (metrics snapshot + phase
    // profiler), measured within this build: sim_observed vs
    // sim_10task_scarce per policy.
    let overhead_on: Vec<Value> = POLICIES
        .iter()
        .filter_map(|&policy| {
            let off = find(&format!("sim_10task_scarce/{}", policy.name()))?;
            let on = find(&format!("sim_observed/{}", policy.name()))?;
            Some(Value::Map(vec![
                ("policy".to_string(), Value::Str(policy.name().to_string())),
                ("off_ns".to_string(), Value::F64(off)),
                ("on_ns".to_string(), Value::F64(on)),
                ("overhead_ratio".to_string(), Value::F64(on / off)),
            ]))
        })
        .collect();
    let prefab_gain: Vec<Value> = match (
        find("trial/rebuild_inputs_per_run"),
        find("trial/shared_prefab"),
    ) {
        (Some(rebuild), Some(shared)) => vec![Value::Map(vec![
            ("rebuild_ns".to_string(), Value::F64(rebuild)),
            ("shared_ns".to_string(), Value::F64(shared)),
            ("speedup".to_string(), Value::F64(rebuild / shared)),
        ])],
        _ => Vec::new(),
    };

    let doc = Value::Map(vec![
        ("bench".to_string(), Value::Str("throughput".to_string())),
        (
            "command".to_string(),
            Value::Str("cargo bench -p harvest-bench --bench throughput".to_string()),
        ),
        (
            "scenario".to_string(),
            Value::Map(vec![
                ("num_tasks".to_string(), Value::U64(10)),
                ("utilization".to_string(), Value::F64(0.8)),
                ("capacity".to_string(), Value::F64(200.0)),
                ("horizon_units".to_string(), Value::U64(10_000)),
                ("seed".to_string(), Value::U64(SEED)),
            ]),
        ),
        ("results".to_string(), Value::Seq(entries)),
        ("events_per_sec".to_string(), Value::Seq(events_per_sec)),
        (
            "metrics_off_overhead_vs_pr2".to_string(),
            Value::Seq(overhead_off),
        ),
        (
            "observability_on_overhead".to_string(),
            Value::Seq(overhead_on),
        ),
        ("prefab_sharing".to_string(), Value::Seq(prefab_gain)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("report serializes");
    std::fs::write(path, json + "\n").expect("report written");
    println!("wrote {}", path.display());
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut c = Criterion::default();
    if smoke {
        // One sample, minimal budget: proves every bench still runs
        // without spending CI minutes on statistics.
        c.sample_size(1);
        c.measurement_time(Duration::from_millis(1));
    }
    event_queue_throughput(&mut c);
    edf_queue_ops(&mut c);
    whole_sim(&mut c);
    whole_sim_observed(&mut c);
    prefab_sharing(&mut c);

    if smoke {
        println!("smoke mode: all benches executed; no report written");
        return;
    }
    // `cargo bench` runs with the package as cwd; anchor the report at
    // the workspace root so it lands in the same place from anywhere.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let pr2 = std::fs::read_to_string(root.join("BENCH_PR2.json"))
        .ok()
        .and_then(|raw| serde_json::from_str::<Value>(&raw).ok());
    write_report(&root.join("BENCH_PR3.json"), pr2.as_ref());
}
