//! Simulation-kernel micro-benchmarks: the primitives every run leans
//! on (event queue, piecewise integration, storage evolution, EDF
//! queue, workload generation, source sampling), plus before/after
//! pairs for the prefix-sum energy algebra (`*_naive` baselines vs the
//! prefix-table paths) and a Fig. 5-style end-to-end sweep.
//!
//! Running this bench writes `BENCH_PR1.json` at the workspace root:
//! every measured id with its median ns/iter, plus derived speedups of
//! the fast paths over their baselines.

use criterion::{criterion_group, BenchmarkId, Criterion};
use harvest_energy::source::sample_profile;
use harvest_energy::sources::SolarModel;
use harvest_energy::storage::StorageSpec;
use harvest_exp::figures::{miss_rate_figure, RunPlan};
use harvest_exp::scenario::PolicyKind;
use harvest_sim::event::EventQueue;
use harvest_sim::piecewise::{CrossingTiers, Extension, PiecewiseConstant};
use harvest_sim::time::{SimDuration, SimTime};
use harvest_task::generator::WorkloadSpec;
use harvest_task::job::{Job, JobId};
use harvest_task::queue::EdfQueue;
use serde::Value;
use std::hint::black_box;

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

fn piecewise_ops(c: &mut Criterion) {
    let profile = sample_profile(
        &mut SolarModel::paper(),
        SimTime::ZERO,
        SimDuration::from_whole_units(10_000),
        SimDuration::from_whole_units(1),
        7,
    )
    .expect("valid grid");
    let mut g = c.benchmark_group("piecewise");
    g.bench_function("integrate_full_10k", |b| {
        b.iter(|| {
            black_box(profile.integrate(
                black_box(SimTime::ZERO),
                black_box(SimTime::from_whole_units(10_000)),
            ))
        })
    });
    g.bench_function("value_at", |b| {
        b.iter(|| black_box(profile.value_at(black_box(SimTime::from_whole_units(4_321)))))
    });
    g.bench_function("integrate_window_100", |b| {
        b.iter(|| {
            black_box(profile.integrate(
                black_box(SimTime::from_whole_units(5_000)),
                black_box(SimTime::from_whole_units(5_100)),
            ))
        })
    });
    g.finish();
}

fn storage_advance(c: &mut Criterion) {
    let profile = PiecewiseConstant::from_samples(
        SimTime::ZERO,
        SimDuration::from_whole_units(1),
        (0..1_000).map(|i| (i % 5) as f64).collect(),
        Extension::Hold,
    )
    .expect("valid grid");
    let spec = StorageSpec::ideal(100.0);
    c.bench_function("storage_advance_1k_segments", |b| {
        b.iter(|| {
            black_box(spec.advance(
                black_box(50.0),
                &profile,
                SimTime::ZERO,
                SimTime::from_whole_units(1_000),
                black_box(1.5),
            ))
        })
    });
    c.bench_function("storage_first_crossing", |b| {
        b.iter(|| {
            black_box(spec.first_crossing(
                &mut CrossingTiers::default(),
                black_box(50.0),
                0.0,
                &profile,
                SimTime::ZERO,
                SimTime::from_whole_units(1_000),
                black_box(3.2),
            ))
        })
    });
}

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

fn workload_generation(c: &mut Criterion) {
    let spec = WorkloadSpec::paper(5, 0.4, 2.0, 3.2);
    c.bench_function("workload_generate_5tasks", |b| {
        let mut seed = 0u64;
        b.iter(|| {
            seed += 1;
            black_box(spec.generate(black_box(seed)))
        })
    });
}

fn source_sampling(c: &mut Criterion) {
    c.bench_function("solar_sample_10k_units", |b| {
        b.iter(|| {
            black_box(
                sample_profile(
                    &mut SolarModel::paper(),
                    SimTime::ZERO,
                    SimDuration::from_whole_units(10_000),
                    SimDuration::from_whole_units(1),
                    black_box(9),
                )
                .expect("valid grid"),
            )
        })
    });
}

/// A realistic 10 000-breakpoint profile (one solar sample per unit).
fn solar_10k() -> PiecewiseConstant {
    sample_profile(
        &mut SolarModel::paper(),
        SimTime::ZERO,
        SimDuration::from_whole_units(10_000),
        SimDuration::from_whole_units(1),
        7,
    )
    .expect("valid grid")
}

/// Before/after pairs on a 10k-breakpoint profile: cold `integrate`
/// (prefix difference vs segment walk), a monotone sweep of windowed
/// queries (prefix difference vs per-query naive walk), and the
/// accumulation crossing solve (tiered solver vs whole-window clamped
/// scan).
fn energy_algebra_10k(c: &mut Criterion) {
    let profile = solar_10k();
    let u = SimTime::from_whole_units;
    let mut g = c.benchmark_group("energy_algebra_10k");

    g.bench_function("integrate_window_4k/prefix", |b| {
        b.iter(|| black_box(profile.integrate(black_box(u(3_000)), black_box(u(7_000)))))
    });
    g.bench_function("integrate_window_4k/naive", |b| {
        b.iter(|| black_box(profile.integrate_naive(black_box(u(3_000)), black_box(u(7_000)))))
    });

    // 1 000 forward-marching 10-unit windows, the access pattern of a
    // closed-loop run (time only moves forward).
    g.bench_function("monotone_sweep_1000q/prefix", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1_000i64 {
                acc += profile.integrate(u(10 * i), u(10 * i + 10));
            }
            black_box(acc)
        })
    });
    g.bench_function("monotone_sweep_1000q/naive", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for i in 0..1_000i64 {
                acc += profile.integrate_naive(u(10 * i), u(10 * i + 10));
            }
            black_box(acc)
        })
    });

    // Depletion solve spanning ~8k segments: the net rate is strictly
    // negative (offset below the profile minimum), so the tiered solver
    // takes the monotone bisection path.
    let offset = -(profile.domain_max() + 0.5);
    let cap = 150_000.0;
    g.bench_function("crossing_monotone/fast", |b| {
        b.iter(|| {
            black_box(profile.first_accumulation_crossing(
                &mut CrossingTiers::default(),
                SimTime::ZERO,
                u(10_000),
                black_box(cap),
                black_box(offset),
                cap,
                0.0,
            ))
        })
    });
    g.bench_function("crossing_monotone/naive", |b| {
        b.iter(|| {
            black_box(profile.first_accumulation_crossing_naive(
                SimTime::ZERO,
                u(10_000),
                black_box(cap),
                black_box(offset),
                cap,
                0.0,
            ))
        })
    });

    // Stall wakes: from an empty store with nothing draining (offset
    // 0.0), the instant the harvest refills a 0.1 restart quantum. One
    // iteration asks from 100 starts, 100 units apart, so day and night
    // starts are both in the mix; divide by 100 for one query.
    g.bench_function("crossing_stall_wake/fast", |b| {
        b.iter(|| {
            let mut last = None;
            for i in 0..100i64 {
                last = last.max(profile.first_accumulation_crossing(
                    &mut CrossingTiers::default(),
                    u(100 * i + 37),
                    u(10_000),
                    0.0,
                    black_box(0.0),
                    cap,
                    black_box(0.1),
                ));
            }
            black_box(last)
        })
    });
    g.finish();
}

/// A Fig. 5-style end-to-end sweep: miss-rate curves over the full
/// capacity grid, fanned out through the work-stealing parallel map.
fn figure_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("figure_sweep");
    g.sample_size(3);
    g.bench_function("miss_rate_2policies_1trial", |b| {
        b.iter(|| {
            black_box(miss_rate_figure(
                0.4,
                &[PolicyKind::EaDvfs, PolicyKind::Edf],
                1,
                RunPlan::new(2),
            ))
        })
    });
    g.finish();
}

criterion_group!(
    kernel,
    event_queue_throughput,
    piecewise_ops,
    storage_advance,
    edf_queue_ops,
    workload_generation,
    source_sampling,
    energy_algebra_10k,
    figure_sweep
);

/// Fast-vs-baseline pairs surfaced as `speedups` in the JSON report.
const SPEEDUP_PAIRS: [(&str, &str, &str); 3] = [
    (
        "integrate_window_4k",
        "energy_algebra_10k/integrate_window_4k/naive",
        "energy_algebra_10k/integrate_window_4k/prefix",
    ),
    (
        "monotone_sweep_1000q",
        "energy_algebra_10k/monotone_sweep_1000q/naive",
        "energy_algebra_10k/monotone_sweep_1000q/prefix",
    ),
    (
        "crossing_monotone",
        "energy_algebra_10k/crossing_monotone/naive",
        "energy_algebra_10k/crossing_monotone/fast",
    ),
];

fn write_report(path: &std::path::Path) {
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
    let speedups: Vec<Value> = SPEEDUP_PAIRS
        .iter()
        .filter_map(|&(name, baseline, fast)| {
            let (b, f) = (find(baseline)?, find(fast)?);
            Some(Value::Map(vec![
                ("name".to_string(), Value::Str(name.to_string())),
                ("baseline_id".to_string(), Value::Str(baseline.to_string())),
                ("fast_id".to_string(), Value::Str(fast.to_string())),
                ("speedup".to_string(), Value::F64(b / f)),
            ]))
        })
        .collect();
    let doc = Value::Map(vec![
        ("bench".to_string(), Value::Str("kernel".to_string())),
        (
            "command".to_string(),
            Value::Str("cargo bench -p harvest-bench --bench kernel".to_string()),
        ),
        ("results".to_string(), Value::Seq(entries)),
        ("speedups".to_string(), Value::Seq(speedups)),
    ]);
    let json = serde_json::to_string_pretty(&doc).expect("report serializes");
    std::fs::write(path, json + "\n").expect("report written");
    println!("wrote {}", path.display());
}

fn main() {
    kernel();
    // `cargo bench` runs with the package as cwd; anchor the report at
    // the workspace root so it lands in the same place from anywhere.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    write_report(&root.join("BENCH_PR1.json"));
}
