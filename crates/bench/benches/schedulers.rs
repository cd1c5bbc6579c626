//! Scheduler micro-benchmarks: per-decision latency of each policy and
//! full 10 000-unit closed-loop runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use harvest_core::policies::{
    EaDvfsScheduler, EdfScheduler, GreedyStretchScheduler, LazyScheduler,
};
use harvest_core::scheduler::{SchedContext, Scheduler};
use harvest_cpu::presets;
use harvest_energy::predictor::OraclePredictor;
use harvest_energy::storage::{Storage, StorageSpec};
use harvest_exp::scenario::{PaperScenario, PolicyKind};
use harvest_sim::piecewise::PiecewiseConstant;
use harvest_sim::time::SimTime;
use harvest_task::job::{Job, JobId};
use std::hint::black_box;

fn decision_latency(c: &mut Criterion) {
    let cpu = presets::xscale();
    let storage = Storage::new(StorageSpec::ideal(500.0), 120.0);
    let predictor = OraclePredictor::new(PiecewiseConstant::constant(2.0));
    let job = Job::new(JobId(0), SimTime::from_whole_units(40), 6.0);
    let ctx = SchedContext::new(
        SimTime::from_whole_units(3),
        &job,
        &cpu,
        &storage,
        &predictor,
    );
    let mut g = c.benchmark_group("decision_latency");
    let mut bench = |name: &str, mut s: Box<dyn Scheduler>| {
        g.bench_function(name, |b| b.iter(|| black_box(s.decide(black_box(&ctx)))));
    };
    bench("edf", Box::new(EdfScheduler::new()));
    bench("lsa", Box::new(LazyScheduler::new()));
    bench("ea_dvfs", Box::new(EaDvfsScheduler::new()));
    bench("greedy_stretch", Box::new(GreedyStretchScheduler::new()));
    g.finish();
}

fn full_run_10k(c: &mut Criterion) {
    let mut g = c.benchmark_group("full_run_10k_units");
    g.sample_size(10);
    for policy in [
        PolicyKind::Edf,
        PolicyKind::Lsa,
        PolicyKind::EaDvfs,
        PolicyKind::GreedyStretch,
    ] {
        g.bench_with_input(
            BenchmarkId::from_parameter(policy.name()),
            &policy,
            |b, &p| {
                let scenario = PaperScenario::new(0.4, 500.0);
                b.iter(|| black_box(scenario.run(p, black_box(1))))
            },
        );
    }
    g.finish();
}

fn run_scaling_with_tasks(c: &mut Criterion) {
    let mut g = c.benchmark_group("ea_dvfs_run_vs_taskcount");
    g.sample_size(10);
    for n in [5usize, 10, 20, 40] {
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let mut scenario = PaperScenario::new(0.5, 500.0);
            scenario.num_tasks = n;
            b.iter(|| black_box(scenario.run(PolicyKind::EaDvfs, 1)))
        });
    }
    g.finish();
}

criterion_group!(
    schedulers,
    decision_latency,
    full_run_10k,
    run_scaling_with_tasks
);
criterion_main!(schedulers);
