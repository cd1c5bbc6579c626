//! One benchmark per paper figure/table: times the regeneration of each
//! evaluation artifact at reduced trial counts (the full-scale versions
//! are the `fig5`…`table1` binaries in `harvest-exp`).

use criterion::{criterion_group, criterion_main, Criterion};
use harvest_exp::figures::{
    min_zero_miss_capacity, miss_rate_figure, remaining_energy_figure, source_figure, RunPlan,
};
use harvest_exp::scenario::PolicyKind;
use std::hint::black_box;

const POLICIES: [PolicyKind; 2] = [PolicyKind::Lsa, PolicyKind::EaDvfs];

fn fig5_source(c: &mut Criterion) {
    c.bench_function("fig5_source_profile_10k", |b| {
        b.iter(|| black_box(source_figure(black_box(1), 10_000)))
    });
}

fn fig6_remaining_energy_u04(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig6_remaining_energy_u04");
    g.sample_size(10);
    g.bench_function("trials1", |b| {
        b.iter(|| {
            black_box(remaining_energy_figure(
                0.4,
                &POLICIES,
                1,
                500,
                RunPlan::new(4),
            ))
        })
    });
    g.finish();
}

fn fig7_remaining_energy_u08(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig7_remaining_energy_u08");
    g.sample_size(10);
    g.bench_function("trials1", |b| {
        b.iter(|| {
            black_box(remaining_energy_figure(
                0.8,
                &POLICIES,
                1,
                500,
                RunPlan::new(4),
            ))
        })
    });
    g.finish();
}

fn fig8_miss_rate_u04(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig8_miss_rate_u04");
    g.sample_size(10);
    g.bench_function("trials2", |b| {
        b.iter(|| black_box(miss_rate_figure(0.4, &POLICIES, 2, RunPlan::new(4))))
    });
    g.finish();
}

fn fig9_miss_rate_u08(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig9_miss_rate_u08");
    g.sample_size(10);
    g.bench_function("trials2", |b| {
        b.iter(|| black_box(miss_rate_figure(0.8, &POLICIES, 2, RunPlan::new(4))))
    });
    g.finish();
}

fn table1_min_capacity(c: &mut Criterion) {
    let mut g = c.benchmark_group("table1_min_capacity");
    g.sample_size(10);
    g.bench_function("u04_trials1", |b| {
        b.iter(|| {
            black_box(min_zero_miss_capacity(
                PolicyKind::EaDvfs,
                black_box(0.4),
                1,
                1e7,
                0.02,
                RunPlan::new(4),
            ))
        })
    });
    g.finish();
}

criterion_group!(
    figures,
    fig5_source,
    fig6_remaining_energy_u04,
    fig7_remaining_energy_u08,
    fig8_miss_rate_u04,
    fig9_miss_rate_u08,
    table1_min_capacity
);
criterion_main!(figures);
