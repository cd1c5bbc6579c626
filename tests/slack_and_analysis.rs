//! Integration tests for the extensions beyond the paper's core:
//! execution-time variation (slack), the static-slowdown baseline, the
//! offline analysis module, and biased prediction.

use harvest_rt::core::policies::StaticSlowdownScheduler;
use harvest_rt::prelude::*;
use harvest_rt::task::analysis::{edf_schedulable, is_sustainable, worst_case_deficit};

fn paper_profile(seed: u64, horizon: i64) -> PiecewiseConstant {
    sample_profile(
        &mut SolarModel::paper(),
        SimTime::ZERO,
        SimDuration::from_whole_units(horizon),
        SimDuration::from_whole_units(1),
        seed,
    )
    .expect("valid grid")
}

/// Early completions can only help: for every policy, miss counts with
/// bcet 0.5 are no higher than with full-WCET jobs on paired seeds.
#[test]
fn slack_never_hurts() {
    let horizon = 4_000i64;
    for policy in [PolicyKind::Lsa, PolicyKind::EaDvfs] {
        let mut full = 0usize;
        let mut slack = 0usize;
        for seed in 0..8u64 {
            let profile = paper_profile(seed, horizon);
            let mk_tasks = |bcet: f64| {
                WorkloadSpec::paper(5, 0.6, profile.domain_mean(), 3.2)
                    .with_bcet_ratio(bcet)
                    .generate(seed + 1)
            };
            let config = SystemConfig::new(
                presets::xscale(),
                StorageSpec::ideal(150.0),
                SimDuration::from_whole_units(horizon),
            );
            let run = |tasks: &TaskSet| {
                simulate(
                    config.clone(),
                    tasks,
                    profile.clone(),
                    policy.build(),
                    Box::new(OraclePredictor::new(profile.clone())),
                )
            };
            full += run(&mk_tasks(1.0)).missed();
            slack += run(&mk_tasks(0.5)).missed();
        }
        assert!(
            slack <= full,
            "{}: slack ({slack}) should not miss more than full WCET ({full})",
            policy.name()
        );
    }
}

/// Jobs with actual < wcet complete early and the recorded energy is
/// proportionally smaller.
#[test]
fn early_completion_consumes_less_energy() {
    let tasks_full = TaskSet::new(vec![Task::once(
        SimTime::ZERO,
        SimDuration::from_whole_units(20),
        4.0,
    )]);
    let tasks_half = TaskSet::new(vec![Task::once(
        SimTime::ZERO,
        SimDuration::from_whole_units(20),
        4.0,
    )
    .with_actual_work(2.0)]);
    let profile = PiecewiseConstant::constant(5.0);
    let config = SystemConfig::new(
        presets::xscale(),
        StorageSpec::ideal(1_000.0),
        SimDuration::from_whole_units(30),
    );
    let run = |tasks: &TaskSet| {
        simulate(
            config.clone(),
            tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile.clone())),
        )
    };
    let full = run(&tasks_full);
    let half = run(&tasks_half);
    assert_eq!(full.missed() + half.missed(), 0);
    assert!((half.jobs[0].energy - full.jobs[0].energy / 2.0).abs() < 1e-6);
    match (half.jobs[0].outcome, full.jobs[0].outcome) {
        (JobOutcome::Completed { at: h }, JobOutcome::Completed { at: f }) => {
            assert!(h < f, "half job {h} should finish before full job {f}");
        }
        other => panic!("both should complete: {other:?}"),
    }
}

/// Static slowdown runs everything at its fixed level and misses only
/// for energy reasons; with ample energy a feasible set is miss-free.
#[test]
fn static_slowdown_feasible_with_ample_energy() {
    let tasks = TaskSet::new(vec![
        Task::periodic_implicit(SimDuration::from_whole_units(10), 2.0),
        Task::periodic_implicit(SimDuration::from_whole_units(20), 4.0),
    ]); // U = 0.4 → XScale level with S = 0.4
    let profile = PiecewiseConstant::constant(10.0);
    let config = SystemConfig::new(
        presets::xscale(),
        StorageSpec::ideal(10_000.0),
        SimDuration::from_whole_units(400),
    );
    let cpu = presets::xscale();
    let r = simulate(
        config,
        &tasks,
        profile.clone(),
        Box::new(StaticSlowdownScheduler::new(&cpu, tasks.utilization())),
        Box::new(OraclePredictor::new(profile)),
    );
    assert_eq!(r.missed(), 0, "jobs: {:?}", r.jobs);
    // All busy time at the statically selected level (index 1, S=0.4).
    assert!(r.level_time[1] > 0.0);
    assert_eq!(r.level_time[0], 0.0);
    assert_eq!(r.level_time[4], 0.0);
}

/// Static slowdown spends less busy-energy than EDF on the same
/// workload (the point of DVFS), while EA-DVFS adapts between the two.
#[test]
fn static_slowdown_saves_energy_vs_edf() {
    let tasks = TaskSet::new(vec![Task::periodic_implicit(
        SimDuration::from_whole_units(10),
        4.0,
    )]); // U = 0.4
    let profile = PiecewiseConstant::constant(10.0);
    let config = SystemConfig::new(
        presets::xscale(),
        StorageSpec::ideal(10_000.0),
        SimDuration::from_whole_units(500),
    );
    let cpu = presets::xscale();
    let run = |policy: Box<dyn Scheduler>| {
        simulate(
            config.clone(),
            &tasks,
            profile.clone(),
            policy,
            Box::new(OraclePredictor::new(profile.clone())),
        )
    };
    let edf = run(Box::new(EdfScheduler::new()));
    let slow = run(Box::new(StaticSlowdownScheduler::new(&cpu, 0.4)));
    assert_eq!(edf.missed() + slow.missed(), 0);
    assert!(
        slow.energy.consumed < edf.energy.consumed * 0.5,
        "static slowdown {:.0} should spend well under EDF {:.0}",
        slow.energy.consumed,
        edf.energy.consumed
    );
}

/// The analysis module agrees with simulation on the paper workloads:
/// generated sets are always EDF-schedulable (U ≤ 1, implicit
/// deadlines), and the worst-case deficit bounds the capacity needed.
#[test]
fn analysis_agrees_with_simulation() {
    for seed in 0..10u64 {
        let profile = paper_profile(seed, 4_000);
        let tasks = WorkloadSpec::paper(5, 0.6, profile.domain_mean(), 3.2).generate(seed);
        assert!(edf_schedulable(&tasks).is_schedulable());
        // Sustainability matches the mean-power comparison.
        let sustainable = is_sustainable(&profile, &tasks, 3.2);
        assert_eq!(sustainable, profile.domain_mean() >= 0.6 * 3.2);
    }
}

/// A capacity at least the worst-case full-speed deficit (plus the
/// paper's initial-full assumption) lets EDF run the §2-style constant
/// workload without energy misses.
#[test]
fn worst_case_deficit_sizes_storage() {
    let profile = PiecewiseConstant::from_samples(
        SimTime::ZERO,
        SimDuration::from_whole_units(50),
        vec![4.0, 0.0, 4.0, 0.0],
        harvest_rt::sim::piecewise::Extension::Cycle,
    )
    .unwrap();
    let tasks = TaskSet::new(vec![Task::periodic_implicit(
        SimDuration::from_whole_units(10),
        2.0,
    )]); // U = 0.2, demand at full speed bursts to 3.2
         // Continuous-demand (fluid) estimate: deficit of running flat out at U·Pmax.
    let deficit = worst_case_deficit(&profile, 0.2 * 3.2);
    assert!(deficit > 0.0);
    let config = SystemConfig::new(
        presets::xscale(),
        StorageSpec::ideal(deficit * 4.0),
        SimDuration::from_whole_units(1_000),
    );
    let r = simulate(
        config,
        &tasks,
        profile.clone(),
        Box::new(EaDvfsScheduler::new()),
        Box::new(OraclePredictor::new(profile)),
    );
    assert_eq!(r.missed(), 0, "jobs missed: {}", r.missed());
}

/// Pessimistic prediction makes EA-DVFS cautious but must not break it;
/// wild optimism degrades toward LSA-like behaviour.
#[test]
fn biased_prediction_degrades_gracefully() {
    let mean_rate = |factor: f64| {
        let mut total = 0.0;
        for seed in 0..6u64 {
            let mut sc =
                PaperScenario::new(0.4, 150.0).with_predictor(PredictorKind::Biased { factor });
            sc.horizon_units = 4_000;
            total += sc.run(PolicyKind::EaDvfs, seed).miss_rate();
        }
        total / 6.0
    };
    let exact = mean_rate(1.0);
    let pessimistic = mean_rate(0.5);
    let optimistic = mean_rate(2.0);
    // Exact prediction should be no worse than either distortion, with
    // a little tolerance for seed noise.
    assert!(
        exact <= pessimistic + 0.05,
        "exact {exact:.3} vs pessimistic {pessimistic:.3}"
    );
    assert!(
        exact <= optimistic + 0.05,
        "exact {exact:.3} vs optimistic {optimistic:.3}"
    );
}
