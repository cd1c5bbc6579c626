//! One closed loop, several policy arms. A multi-arm run simulates the
//! prefix where every arm's policy decides alike once, and forks where
//! they first disagree. Each arm's result must equal, field for field,
//! the result of running that arm on its own.
//!
//! The random cases draw 2–4 arms from all four policies (always with
//! one arm repeated) and vary the utilization, capacity, seed,
//! predictor, sampling, trace retention, release tape, fault intensity
//! and a watchdog budget. Two Fig. 8 pairs are pinned on top.

use std::sync::Arc;

use harvest_rt::core::result::{SimError, SimResult};
use harvest_rt::core::scheduler::Scheduler;
use harvest_rt::core::system::{try_simulate_arms_in, RunContext};
use harvest_rt::exp::scenario::{PredictorKind, SimPool, TrialPrefab};
use harvest_rt::prelude::*;
use harvest_rt::sim::engine::Watchdog;

/// Random cases per run of the suite.
const CASES: u64 = 48;

/// SplitMix64, the case generator's stream.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }
}

/// One random multi-arm trial.
#[derive(Debug)]
struct Case {
    scenario: PaperScenario,
    seed: u64,
    arms: Vec<PolicyKind>,
    trace: bool,
    tape: bool,
    watchdog: Option<Watchdog>,
}

fn case(k: u64) -> Case {
    let mut draw = Draw(k);
    let predictor = draw.pick(&[
        PredictorKind::Oracle,
        PredictorKind::Ewma,
        PredictorKind::MovingAverage { window: 60 },
        PredictorKind::Persistence,
        PredictorKind::Biased { factor: 1.3 },
        PredictorKind::Biased { factor: 0.7 },
    ]);
    let mut scenario = PaperScenario::new(
        draw.pick(&[0.2, 0.4, 0.6, 0.8, 0.95]),
        draw.pick(&[50.0, 100.0, 200.0, 300.0, 500.0, 1000.0, 5000.0]),
    )
    .with_predictor(predictor)
    .with_fault_intensity(draw.pick(&[0.0, 0.0, 0.3, 0.8]));
    scenario.horizon_units = draw.pick(&[1_500, 3_000, 4_000]);
    if draw.pick(&[false, true]) {
        scenario = scenario.with_sampling(draw.pick(&[100, 250, 333]));
    }
    // Two to four arms, one of them drawn twice.
    let mut arms: Vec<PolicyKind> = (0..draw.pick(&[1, 2, 3]))
        .map(|_| draw.pick(&PolicyKind::ALL))
        .collect();
    let twin = arms[(draw.next() % arms.len() as u64) as usize];
    arms.insert((draw.next() % (arms.len() as u64 + 1)) as usize, twin);
    let watchdog = draw.pick(&[false, false, true]).then(|| Watchdog {
        max_events: Some(draw.pick(&[400, 1_500, 6_000])),
        max_events_at_instant: Some(64),
    });
    Case {
        scenario,
        seed: draw.next() % 1_000,
        arms,
        trace: draw.pick(&[false, true]),
        tape: draw.pick(&[false, true]),
        watchdog,
    }
}

/// The arm run on its own, on fresh state and without a release tape.
fn solo(
    case: &Case,
    config: &SystemConfig,
    prefab: &TrialPrefab,
    policy: PolicyKind,
) -> Result<SimResult, SimError> {
    try_simulate_arms_in(
        &mut RunContext::new(),
        config.clone(),
        Arc::clone(&prefab.tasks),
        Arc::clone(&prefab.profile),
        &mut [policy.build().as_mut()],
        case.scenario.predictor.build_shared(&prefab.profile),
        None,
    )
    .pop()
    .expect("one arm, one result")
}

#[test]
fn every_arm_matches_its_solo_run() {
    let mut ctx = RunContext::new();
    let mut pool = SimPool::new();
    let (mut shared_cases, mut forked_cases) = (0, 0);
    for k in 0..CASES {
        let case = case(k);
        let prefab = case.scenario.prefab(case.seed);
        let prefab = if case.tape {
            prefab
        } else {
            prefab.without_tape()
        };
        let mut config = case.scenario.config_for(case.seed);
        if case.trace {
            config = config.with_trace();
        }
        if let Some(watchdog) = case.watchdog {
            config = config.with_watchdog(watchdog);
        }
        let solos: Vec<_> = case
            .arms
            .iter()
            .map(|&policy| solo(&case, &config, &prefab, policy))
            .collect();

        let mut policies: Vec<Box<dyn Scheduler>> = case.arms.iter().map(|p| p.build()).collect();
        let mut arms: Vec<&mut dyn Scheduler> = policies
            .iter_mut()
            .map(|p| &mut **p as &mut dyn Scheduler)
            .collect();
        let shared_before = ctx.stats().shared_events;
        let joint = try_simulate_arms_in(
            &mut ctx,
            config.clone(),
            Arc::clone(&prefab.tasks),
            Arc::clone(&prefab.profile),
            &mut arms,
            case.scenario.predictor.build_shared(&prefab.profile),
            prefab.tape.clone(),
        );
        assert_eq!(joint.len(), case.arms.len());
        for (arm, (got, want)) in joint.iter().zip(&solos).enumerate() {
            assert_eq!(got, want, "case {k} arm {arm}: {case:?}");
        }
        if ctx.stats().shared_events > shared_before {
            shared_cases += 1;
        }
        let distinct = |a: &Result<SimResult, SimError>, b: &Result<SimResult, SimError>| {
            a.as_ref().map(|r| &r.jobs) != b.as_ref().map(|r| &r.jobs)
        };
        if solos.iter().any(|r| distinct(r, &solos[0])) {
            forked_cases += 1;
        }

        // The same arms through the experiment layer's pooled entry.
        if !case.trace {
            let pooled =
                case.scenario
                    .try_run_arms_in(&mut pool, &case.arms, &prefab, case.watchdog);
            assert_eq!(pooled, solos, "case {k} through run_arms_in: {case:?}");
        }
    }
    assert!(
        shared_cases > CASES / 2,
        "only {shared_cases} cases shared events"
    );
    assert!(forked_cases > CASES / 4, "only {forked_cases} cases forked");
}

/// The Fig. 8 pair (U = 0.4, LSA and EA-DVFS) of seed 0 at `capacity`:
/// the shared events of the joint run and each arm's event count. Both
/// arms must match their solo `run_prefab`.
fn fig8_pair(capacity: f64) -> (u64, [u64; 2]) {
    let scenario = PaperScenario::new(0.4, capacity);
    let prefab = scenario.prefab(0);
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
    let mut pool = SimPool::new();
    let results = scenario.run_arms_in(&mut pool, &policies, &prefab);
    for (policy, result) in policies.iter().zip(&results) {
        assert_eq!(result, &scenario.run_prefab(*policy, &prefab));
    }
    (
        pool.stats().shared_events,
        [results[0].events, results[1].events],
    )
}

#[test]
fn fig8_pair_never_forks_at_capacity_1000() {
    // Energy never runs scarce, so EA-DVFS decides like LSA throughout
    // (§4.3) and every event serves both arms.
    let (shared, events) = fig8_pair(1000.0);
    assert_eq!(events[0], events[1]);
    assert_eq!(shared, events[0]);
}

#[test]
fn fig8_pair_forks_once_at_capacity_50() {
    // Two arms can fork at most once. This pair does, early: a store of
    // 50 runs scarce within the first few jobs.
    let (shared, events) = fig8_pair(50.0);
    assert!(
        0 < shared && shared < events[0].min(events[1]),
        "shared {shared} of {events:?}"
    );
    assert_eq!(shared, FIG8_C50_SHARED);
}

/// Events of the seed-0 Fig. 8 pair at C = 50 before, and including,
/// the decision where LSA and EA-DVFS first disagree.
const FIG8_C50_SHARED: u64 = 29;
