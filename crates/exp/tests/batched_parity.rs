//! Bit-identity of the batched SoA engine against the scalar simulator.
//!
//! Every lane of `simulate_batch_in` must reproduce the scalar
//! `simulate_in` run of the same `(scenario, policy, seed)` cell — not
//! approximately, but bit for bit: the whole `SimResult` (job records,
//! energy accounting, event and trace counts, level residency, sampled
//! levels) and the `TrialSummary` byte encoding that the sweep store
//! persists. The grid deliberately mixes scenarios that take the lean
//! fused path (oracle predictor, fault-free) with ones that must
//! scalar-drain (fault plans, non-oracle predictors, watchdogs), so
//! both sides of the eligibility screen are pinned.
//!
//! Both engines answer profile queries on a uniform grid through the
//! same `UniformGridView` kernel, so these tests pin the event loops
//! against each other, not the grid against the cursor walk. That
//! parity is pinned by the `grid_view_*` tests in `sim::piecewise` and
//! `grid_advance_matches_cursor_walk` in `energy::storage`.

use harvest_exp::scenario::{PaperScenario, PolicyKind, PredictorKind, SimPool, TrialPrefab};
use harvest_exp::store::PackStore;
use harvest_sim::engine::Watchdog;

/// Runs one scenario's seeds both ways and asserts per-lane equality of
/// the full results and of the persisted summary bytes.
fn assert_batch_parity(scenario: &PaperScenario, policy: PolicyKind, seeds: std::ops::Range<u64>) {
    let prefabs: Vec<TrialPrefab> = seeds.clone().map(|s| scenario.prefab(s)).collect();
    let refs: Vec<&TrialPrefab> = prefabs.iter().collect();

    let mut scalar_pool = SimPool::new();
    let scalar: Vec<_> = refs
        .iter()
        .map(|p| scenario.run_prefab_in(&mut scalar_pool, policy, p))
        .collect();

    let mut batch_pool = SimPool::new();
    let batched = scenario.run_prefabs_batched_in(&mut batch_pool, policy, &refs);

    assert_eq!(batched.len(), scalar.len());
    for ((seed, b), s) in seeds.clone().zip(&batched).zip(&scalar) {
        assert_eq!(
            b, s,
            "lane for seed {seed} diverged ({} / {policy:?})",
            scenario.capacity
        );
        // The persisted form must match byte for byte, too: this is what
        // warm-store figure rebuilds read back.
        let bs = harvest_exp::cache::TrialSummary::of(b);
        let ss = harvest_exp::cache::TrialSummary::of(s);
        assert_eq!(
            serde_json::to_string(&bs).unwrap(),
            serde_json::to_string(&ss).unwrap(),
            "summary bytes for seed {seed} diverged"
        );
    }

    let stats = batch_pool.stats();
    assert_eq!(
        stats.runs,
        prefabs.len() as u64,
        "every lane must be counted as a run"
    );
}

#[test]
fn lean_lanes_match_scalar_across_policies() {
    let mut scenario = PaperScenario::new(0.8, 200.0);
    scenario.num_tasks = 6;
    scenario.horizon_units = 400;
    for policy in PolicyKind::ALL {
        assert_batch_parity(&scenario, policy, 0..6);
    }
}

#[test]
fn random_scenario_grid_matches_scalar() {
    // A small pseudo-random scenario grid (splitmix-style derivation so
    // the grid is deterministic): utilization, capacity, task count, and
    // sampling all vary per cell.
    let mut x = 0x243F_6A88_85A3_08D3u64;
    let mut next = move || {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for case in 0..4 {
        let r = next();
        let utilization = 0.3 + 0.1 * (r % 6) as f64;
        let capacity = [150.0, 300.0, 700.0, 2000.0][(r >> 8) as usize % 4];
        let mut scenario = PaperScenario::new(utilization, capacity);
        scenario.num_tasks = 3 + (r >> 16) as usize % 5;
        scenario.horizon_units = 300 + 100 * ((r >> 24) % 3) as i64;
        if r >> 32 & 1 == 1 {
            scenario = scenario.with_sampling(50);
        }
        let policy = PolicyKind::ALL[(r >> 40) as usize % 4];
        let base = next() % 1000;
        assert_batch_parity(&scenario, policy, base..base + 4);
        let _ = case;
    }
}

#[test]
fn faulted_lanes_scalar_drain_and_match() {
    // Fault plans make lanes ineligible for the fused loop; they must
    // scalar-drain through the fallback and still match exactly.
    for intensity in [0.3, 0.8] {
        let mut scenario = PaperScenario::new(0.5, 250.0).with_fault_intensity(intensity);
        scenario.num_tasks = 5;
        scenario.horizon_units = 500;
        assert_batch_parity(&scenario, PolicyKind::EaDvfs, 0..4);
    }
}

#[test]
fn mixed_eligibility_batches_match() {
    // Intensity is per scenario, but an armed scenario can still draw an
    // *empty* plan for some seeds — those lanes stay lean while their
    // siblings scalar-drain, exercising a genuinely mixed batch. Either
    // way every lane must match its scalar run.
    let mut scenario = PaperScenario::new(0.6, 200.0).with_fault_intensity(0.05);
    scenario.num_tasks = 4;
    scenario.horizon_units = 400;
    assert_batch_parity(&scenario, PolicyKind::EaDvfs, 0..8);
}

#[test]
fn non_oracle_predictors_scalar_drain_and_match() {
    for predictor in [
        PredictorKind::Ewma,
        PredictorKind::Persistence,
        PredictorKind::MovingAverage { window: 50 },
    ] {
        let mut scenario = PaperScenario::new(0.5, 300.0).with_predictor(predictor);
        scenario.num_tasks = 4;
        scenario.horizon_units = 300;
        assert_batch_parity(&scenario, PolicyKind::EaDvfs, 0..3);
    }
}

#[test]
fn watchdog_lanes_abort_identically() {
    let mut scenario = PaperScenario::new(0.5, 300.0);
    scenario.num_tasks = 4;
    scenario.horizon_units = 500;
    let prefabs: Vec<TrialPrefab> = (0..3).map(|s| scenario.prefab(s)).collect();
    let refs: Vec<&TrialPrefab> = prefabs.iter().collect();
    // Lane 1 is starved by a tiny watchdog; its siblings run clean.
    let watchdogs = vec![None, Some(Watchdog::with_max_events(4)), None];
    let mut pool = SimPool::new();
    let batched = pool.run_batch(&scenario, PolicyKind::Lsa, &refs, &watchdogs);
    let mut scalar_pool = SimPool::new();
    for ((prefab, watchdog), b) in refs.iter().zip(&watchdogs).zip(&batched) {
        let s = scenario.try_run_prefab_in(&mut scalar_pool, PolicyKind::Lsa, prefab, *watchdog);
        assert_eq!(b, &s);
    }
    assert!(batched[1].is_err(), "starved lane must abort");
}

#[test]
fn batched_runs_reuse_slabs_and_count_occupancy() {
    let mut scenario = PaperScenario::new(0.8, 200.0);
    scenario.num_tasks = 5;
    scenario.horizon_units = 200;
    let prefabs: Vec<TrialPrefab> = (0..8).map(|s| scenario.prefab(s)).collect();
    let refs: Vec<&TrialPrefab> = prefabs.iter().collect();
    let mut pool = SimPool::new();
    for _ in 0..3 {
        let results = scenario.run_prefabs_batched_in(&mut pool, PolicyKind::EaDvfs, &refs);
        assert_eq!(results.len(), 8);
    }
    let stats = pool.stats();
    assert_eq!(stats.runs, 24);
    assert_eq!(stats.batched_runs, 24, "oracle fault-free lanes run lean");
    assert_eq!(stats.batch_lane_high_water, 8);
}

/// Runs one `(scenario, seed)` trial's policy arms both ways and
/// asserts per-arm equality of the full results and summary bytes.
fn assert_arm_parity(scenario: &PaperScenario, policies: &[PolicyKind], seed: u64) {
    let prefab = scenario.prefab(seed);
    let arms: Vec<(PolicyKind, &TrialPrefab)> = policies.iter().map(|&p| (p, &prefab)).collect();

    let mut scalar_pool = SimPool::new();
    let scalar: Vec<_> = policies
        .iter()
        .map(|&p| scenario.run_prefab_in(&mut scalar_pool, p, &prefab))
        .collect();

    let mut batch_pool = SimPool::new();
    let batched = scenario.run_arms_batched_in(&mut batch_pool, &arms);

    assert_eq!(batched.len(), scalar.len());
    for ((policy, b), s) in policies.iter().zip(&batched).zip(&scalar) {
        assert_eq!(
            b, s,
            "arm {policy:?} of seed {seed} diverged ({})",
            scenario.capacity
        );
        let bs = harvest_exp::cache::TrialSummary::of(b);
        let ss = harvest_exp::cache::TrialSummary::of(s);
        assert_eq!(
            serde_json::to_string(&bs).unwrap(),
            serde_json::to_string(&ss).unwrap(),
            "summary bytes for arm {policy:?} of seed {seed} diverged"
        );
    }
}

#[test]
fn policy_lockstep_arms_match_scalar() {
    let mut scenario = PaperScenario::new(0.8, 200.0);
    scenario.num_tasks = 6;
    scenario.horizon_units = 400;
    for seed in 0..4 {
        assert_arm_parity(&scenario, &PolicyKind::ALL, seed);
    }
    // Sampling adds periodic cross-lane events; the arms must still
    // match their scalar runs exactly.
    let sampled = scenario.with_sampling(50);
    for seed in 0..2 {
        assert_arm_parity(&sampled, &PolicyKind::ALL, seed);
    }
}

#[test]
fn faulted_policy_arms_scalar_drain_and_match() {
    // A fault plan makes every arm ineligible for the fused loop; the
    // lockstep batch must fall back per arm and still match.
    let mut scenario = PaperScenario::new(0.5, 250.0).with_fault_intensity(0.6);
    scenario.num_tasks = 5;
    scenario.horizon_units = 400;
    for seed in 0..3 {
        assert_arm_parity(&scenario, &[PolicyKind::Lsa, PolicyKind::EaDvfs], seed);
    }
}

/// Satellite contract of the grouping split in `PoolStats`: sibling-seed
/// batches bump only the seed-lane high water, policy-lockstep batches
/// bump only the policy-lane counters, and both feed the shared tick
/// occupancy tallies.
#[test]
fn grouping_stats_stay_separate() {
    let mut scenario = PaperScenario::new(0.8, 200.0);
    scenario.num_tasks = 5;
    scenario.horizon_units = 200;
    let prefabs: Vec<TrialPrefab> = (0..6).map(|s| scenario.prefab(s)).collect();
    let refs: Vec<&TrialPrefab> = prefabs.iter().collect();

    let mut seed_pool = SimPool::new();
    let _ = scenario.run_prefabs_batched_in(&mut seed_pool, PolicyKind::EaDvfs, &refs);
    let seed_stats = seed_pool.stats();
    assert_eq!(seed_stats.batched_runs, 6);
    assert_eq!(seed_stats.batch_lane_high_water, 6);
    assert_eq!(seed_stats.policy_batched_runs, 0);
    assert_eq!(seed_stats.batch_policy_lane_high_water, 0);
    assert!(seed_stats.batch_ticks > 0);
    assert!(seed_stats.multi_lane_ticks <= seed_stats.batch_ticks);

    let arms: Vec<(PolicyKind, &TrialPrefab)> =
        PolicyKind::ALL.iter().map(|&p| (p, &prefabs[0])).collect();
    let mut arm_pool = SimPool::new();
    let _ = scenario.run_arms_batched_in(&mut arm_pool, &arms);
    let arm_stats = arm_pool.stats();
    assert_eq!(arm_stats.batched_runs, PolicyKind::ALL.len() as u64);
    assert_eq!(arm_stats.policy_batched_runs, PolicyKind::ALL.len() as u64);
    assert_eq!(
        arm_stats.batch_policy_lane_high_water,
        PolicyKind::ALL.len() as u64
    );
    assert_eq!(
        arm_stats.batch_lane_high_water, 0,
        "a lockstep batch must not touch the sibling-seed mark"
    );
    assert!(arm_stats.batch_ticks > 0);
    assert!(
        arm_stats.multi_lane_ticks > 0,
        "lockstep arms share release instants"
    );
    assert!(arm_stats.multi_lane_fraction() > 0.0);
}

#[test]
fn cached_arm_summaries_round_trip() {
    let dir = std::env::temp_dir().join(format!("harvest-arm-parity-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PackStore::open(&dir).unwrap();
    let mut scenario = PaperScenario::new(0.6, 300.0);
    scenario.num_tasks = 5;
    scenario.horizon_units = 300;
    let prefab = scenario.prefab(7);
    let arms: Vec<(PolicyKind, &TrialPrefab)> =
        PolicyKind::ALL.iter().map(|&p| (p, &prefab)).collect();
    let mut pool = SimPool::new();
    let cold = scenario.run_arm_summaries_batched(&mut pool, Some(&store), &arms);
    assert_eq!(store.stats().stores, PolicyKind::ALL.len() as u64);
    let warm = scenario.run_arm_summaries_batched(&mut pool, Some(&store), &arms);
    assert_eq!(cold, warm);
    assert_eq!(store.stats().hits, PolicyKind::ALL.len() as u64);
    // Per-(policy, seed) keys interoperate with the scalar store path.
    let scalar = scenario.run_summary(&mut pool, Some(&store), PolicyKind::ALL[1], &prefab);
    assert_eq!(scalar, cold[1]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cached_batched_summaries_round_trip() {
    let dir = std::env::temp_dir().join(format!(
        "harvest-batched-parity-store-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let store = PackStore::open(&dir).unwrap();
    let mut scenario = PaperScenario::new(0.6, 300.0).with_sampling(50);
    scenario.num_tasks = 5;
    scenario.horizon_units = 300;
    let prefabs: Vec<TrialPrefab> = (0..5).map(|s| scenario.prefab(s)).collect();
    let refs: Vec<&TrialPrefab> = prefabs.iter().collect();
    let mut pool = SimPool::new();
    let cold = scenario.run_summaries_batched(&mut pool, Some(&store), PolicyKind::EaDvfs, &refs);
    assert_eq!(store.stats().stores, 5, "every cell written per seed");
    // Warm pass: every cell answered from the store, bit-identically.
    let warm = scenario.run_summaries_batched(&mut pool, Some(&store), PolicyKind::EaDvfs, &refs);
    assert_eq!(cold, warm);
    assert_eq!(store.stats().hits, 5);
    // And the per-seed keys interoperate with the scalar path.
    let scalar = scenario.run_summary(&mut pool, Some(&store), PolicyKind::EaDvfs, &prefabs[2]);
    assert_eq!(scalar, cold[2]);
    let _ = std::fs::remove_dir_all(&dir);
}
