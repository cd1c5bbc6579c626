//! One profile kernel, two forms: a uniform `Hold` grid (the §5.1 solar
//! realization) keeps no breakpoint table and locates a segment by one
//! division, and every other profile binary-searches its table. Every
//! query is one implementation over both, so both must give the same
//! bits. Each property builds a *table twin* of a paper profile — the
//! same function, but with one long trailing segment that breaks the
//! uniform spacing — and checks that queries, storage walks, predictors
//! and whole scalar runs cannot tell the two apart.

use harvest_rt::energy::storage::AdvanceReport;
use harvest_rt::prelude::*;
use harvest_rt::sim::piecewise::{CrossingTiers, Segment};
use proptest::prelude::*;

/// Horizon of the property-test profiles, in time units.
const HORIZON: i64 = 2_000;

/// Length of the twin's trailing segment. It only has to outlast every
/// query: past its end the twin's antiderivative would be summed in a
/// different order than the grid's `Hold` extension.
const PAD_UNITS: i64 = 1_000_000;

fn scenario(utilization: f64, capacity: f64) -> PaperScenario {
    let mut s = PaperScenario::new(utilization, capacity).with_sampling(100);
    s.horizon_units = HORIZON;
    s
}

/// The paper's eq. 13 solar realization for `seed`.
fn solar(seed: u64) -> PiecewiseConstant {
    scenario(0.5, 500.0).profile(seed)
}

/// Every breakpoint of `f` (a `Hold` profile), in order.
fn breakpoints(f: &PiecewiseConstant) -> Vec<SimTime> {
    assert_eq!(f.extension(), Extension::Hold);
    let mut breakpoints = vec![f.domain_start()];
    while let Some(t) = f.next_breakpoint_after(*breakpoints.last().unwrap()) {
        breakpoints.push(t);
    }
    assert_eq!(*breakpoints.last().unwrap(), f.domain_end());
    breakpoints
}

/// The same function as `f` (a `Hold` profile), with its last value
/// repeated on one extra, much longer segment. Under `Hold` that changes
/// no value, but the spacing is no longer uniform, so the twin keeps a
/// breakpoint table and every query searches it.
fn table_twin(f: &PiecewiseConstant) -> PiecewiseConstant {
    let mut breakpoints = breakpoints(f);
    breakpoints.push(f.domain_end() + SimDuration::from_whole_units(PAD_UNITS));
    let mut values = f.values().to_vec();
    values.push(*values.last().unwrap());
    PiecewiseConstant::new(breakpoints, values, Extension::Hold).unwrap()
}

/// An instant in ticks, from before the domain to past its end. Half the
/// draws land exactly on whole units, i.e. on breakpoints.
fn instant() -> impl Strategy<Value = i64> {
    const TICKS: i64 = 1_000_000;
    prop_oneof![
        (-50i64..HORIZON + 3_000).prop_map(|u| u * TICKS),
        -50 * TICKS..(HORIZON + 3_000) * TICKS,
    ]
}

fn ordered(a: i64, b: i64) -> (SimTime, SimTime) {
    (SimTime::from_ticks(a.min(b)), SimTime::from_ticks(a.max(b)))
}

fn report_bits(r: &AdvanceReport) -> [u64; 4] {
    [
        r.level.to_bits(),
        r.overflow.to_bits(),
        r.deficit.to_bits(),
        r.delivered.to_bits(),
    ]
}

/// Runs `policy` on the grid profile and on its table twin and returns
/// the first field that differs.
fn compare_runs(
    config: SystemConfig,
    tasks: &TaskSet,
    grid: &PiecewiseConstant,
    policy: PolicyKind,
    predictor: PredictorKind,
) -> Result<SimResult, String> {
    let twin = table_twin(grid);
    // The oracle integrates the profile it is given. Online predictors
    // only read its domain mean, once, to seed their estimates, and the
    // twin's padded domain has another mean; build those from the grid
    // profile so the runs differ only in the kernel serving the engine.
    let twin_predictor = match predictor {
        PredictorKind::Oracle => predictor.build(&twin),
        _ => predictor.build(grid),
    };
    let a = simulate(
        config.clone(),
        tasks,
        grid.clone(),
        policy.build(),
        predictor.build(grid),
    );
    let b = simulate(config, tasks, twin, policy.build(), twin_predictor);
    let name = policy.name();
    if a.jobs != b.jobs {
        return Err(format!("{name}: job records differ"));
    }
    if a.energy != b.energy {
        return Err(format!("{name}: {:?} vs {:?}", a.energy, b.energy));
    }
    if a.samples != b.samples {
        return Err(format!("{name}: sampled levels differ"));
    }
    if (a.events, a.switches) != (b.events, b.switches) {
        return Err(format!(
            "{name}: events/switches {:?} vs {:?}",
            (a.events, a.switches),
            (b.events, b.switches)
        ));
    }
    if a.level_time != b.level_time
        || a.idle_time.to_bits() != b.idle_time.to_bits()
        || a.stall_time.to_bits() != b.stall_time.to_bits()
    {
        return Err(format!("{name}: time accounting differs"));
    }
    Ok(a)
}

fn policy_strategy() -> impl Strategy<Value = PolicyKind> {
    prop_oneof![
        Just(PolicyKind::Edf),
        Just(PolicyKind::Lsa),
        Just(PolicyKind::EaDvfs),
        Just(PolicyKind::GreedyStretch),
    ]
}

/// The §5.1 harvest is exactly the shape the grid form stores (uniform
/// one-unit spacing under `Hold`); the twin construction really does
/// leave it.
#[test]
fn paper_harvest_takes_the_grid_path() {
    let unit = SimDuration::from_whole_units(1);
    for seed in 0..4 {
        let f = PaperScenario::new(0.8, 500.0).profile(seed);
        let spacing = |f: &PiecewiseConstant| -> Vec<SimDuration> {
            breakpoints(f).windows(2).map(|w| w[1] - w[0]).collect()
        };
        let grid = spacing(&f);
        assert_eq!(grid.len(), f.segment_count());
        assert!(grid.iter().all(|&dt| dt == unit), "a uniform one-unit grid");
        let twin = table_twin(&f);
        assert_eq!(twin.segment_count(), f.segment_count() + 1);
        assert_eq!(
            spacing(&twin).last(),
            Some(&SimDuration::from_whole_units(PAD_UNITS))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Point lookups (the `decide` path): value and next breakpoint,
    /// inside, before and past the domain.
    #[test]
    fn point_lookups_agree(seed in 0u64..1_000, ts in proptest::collection::vec(instant(), 1..40)) {
        let f = solar(seed);
        let twin = table_twin(&f);
        let end = f.domain_end();
        for &tk in &ts {
            let t = SimTime::from_ticks(tk);
            prop_assert_eq!(
                f.value_at(t).to_bits(),
                twin.value_at(t).to_bits(),
                "value at {}", t
            );
            // Past the grid's end the twin still knows its padding
            // breakpoint; inside the domain both must agree.
            if t < end {
                prop_assert_eq!(
                    f.next_breakpoint_after(t),
                    twin.next_breakpoint_after(t),
                    "next breakpoint after {}", t
                );
            }
        }
    }

    /// Integrals (the oracle's ÊS(t, D) path), including reversed and
    /// empty windows and windows that straddle either end of the domain.
    #[test]
    fn integrals_agree(seed in 0u64..1_000, windows in proptest::collection::vec((instant(), instant()), 1..30)) {
        let f = solar(seed);
        let twin = table_twin(&f);
        for &(a, b) in &windows {
            let (t1, t2) = (SimTime::from_ticks(a), SimTime::from_ticks(b));
            prop_assert_eq!(
                f.integrate(t1, t2).to_bits(),
                twin.integrate(t1, t2).to_bits(),
                "integral over [{}, {})", t1, t2
            );
            prop_assert_eq!(
                f.integrate_naive(t1, t2).to_bits(),
                twin.integrate_naive(t1, t2).to_bits(),
                "segment-sum integral over [{}, {})", t1, t2
            );
        }
    }

    /// Segment walks hand out the same clipped `[start, end, value)`
    /// triples, so any fold over them is bit-identical.
    #[test]
    fn segment_walks_agree(seed in 0u64..1_000, a in instant(), b in instant()) {
        let f = solar(seed);
        let twin = table_twin(&f);
        let (t1, t2) = ordered(a, b);
        let walked: Vec<Segment> = f.segments_between(t1, t2).collect();
        prop_assert_eq!(walked, twin.segments_between(t1, t2).collect::<Vec<_>>());
    }

    /// Accumulation crossings: same instant, and the same crossing tier
    /// counted on both forms.
    #[test]
    fn accumulation_crossings_agree(
        seed in 0u64..1_000,
        (a, b) in (instant(), instant()),
        (cap, initial_frac, target_frac) in (1.0f64..3_000.0, 0.0f64..=1.0, 0.0f64..=1.0),
        offset in -6.0f64..2.0,
    ) {
        let f = solar(seed);
        let twin = table_twin(&f);
        let (from, horizon) = ordered(a, b);
        let (initial, target) = (cap * initial_frac, cap * target_frac);
        let (mut tg, mut tt) = (CrossingTiers::default(), CrossingTiers::default());
        let hit_grid = f.first_accumulation_crossing(
            &mut tg, from, horizon, initial, offset, cap, target);
        let hit_twin = twin.first_accumulation_crossing(
            &mut tt, from, horizon, initial, offset, cap, target);
        prop_assert_eq!(hit_grid, hit_twin);
        prop_assert_eq!(
            f.first_accumulation_crossing_naive(from, horizon, initial, offset, cap, target),
            twin.first_accumulation_crossing_naive(from, horizon, initial, offset, cap, target)
        );
        prop_assert_eq!(tg, tt);
    }

    /// Storage advances with the per-segment callback the engine uses
    /// for harvest accounting, over consecutive windows, and the
    /// depletion crossing each window would schedule.
    #[test]
    fn storage_walks_agree(
        seed in 0u64..1_000,
        cap in 5.0f64..2_000.0,
        steps in proptest::collection::vec((1i64..400_000_000, 0.0f64..6.0), 1..30),
    ) {
        let f = solar(seed);
        let twin = table_twin(&f);
        let spec = StorageSpec::ideal(cap);
        let (mut sg, mut st) = (Storage::full(spec), Storage::full(spec));
        let mut now = SimTime::ZERO;
        for &(dt, load) in &steps {
            let next = now + SimDuration::from_ticks(dt);
            let crossing = |storage: &Storage, profile: &PiecewiseConstant| {
                let mut tiers = CrossingTiers::default();
                spec.first_crossing(&mut tiers, storage.level(), 0.0, profile, now, next, load)
            };
            prop_assert_eq!(crossing(&sg, &f), crossing(&st, &twin));
            let (mut seen_g, mut seen_t) = (Vec::new(), Vec::new());
            let rg = sg.advance_with_each(&f, now, next, load, |s| seen_g.push(s));
            let rt = st.advance_with_each(&twin, now, next, load, |s| seen_t.push(s));
            prop_assert_eq!(report_bits(&rg), report_bits(&rt), "advance to {}", next);
            prop_assert_eq!((rg.clamped_empty, rg.clamped_full), (rt.clamped_empty, rt.clamped_full));
            prop_assert_eq!(seen_g, seen_t);
            now = next;
        }
    }

    /// The oracle's query pattern: `now` creeps forward while every
    /// query reaches out to a deadline ahead.
    #[test]
    fn oracle_predictions_agree(
        seed in 0u64..1_000,
        queries in proptest::collection::vec((0i64..50_000_000, 1i64..2_000), 1..60),
    ) {
        let f = solar(seed);
        let twin = table_twin(&f);
        let (pg, pt) = (OraclePredictor::new(f), OraclePredictor::new(twin));
        let mut now = SimTime::ZERO;
        for &(step, reach) in &queries {
            now += SimDuration::from_ticks(step);
            let deadline = now + SimDuration::from_whole_units(reach);
            prop_assert_eq!(
                pg.predict_energy(now, deadline).to_bits(),
                pt.predict_energy(now, deadline).to_bits(),
                "ES({}, {})", now, deadline
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole scalar runs on the paper setup: every policy, oracle
    /// predictor, ideal storage.
    #[test]
    fn scalar_runs_agree_across_kernels(
        policy in policy_strategy(),
        u in 0.1f64..0.9,
        cap in 50.0f64..3_000.0,
        seed in 0u64..1_000,
    ) {
        let s = scenario(u, cap);
        let profile = s.profile(seed);
        let tasks = s.taskset(seed, &profile);
        let outcome = compare_runs(s.config(), &tasks, &profile, policy, PredictorKind::Oracle);
        if let Err(e) = outcome {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Online predictors learn from the segments the storage walk hands
    /// them, so the walk's callback must see the same segments too.
    #[test]
    fn online_predictor_runs_agree_across_kernels(
        predictor in prop_oneof![
            Just(PredictorKind::Ewma),
            Just(PredictorKind::Persistence),
            Just(PredictorKind::MovingAverage { window: 200 }),
        ],
        u in 0.1f64..0.9,
        cap in 50.0f64..3_000.0,
        seed in 0u64..1_000,
    ) {
        let s = scenario(u, cap);
        let profile = s.profile(seed);
        let tasks = s.taskset(seed, &profile);
        let outcome = compare_runs(s.config(), &tasks, &profile, PolicyKind::EaDvfs, predictor);
        if let Err(e) = outcome {
            return Err(TestCaseError::fail(e));
        }
    }

    /// Lossy storage (charge efficiency and leakage) takes the general
    /// segment-scan crossing instead of the ideal accumulation solve.
    #[test]
    fn lossy_storage_runs_agree_across_kernels(
        policy in policy_strategy(),
        u in 0.1f64..0.9,
        (cap, eta, leak) in (50.0f64..3_000.0, 0.6f64..=1.0, 0.0f64..0.05),
        seed in 0u64..1_000,
    ) {
        let s = scenario(u, cap);
        let profile = s.profile(seed);
        let tasks = s.taskset(seed, &profile);
        let storage = StorageSpec::ideal(cap)
            .with_charge_efficiency(eta)
            .with_leakage_power(leak);
        let config = SystemConfig::new(
            s.cpu(),
            storage,
            SimDuration::from_whole_units(HORIZON),
        )
        .with_sample_interval(SimDuration::from_whole_units(100));
        let outcome = compare_runs(config, &tasks, &profile, policy, PredictorKind::Oracle);
        if let Err(e) = outcome {
            return Err(TestCaseError::fail(e));
        }
    }
}

/// A full-length §5.1 trial at U = 0.8 — a Fig. 9 cell — under LSA and
/// EA-DVFS: same records, and the run actually exercises the storage
/// (some misses at the small capacity, none lost to the comparison).
#[test]
fn fig9_cells_agree_across_kernels() {
    for (cap, seed) in [(60.0, 0), (60.0, 7), (800.0, 3)] {
        let s = PaperScenario::new(0.8, cap);
        let profile = s.profile(seed);
        let tasks = s.taskset(seed, &profile);
        for policy in [PolicyKind::Lsa, PolicyKind::EaDvfs] {
            let r = compare_runs(s.config(), &tasks, &profile, policy, PredictorKind::Oracle)
                .unwrap_or_else(|e| panic!("C={cap} seed={seed}: {e}"));
            assert!(r.released() > 0);
        }
    }
}
