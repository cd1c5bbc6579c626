//! Property-based tests of sources, predictors, and storage evolution.

use harvest_energy::predictor::{
    EnergyPredictor, EwmaSlotPredictor, MovingAveragePredictor, OraclePredictor,
    PersistencePredictor,
};
use harvest_energy::source::{sample_profile, HarvestSource};
use harvest_energy::sources::{ConstantSource, DayNightSource, SolarModel};
use harvest_energy::storage::StorageSpec;
use harvest_sim::piecewise::{CrossingTiers, Extension, PiecewiseConstant, Segment};
use harvest_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = PiecewiseConstant> {
    (proptest::collection::vec(0.0f64..8.0, 1..30), 1i64..4).prop_map(|(values, dt)| {
        PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(dt),
            values,
            Extension::Hold,
        )
        .expect("valid grid")
    })
}

proptest! {
    /// Ideal storage advance conserves energy exactly:
    /// Δlevel = harvested − delivered − overflow (deficit is demand that
    /// was never served, so it does not enter).
    #[test]
    fn ideal_advance_conserves_energy(
        profile in profile_strategy(),
        level_frac in 0.0f64..1.0,
        load in 0.0f64..6.0,
        span in 1i64..200,
    ) {
        let cap = 25.0;
        let spec = StorageSpec::ideal(cap);
        let level = level_frac * cap;
        let to = SimTime::from_whole_units(span);
        let report = spec.advance(level, &profile, SimTime::ZERO, to, load);
        let harvested = profile.integrate(SimTime::ZERO, to);
        let lhs = report.level - level;
        let rhs = harvested - report.delivered - report.overflow;
        prop_assert!((lhs - rhs).abs() < 1e-6,
            "Δlevel {lhs} vs flow balance {rhs} ({report:?})");
        prop_assert!(report.level >= 0.0 && report.level <= cap);
        prop_assert!(report.delivered >= -1e-12 && report.overflow >= -1e-12);
        prop_assert!(report.deficit >= -1e-12);
        // Demand accounting: delivered + deficit = load · span.
        let demand = load * span as f64;
        prop_assert!((report.delivered + report.deficit - demand).abs() < 1e-6);
    }

    /// Splitting an advance window at any interior point gives the same
    /// final level and totals as one call.
    #[test]
    fn advance_is_window_compositional(
        profile in profile_strategy(),
        level_frac in 0.0f64..1.0,
        load in 0.0f64..6.0,
        cut in 1i64..100,
        rest in 1i64..100,
    ) {
        let cap = 25.0;
        let spec = StorageSpec::ideal(cap);
        let level = level_frac * cap;
        let mid = SimTime::from_whole_units(cut);
        let end = SimTime::from_whole_units(cut + rest);
        let whole = spec.advance(level, &profile, SimTime::ZERO, end, load);
        let first = spec.advance(level, &profile, SimTime::ZERO, mid, load);
        let second = spec.advance(first.level, &profile, mid, end, load);
        prop_assert!((whole.level - second.level).abs() < 1e-6);
        prop_assert!((whole.delivered - (first.delivered + second.delivered)).abs() < 1e-6);
        prop_assert!((whole.overflow - (first.overflow + second.overflow)).abs() < 1e-6);
        prop_assert!((whole.deficit - (first.deficit + second.deficit)).abs() < 1e-6);
    }

    /// first_crossing agrees with advance: evolving to the reported
    /// instant lands on the target level (within tick rounding).
    #[test]
    fn first_crossing_agrees_with_advance(
        profile in profile_strategy(),
        level_frac in 0.01f64..0.99,
        target_frac in 0.0f64..1.0,
        load in 0.0f64..6.0,
    ) {
        let cap = 25.0;
        let spec = StorageSpec::ideal(cap);
        let level = level_frac * cap;
        let target = target_frac * cap;
        let horizon = SimTime::from_whole_units(300);
        let mut tiers = CrossingTiers::default();
        if let Some(t) =
            spec.first_crossing(&mut tiers, level, target, &profile, SimTime::ZERO, horizon, load)
        {
            let at = spec.advance(level, &profile, SimTime::ZERO, t, load);
            let max_rate = profile.domain_max() + load + 1.0;
            prop_assert!((at.level - target).abs() <= 2.0 * max_rate / 1e6 + 1e-9,
                "level {} vs target {target} at {t}", at.level);
        }
    }

    /// Non-ideal storage never outperforms ideal storage: same window,
    /// same load → the lossy store ends no fuller and delivers no more.
    #[test]
    fn losses_never_help(
        profile in profile_strategy(),
        level_frac in 0.0f64..1.0,
        load in 0.0f64..6.0,
        span in 1i64..150,
        eta in 0.5f64..1.0,
    ) {
        let cap = 25.0;
        let ideal = StorageSpec::ideal(cap);
        let lossy = StorageSpec::ideal(cap)
            .with_charge_efficiency(eta)
            .with_discharge_efficiency(eta);
        let level = level_frac * cap;
        let to = SimTime::from_whole_units(span);
        let a = ideal.advance(level, &profile, SimTime::ZERO, to, load);
        let b = lossy.advance(level, &profile, SimTime::ZERO, to, load);
        prop_assert!(b.level <= a.level + 1e-9, "lossy {} vs ideal {}", b.level, a.level);
        prop_assert!(b.delivered <= a.delivered + 1e-9);
    }

    /// Sampled source realizations are non-negative, finite, and
    /// deterministic per seed.
    #[test]
    fn sampling_is_sane(seed in 0u64..500, amplitude in 0.5f64..20.0) {
        let mut model = SolarModel::new(amplitude, 100.0);
        let horizon = SimDuration::from_whole_units(200);
        let dt = SimDuration::from_whole_units(1);
        let a = sample_profile(&mut model, SimTime::ZERO, horizon, dt, seed).unwrap();
        let mut model2 = SolarModel::new(amplitude, 100.0);
        let b = sample_profile(&mut model2, SimTime::ZERO, horizon, dt, seed).unwrap();
        prop_assert_eq!(&a, &b);
        prop_assert!(a.domain_min() >= 0.0);
        prop_assert!(a.domain_max().is_finite());
    }

    /// Every predictor returns finite non-negative energies that grow
    /// (weakly) with the window.
    #[test]
    fn predictions_are_monotone_in_window(
        observations in proptest::collection::vec(0.0f64..5.0, 1..30),
        w1 in 0i64..100,
        w2 in 0i64..100,
    ) {
        let (short, long) = (w1.min(w2), w1.max(w2));
        let profile = PiecewiseConstant::from_samples(
            SimTime::ZERO,
            SimDuration::from_whole_units(1),
            observations.clone(),
            Extension::Hold,
        ).unwrap();
        let now = SimTime::from_whole_units(observations.len() as i64);
        let mut predictors: Vec<Box<dyn EnergyPredictor>> = vec![
            Box::new(OraclePredictor::new(profile.clone())),
            Box::new(PersistencePredictor::new()),
            Box::new(MovingAveragePredictor::new(SimDuration::from_whole_units(10))),
            Box::new(EwmaSlotPredictor::new(SimDuration::from_whole_units(20), 4, 0.5)),
        ];
        for p in &mut predictors {
            for (i, &v) in observations.iter().enumerate() {
                p.observe(Segment {
                    start: SimTime::from_whole_units(i as i64),
                    end: SimTime::from_whole_units(i as i64 + 1),
                    value: v,
                });
            }
            let e_short = p.predict_energy(now, now + SimDuration::from_whole_units(short));
            let e_long = p.predict_energy(now, now + SimDuration::from_whole_units(long));
            prop_assert!(e_short.is_finite() && e_short >= 0.0, "{}", p.name());
            prop_assert!(e_long + 1e-9 >= e_short,
                "{}: window {short} gives {e_short}, window {long} gives {e_long}",
                p.name());
        }
    }

    /// Day/night sources repeat exactly with their cycle.
    #[test]
    fn daynight_is_periodic(t in 0i64..10_000, day in 1i64..50, cycle_extra in 1i64..50) {
        let cycle = day + cycle_extra;
        let mut src = DayNightSource::new(
            5.0,
            0.5,
            SimDuration::from_whole_units(cycle),
            SimDuration::from_whole_units(day),
        );
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(0);
        let a = src.draw(SimTime::from_whole_units(t), &mut rng);
        let b = src.draw(SimTime::from_whole_units(t + cycle), &mut rng);
        prop_assert_eq!(a, b);
    }

    /// Constant sources integrate to power × span through the whole
    /// sampling pipeline.
    #[test]
    fn constant_source_round_trip(power in 0.0f64..10.0, span in 1i64..500) {
        let profile = sample_profile(
            &mut ConstantSource::new(power),
            SimTime::ZERO,
            SimDuration::from_whole_units(span),
            SimDuration::from_whole_units(1),
            7,
        ).unwrap();
        let e = profile.integrate(SimTime::ZERO, SimTime::from_whole_units(span));
        prop_assert!((e - power * span as f64).abs() < 1e-9 * (1.0 + e.abs()));
    }
}
