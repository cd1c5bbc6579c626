//! Property-based tests of the simulation-kernel primitives.

use harvest_sim::event::EventQueue;
use harvest_sim::piecewise::{CrossingTiers, Extension, PiecewiseConstant};
use harvest_sim::stats::RunningStats;
use harvest_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = PiecewiseConstant> {
    (
        proptest::collection::vec(0.0f64..10.0, 1..40),
        1i64..5,
        prop_oneof![Just(Extension::Hold), Just(Extension::Cycle)],
    )
        .prop_map(|(values, dt, ext)| {
            PiecewiseConstant::from_samples(
                SimTime::ZERO,
                SimDuration::from_whole_units(dt),
                values,
                ext,
            )
            .expect("valid grid")
        })
}

/// Like [`profile_strategy`], but with sign-changing values, so the
/// prefix-vs-naive parity properties also exercise profiles whose
/// integral is non-monotone.
fn signed_profile_strategy() -> impl Strategy<Value = PiecewiseConstant> {
    (
        proptest::collection::vec(-6.0f64..10.0, 1..40),
        1i64..5,
        prop_oneof![Just(Extension::Hold), Just(Extension::Cycle)],
    )
        .prop_map(|(values, dt, ext)| {
            PiecewiseConstant::from_samples(
                SimTime::ZERO,
                SimDuration::from_whole_units(dt),
                values,
                ext,
            )
            .expect("valid grid")
        })
}

/// A profile drawn as the raw lists it is built from: breakpoints in
/// ticks (uniformly spaced or not), one value per segment, and the
/// extension rule. Uniform `Hold` breakpoints build a grid, which keeps
/// no breakpoint table; every other draw builds a table.
fn raw_profile_strategy() -> impl Strategy<Value = (Vec<i64>, Vec<f64>, Extension)> {
    (
        -5_000_000i64..5_000_000,
        prop_oneof![
            (100_000i64..3_000_000, 1usize..30).prop_map(|(gap, n)| vec![gap; n]),
            proptest::collection::vec(100_000i64..3_000_000, 1..30),
        ],
        proptest::collection::vec(-6.0f64..10.0, 30),
        prop_oneof![Just(Extension::Hold), Just(Extension::Cycle)],
    )
        .prop_map(|(start, gaps, mut values, ext)| {
            let mut breakpoints = vec![start];
            for gap in &gaps {
                breakpoints.push(breakpoints.last().unwrap() + gap);
            }
            values.truncate(gaps.len());
            (breakpoints, values, ext)
        })
}

/// The segments a window `[t1, t2)` must yield, derived from the raw
/// lists alone: each breakpoint interval with its value, plus the two
/// held tails under `Hold` or one copy of the domain per period the
/// window touches under `Cycle`, each clipped to the window, in order.
fn expected_segments(
    breakpoints: &[i64],
    values: &[f64],
    ext: Extension,
    (t1, t2): (i64, i64),
) -> Vec<(i64, i64, u64)> {
    let n = values.len();
    let mut pieces = Vec::new();
    match ext {
        Extension::Hold => {
            pieces.push((i64::MIN, breakpoints[0], values[0]));
            for i in 0..n {
                pieces.push((breakpoints[i], breakpoints[i + 1], values[i]));
            }
            pieces.push((breakpoints[n], i64::MAX, values[n - 1]));
        }
        Extension::Cycle => {
            let period = breakpoints[n] - breakpoints[0];
            let first = (t1 - breakpoints[0]).div_euclid(period);
            let last = (t2 - 1 - breakpoints[0]).div_euclid(period);
            for k in first..=last {
                for i in 0..n {
                    let shift = k * period;
                    pieces.push((
                        breakpoints[i] + shift,
                        breakpoints[i + 1] + shift,
                        values[i],
                    ));
                }
            }
        }
    }
    pieces
        .into_iter()
        .filter_map(|(a, b, v)| {
            let (start, end) = (a.max(t1), b.min(t2));
            (start < end).then_some((start, end, v.to_bits()))
        })
        .collect()
}

proptest! {
    /// ∫[a,c) = ∫[a,b) + ∫[b,c) for any a ≤ b ≤ c.
    #[test]
    fn integral_is_additive(
        profile in profile_strategy(),
        raw in proptest::collection::vec(-50.0f64..250.0, 3),
    ) {
        let mut ts: Vec<SimTime> = raw.iter().map(|&u| SimTime::from_units(u)).collect();
        ts.sort();
        let (a, b, c) = (ts[0], ts[1], ts[2]);
        let whole = profile.integrate(a, c);
        let split = profile.integrate(a, b) + profile.integrate(b, c);
        prop_assert!((whole - split).abs() < 1e-9 * (1.0 + whole.abs()),
            "{whole} vs {split}");
    }

    /// The integral over a window is bounded by min/max value times the
    /// window length (non-negative profiles).
    #[test]
    fn integral_respects_bounds(
        profile in profile_strategy(),
        a in 0.0f64..100.0,
        len in 0.0f64..100.0,
    ) {
        let t1 = SimTime::from_units(a);
        let t2 = SimTime::from_units(a + len);
        let e = profile.integrate(t1, t2);
        let span = (t2 - t1).as_units();
        let hi = profile.domain_max() * span;
        prop_assert!(e >= -1e-9, "integral {e} of a non-negative profile");
        prop_assert!(e <= hi + 1e-9, "integral {e} above max bound {hi}");
    }

    /// Segments returned over a window tile it exactly and agree with
    /// point lookups.
    #[test]
    fn segments_tile_window(
        profile in profile_strategy(),
        a in -20.0f64..150.0,
        len in 0.01f64..120.0,
    ) {
        let t1 = SimTime::from_units(a);
        let t2 = SimTime::from_units(a + len);
        let segs: Vec<_> = profile.segments_between(t1, t2).collect();
        prop_assert!(!segs.is_empty());
        prop_assert_eq!(segs.first().unwrap().start, t1);
        prop_assert_eq!(segs.last().unwrap().end, t2);
        for w in segs.windows(2) {
            prop_assert_eq!(w[0].end, w[1].start, "gap in tiling");
        }
        for seg in &segs {
            prop_assert_eq!(profile.value_at(seg.start), seg.value);
        }
    }

    /// `segments_between` — the walk under `integrate_naive` and
    /// `first_accumulation_crossing_naive`, the references the other
    /// properties trust — yields exactly the segments the raw lists and
    /// the extension rule define, on grids and on tables, for windows
    /// before, across and past the domain and across many periods.
    #[test]
    fn segments_match_the_raw_lists(
        (breakpoints, values, ext) in raw_profile_strategy(),
        (a, len) in (-120_000_000i64..120_000_000, 0i64..60_000_000),
        snap in 0usize..64,
    ) {
        // Half the windows start on a breakpoint.
        let a = if snap < 32 { breakpoints[snap % breakpoints.len()] } else { a };
        let profile = PiecewiseConstant::new(
            breakpoints.iter().map(|&t| SimTime::from_ticks(t)).collect(),
            values.clone(),
            ext,
        )
        .expect("valid profile");
        let window = (a, a + len);
        let got: Vec<(i64, i64, u64)> = profile
            .segments_between(SimTime::from_ticks(window.0), SimTime::from_ticks(window.1))
            .map(|s| (s.start.as_ticks(), s.end.as_ticks(), s.value.to_bits()))
            .collect();
        prop_assert_eq!(got, expected_segments(&breakpoints, &values, ext, window));
    }

    /// The event queue pops in (time, insertion) order regardless of
    /// the push order.
    #[test]
    fn event_queue_is_stable_priority_queue(
        times in proptest::collection::vec(0i64..1_000, 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_ticks(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(item) = q.pop() {
            popped.push(item);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// Welford merge equals sequential accumulation on arbitrary splits.
    #[test]
    fn running_stats_merge_any_split(
        data in proptest::collection::vec(-1e6f64..1e6, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(data.len());
        let (a, b) = data.split_at(split);
        let mut left: RunningStats = a.iter().copied().collect();
        let right: RunningStats = b.iter().copied().collect();
        left.merge(&right);
        let all: RunningStats = data.iter().copied().collect();
        prop_assert_eq!(left.count(), all.count());
        prop_assert!((left.mean() - all.mean()).abs() <= 1e-6 * (1.0 + all.mean().abs()));
        let (v1, v2) = (left.population_variance(), all.population_variance());
        prop_assert!((v1 - v2).abs() <= 1e-6 * (1.0 + v2.abs()), "{v1} vs {v2}");
    }

    /// Accumulation crossing returns an instant at which stepping the
    /// level manually lands on the target (within tick rounding).
    #[test]
    fn accumulation_crossing_is_consistent(
        profile in profile_strategy(),
        initial_frac in 0.0f64..1.0,
        offset in -5.0f64..2.0,
        target_frac in 0.0f64..1.0,
    ) {
        let cap = 40.0;
        let initial = initial_frac * cap;
        let target = target_frac * cap;
        let horizon = SimTime::from_whole_units(500);
        if let Some(t) = profile.first_accumulation_crossing(
            &mut CrossingTiers::default(), SimTime::ZERO, horizon, initial, offset, cap, target,
        ) {
            prop_assert!(t >= SimTime::ZERO && t <= horizon);
            // Re-simulate the clamped accumulation up to t.
            let mut level = initial;
            for seg in profile.segments_between(SimTime::ZERO, t) {
                let rate = seg.value + offset;
                // Clamped linear evolution within the segment.
                let mut remaining = seg.duration().as_units();
                while remaining > 0.0 {
                    if (level <= 0.0 && rate < 0.0) || (level >= cap && rate > 0.0) {
                        break;
                    }
                    let until_clamp = if rate > 0.0 {
                        (cap - level) / rate
                    } else if rate < 0.0 {
                        level / -rate
                    } else {
                        f64::INFINITY
                    };
                    let step = remaining.min(until_clamp);
                    if step <= 0.0 { break; }
                    level = (level + rate * step).clamp(0.0, cap);
                    remaining -= step;
                }
            }
            // Tick rounding can overshoot by at most one tick of rate.
            let max_rate = profile.domain_max() + offset.abs() + 1.0;
            prop_assert!((level - target).abs() <= 2.0 * max_rate / 1e6 + 1e-9,
                "level {level} vs target {target} at {t}");
        }
    }

    /// The prefix-sum `integrate` agrees with the segment-walk baseline
    /// on arbitrary windows, including reversed (`t2 < t1`) and
    /// out-of-domain ones, under both extension rules.
    #[test]
    fn prefix_integrate_matches_segment_walk(
        profile in signed_profile_strategy(),
        a in -80.0f64..300.0,
        b in -80.0f64..300.0,
    ) {
        let t1 = SimTime::from_units(a);
        let t2 = SimTime::from_units(b);
        let fast = profile.integrate(t1, t2);
        let naive = profile.integrate_naive(t1, t2);
        let scale = 1.0 + naive.abs() + (b - a).abs();
        prop_assert!((fast - naive).abs() < 1e-9 * scale,
            "prefix {fast} vs naive {naive} over [{a}, {b})");
    }

    /// The tiered crossing solver (O(1) reject / monotone bisection /
    /// clamped scan with period skipping) agrees with the plain
    /// whole-window scan: same reachability verdict and, when reached,
    /// the same instant up to one tick.
    #[test]
    fn crossing_fast_path_matches_naive(
        profile in signed_profile_strategy(),
        initial_frac in 0.0f64..1.0,
        offset in -5.0f64..3.0,
        target_frac in 0.0f64..1.0,
        horizon_units in 1i64..400,
    ) {
        let cap = 30.0;
        let initial = initial_frac * cap;
        let target = target_frac * cap;
        let horizon = SimTime::from_whole_units(horizon_units);
        let fast = profile.first_accumulation_crossing(
            &mut CrossingTiers::default(), SimTime::ZERO, horizon, initial, offset, cap, target,
        );
        let naive = profile.first_accumulation_crossing_naive(
            SimTime::ZERO, horizon, initial, offset, cap, target,
        );
        match (fast, naive) {
            (Some(f), Some(n)) => {
                let diff = (f.as_ticks() - n.as_ticks()).abs();
                prop_assert!(diff <= 1, "fast {f} vs naive {n}");
            }
            (None, None) => {}
            // A crossing right at the horizon may round across it in one
            // path and not the other; anything else is a real divergence.
            (Some(f), None) => prop_assert!(
                horizon.as_ticks() - f.as_ticks() <= 1,
                "fast found {f}, naive found nothing before {horizon}"
            ),
            (None, Some(n)) => prop_assert!(
                horizon.as_ticks() - n.as_ticks() <= 1,
                "naive found {n}, fast found nothing before {horizon}"
            ),
        }
    }
}
