//! Statistical integration tests of the paper's headline claims, at a
//! scale small enough for CI but large enough to be stable.

use harvest_rt::exp::figures::{min_zero_miss_capacity, miss_rate_figure, source_figure, RunPlan};
use harvest_rt::prelude::*;

/// Fig. 5: the eq. 13 source realization has the paper's shape.
#[test]
fn source_statistics_match_eq13() {
    let fig = source_figure(0, 10_000);
    assert!((fig.mean - 2.0).abs() < 0.3, "mean {}", fig.mean);
    assert!(fig.max > 10.0, "peak {}", fig.max);
    // The cos² envelope forces recurring dead zones: a noticeable
    // fraction of samples must be near zero.
    let near_zero = fig.power.iter().filter(|&&p| p < 0.1).count();
    assert!(near_zero > 1_000, "only {near_zero} near-zero samples");
}

/// Mean normalized remaining energy at one capacity, averaged over
/// seeds — the kernel of the Fig. 6/7 procedure.
fn mean_remaining(policy: PolicyKind, utilization: f64, capacity: f64, trials: u64) -> f64 {
    let mut total = 0.0;
    for seed in 0..trials {
        let scenario = PaperScenario::new(utilization, capacity).with_sampling(200);
        let r = scenario.run(policy, seed);
        let run_mean: f64 = r.samples.iter().map(|&(_, v)| v).sum::<f64>() / r.samples.len() as f64;
        total += run_mean / capacity / trials as f64;
    }
    total
}

/// Fig. 6: at U = 0.4 the EA-DVFS system retains clearly more energy.
/// (The gap concentrates at small capacities — C = 200 is the smallest
/// of the paper's sweep and shows it most clearly.)
#[test]
fn fig6_ea_dvfs_retains_more_energy_at_low_utilization() {
    let lsa = mean_remaining(PolicyKind::Lsa, 0.4, 200.0, 6);
    let ea = mean_remaining(PolicyKind::EaDvfs, 0.4, 200.0, 6);
    assert!(
        ea > lsa + 0.03,
        "EA-DVFS should store noticeably more: ea {ea:.3} vs lsa {lsa:.3}"
    );
}

/// Fig. 7: at U = 0.8 the two systems store nearly the same energy —
/// the gap collapses relative to U = 0.4.
#[test]
fn fig7_curves_close_at_high_utilization() {
    let gap = |u: f64| {
        mean_remaining(PolicyKind::EaDvfs, u, 200.0, 6)
            - mean_remaining(PolicyKind::Lsa, u, 200.0, 6)
    };
    let gap_low_u = gap(0.4);
    let gap_high_u = gap(0.8);
    assert!(
        gap_high_u.abs() < gap_low_u.abs(),
        "high-U gap {gap_high_u:.3} should shrink vs low-U gap {gap_low_u:.3}"
    );
    assert!(
        gap_high_u.abs() < 0.05,
        "high-U gap should be small, got {gap_high_u:.3}"
    );
}

/// Fig. 8: at U = 0.4 EA-DVFS cuts the average miss rate by a large
/// margin (paper: over 50%).
#[test]
fn fig8_miss_rate_reduction_at_low_utilization() {
    let (fig, _) = miss_rate_figure(
        0.4,
        &[PolicyKind::Lsa, PolicyKind::EaDvfs],
        8,
        RunPlan::new(4),
    );
    let lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
    let ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
    assert!(lsa > 0.0, "sweep must include miss-inducing capacities");
    let reduction = (lsa - ea) / lsa;
    assert!(
        reduction > 0.35,
        "expected a large reduction, got {:.0}% (lsa {lsa:.3}, ea {ea:.3})",
        100.0 * reduction
    );
}

/// Fig. 9: at U = 0.8 the policies perform comparably.
#[test]
fn fig9_policies_comparable_at_high_utilization() {
    let (fig, _) = miss_rate_figure(
        0.8,
        &[PolicyKind::Lsa, PolicyKind::EaDvfs],
        8,
        RunPlan::new(4),
    );
    let lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
    let ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
    // EA-DVFS never does worse, and the relative gap collapses.
    assert!(ea <= lsa + 0.02, "ea {ea:.3} vs lsa {lsa:.3}");
    let rel_gap = (lsa - ea) / lsa.max(1e-9);
    assert!(
        rel_gap < 0.45,
        "relative gap should shrink at U = 0.8, got {rel_gap:.2}"
    );
}

/// Miss rates fall (weakly) as capacity grows, for both policies.
#[test]
fn miss_rate_decreases_with_capacity() {
    let (fig, _) = miss_rate_figure(
        0.4,
        &[PolicyKind::Lsa, PolicyKind::EaDvfs],
        6,
        RunPlan::new(4),
    );
    for policy in [PolicyKind::Lsa, PolicyKind::EaDvfs] {
        let curve = fig.curve(policy).unwrap();
        let first = curve.first().unwrap();
        let last = curve.last().unwrap();
        assert!(
            last <= first,
            "{}: miss rate should not grow with capacity ({first:.3} → {last:.3})",
            policy.name()
        );
    }
}

/// Table 1: the Cmin ratio is large at U = 0.2 and shrinks toward 1 as
/// utilization grows.
#[test]
fn table1_ratio_shrinks_with_utilization() {
    let trials = 3;
    let threads = 4;
    let ratio_at = |u: f64| {
        let plan = RunPlan::new(threads);
        let (lsa, _) = min_zero_miss_capacity(PolicyKind::Lsa, u, trials, 1e7, 0.01, plan);
        let (ea, _) = min_zero_miss_capacity(PolicyKind::EaDvfs, u, trials, 1e7, 0.01, plan);
        assert!(
            lsa.is_finite() && ea.is_finite(),
            "U={u}: search must converge"
        );
        lsa / ea
    };
    let low = ratio_at(0.2);
    let high = ratio_at(0.8);
    assert!(
        low > 1.15,
        "U=0.2 ratio should be clearly above 1, got {low:.2}"
    );
    assert!(high < low, "ratio should shrink: {low:.2} → {high:.2}");
    assert!(high < 1.5, "U=0.8 ratio should be near 1, got {high:.2}");
}

/// LSA's zero-miss outcome is monotone in capacity: a task set that
/// runs miss-free with some store also does with every larger one,
/// which lazy scheduling's optimality predicts. For each seed the
/// Table 1 search (doubling from 100, then bisecting to 0.5%) finds the
/// seed's own threshold, and every multiple of it up to 3× must stay
/// miss-free. A miss here is an LSA or engine bug, not noise.
#[test]
fn lsa_zero_miss_is_monotone_in_capacity() {
    for u in [0.2, 0.4, 0.6, 0.8] {
        for seed in 0..8 {
            let miss_free = |c: f64| {
                PaperScenario::new(u, c)
                    .run(PolicyKind::Lsa, seed)
                    .is_miss_free()
            };
            let (mut lo, mut hi) = (0.0_f64, 100.0_f64);
            while !miss_free(hi) {
                lo = hi;
                hi *= 2.0;
            }
            while hi - lo > 0.005 * hi {
                let mid = 0.5 * (lo + hi);
                if miss_free(mid) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            for k in [1.001, 1.01, 1.03, 1.07, 1.15, 1.3, 1.6, 2.0, 3.0] {
                assert!(
                    miss_free(k * hi),
                    "U={u} seed {seed}: miss-free at {hi}, misses at {k}x"
                );
            }
        }
    }
}
