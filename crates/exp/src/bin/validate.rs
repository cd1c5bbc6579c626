//! Quick PASS/FAIL validation of every paper claim at reduced scale —
//! a reproduction smoke test that finishes in well under a minute.
//!
//! ```sh
//! cargo run --release -p harvest-exp --bin validate
//! ```
//!
//! Exit code 0 when every claim holds, 1 otherwise.

use harvest_exp::cli::CliArgs;
use harvest_exp::figures::{
    min_zero_miss_capacity, miss_rate_figure, remaining_energy_figure, source_figure,
};
use harvest_exp::scenario::PolicyKind;
use harvest_exp::store::store_from_env;

struct Check {
    name: &'static str,
    passed: bool,
    detail: String,
}

fn main() {
    let args = CliArgs::parse(5);
    let store = store_from_env();
    let (trials, plan) = (args.trials, args.plan(store.as_ref()));
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
    let mut checks: Vec<Check> = Vec::new();

    // Fig. 5: source statistics.
    let src = source_figure(args.seed, 10_000);
    checks.push(Check {
        name: "fig5: eq.13 source mean ~2, non-negative",
        passed: (src.mean - 2.0).abs() < 0.4 && src.power.iter().all(|&p| p >= 0.0),
        detail: format!("mean {:.3}, peak {:.1}", src.mean, src.max),
    });

    // Figs. 6/7: remaining-energy ordering and gap collapse.
    let (fig6, _) = remaining_energy_figure(0.4, &policies, trials, 200, plan);
    let (fig7, _) = remaining_energy_figure(0.8, &policies, trials, 200, plan);
    let gap6 = fig6.per_capacity[0][1] - fig6.per_capacity[0][0]; // EA − LSA at C=200
    let gap7 = fig7.per_capacity[0][1] - fig7.per_capacity[0][0];
    checks.push(Check {
        name: "fig6: EA-DVFS stores more at U=0.4 (C=200)",
        passed: gap6 > 0.0,
        detail: format!("gap {gap6:+.3}"),
    });
    checks.push(Check {
        name: "fig7: gap collapses at U=0.8",
        passed: gap7.abs() < gap6.abs() || gap7.abs() < 0.02,
        detail: format!("gap {gap7:+.3} vs {gap6:+.3}"),
    });

    // Figs. 8/9: miss-rate reduction and its shrinkage.
    let (fig8, _) = miss_rate_figure(0.4, &policies, trials, plan);
    let (l8, e8) = (
        fig8.mean_miss_rate(PolicyKind::Lsa).unwrap(),
        fig8.mean_miss_rate(PolicyKind::EaDvfs).unwrap(),
    );
    let red8 = (l8 - e8) / l8.max(1e-12);
    checks.push(Check {
        name: "fig8: >=35% average miss-rate reduction at U=0.4",
        passed: red8 > 0.35,
        detail: format!("LSA {l8:.3} vs EA {e8:.3} ({:.0}%)", 100.0 * red8),
    });
    let (fig9, _) = miss_rate_figure(0.8, &policies, trials, plan);
    let (l9, e9) = (
        fig9.mean_miss_rate(PolicyKind::Lsa).unwrap(),
        fig9.mean_miss_rate(PolicyKind::EaDvfs).unwrap(),
    );
    let red9 = (l9 - e9) / l9.max(1e-12);
    checks.push(Check {
        name: "fig9: reduction shrinks at U=0.8, EA never worse",
        passed: e9 <= l9 + 0.02 && red9 < red8,
        detail: format!("LSA {l9:.3} vs EA {e9:.3} ({:.0}%)", 100.0 * red9),
    });

    // Table 1: storage ratio shape.
    let ratio_at = |u: f64| {
        let (lsa, _) = min_zero_miss_capacity(PolicyKind::Lsa, u, trials, 1e7, 0.01, plan);
        let (ea, _) = min_zero_miss_capacity(PolicyKind::EaDvfs, u, trials, 1e7, 0.01, plan);
        lsa / ea
    };
    let (r02, r08) = (ratio_at(0.2), ratio_at(0.8));
    checks.push(Check {
        name: "table1: Cmin ratio large at U=0.2, ~1 at U=0.8",
        passed: r02 > 1.15 && r08 < r02 && r08 < 1.5,
        detail: format!("ratio(0.2) {r02:.2}, ratio(0.8) {r08:.2}"),
    });

    // The exit below skips destructors: close the store first so its
    // records are synced and its sidecars land.
    drop(store);

    println!("EA-DVFS reproduction validation ({trials} trials/point)");
    println!();
    let mut all_ok = true;
    for c in &checks {
        let mark = if c.passed { "PASS" } else { "FAIL" };
        all_ok &= c.passed;
        println!("[{mark}] {:55} {}", c.name, c.detail);
    }
    println!();
    if all_ok {
        println!("all {} claims hold", checks.len());
    } else {
        println!("some claims FAILED — raise --trials before concluding");
        std::process::exit(1);
    }
}
