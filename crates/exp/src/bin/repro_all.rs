//! Runs the entire evaluation — Figures 5–9 and Table 1 — with one
//! command and prints a compact paper-vs-measured summary.

use harvest_exp::cli::CliArgs;
use harvest_exp::figures::{
    min_capacity_table, miss_rate_figure, remaining_energy_figure, source_figure,
};
use harvest_exp::report::{fmt_num, Table};
use harvest_exp::scenario::PolicyKind;
use harvest_exp::store::store_from_env;

fn main() {
    let args = CliArgs::parse(20);
    let store = store_from_env();
    let plan = args.plan(store.as_ref());
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
    println!(
        "EA-DVFS reproduction — full evaluation ({} trials/point, {} threads)",
        args.trials, args.threads
    );
    println!();

    // Fig. 5 — source sanity.
    let src = source_figure(args.seed, 10_000);
    println!(
        "[fig5] source: mean {} (paper ~2), peak {} (paper ~20)",
        fmt_num(src.mean),
        fmt_num(src.max)
    );

    // Figs. 6-7 — remaining energy.
    for (label, u) in [("fig6", 0.4), ("fig7", 0.8)] {
        let (fig, _) = remaining_energy_figure(u, &policies, args.trials, 100, plan);
        let lsa = fig.mean_level(PolicyKind::Lsa).unwrap();
        let ea = fig.mean_level(PolicyKind::EaDvfs).unwrap();
        println!(
            "[{label}] U={u}: mean normalized remaining energy LSA {} vs EA-DVFS {}",
            fmt_num(lsa),
            fmt_num(ea)
        );
    }

    // Figs. 8-9 — miss rates.
    for (label, u) in [("fig8", 0.4), ("fig9", 0.8)] {
        let (fig, _) = miss_rate_figure(u, &policies, args.trials, plan);
        let lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
        let ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
        let reduction = 100.0 * (lsa - ea) / lsa.max(1e-12);
        println!(
            "[{label}] U={u}: mean miss rate LSA {} vs EA-DVFS {} (reduction {:.0}%)",
            fmt_num(lsa),
            fmt_num(ea),
            reduction
        );
    }

    // Table 1 — minimum storage ratio.
    let (t1, _) = min_capacity_table(&[0.2, 0.4, 0.6, 0.8], args.trials, plan);
    let mut table = Table::new(vec!["U", "ratio (paper)", "ratio (measured)"]);
    let paper = [2.5, 1.33, 1.05, 1.01];
    for (row, p) in t1.rows.iter().zip(paper) {
        table.row(vec![
            format!("{:.1}", row.utilization),
            format!("{p:.2}"),
            format!("{:.2}", row.ratio),
        ]);
    }
    println!();
    println!(
        "[table1] Cmin-LSA / Cmin-EA-DVFS ({} task sets per utilization)",
        t1.trials
    );
    println!("{}", table.render());
}
