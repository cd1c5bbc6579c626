//! Figure 8 — deadline miss rate vs. normalized storage capacity at
//! U = 0.4: EA-DVFS cuts the miss rate by ≥50% on average vs. LSA.

use harvest_exp::cli::CliArgs;
use harvest_exp::figures::miss_rate_figure;
use harvest_exp::report::{fmt_num, Table};
use harvest_exp::scenario::PolicyKind;
use harvest_exp::store::store_from_env;

fn main() {
    let args = CliArgs::parse(30);
    let store = store_from_env();
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
    let (fig, _) = miss_rate_figure(0.4, &policies, args.trials, args.plan(store.as_ref()));

    println!(
        "Figure 8: deadline miss rate vs normalized capacity, U = 0.4 ({} task sets/point)",
        fig.trials
    );
    println!();
    let mut table = Table::new(vec!["C/Cmax", "LSA", "EA-DVFS", "reduction"]);
    for row in &fig.rows {
        let (lsa, ea) = (row.miss_rates[0], row.miss_rates[1]);
        let reduction = if lsa > 0.0 {
            format!("{:.0}%", 100.0 * (lsa - ea) / lsa)
        } else {
            "-".into()
        };
        table.row(vec![
            format!("{:.2}", row.normalized_capacity),
            fmt_num(lsa),
            fmt_num(ea),
            reduction,
        ]);
    }
    println!("{}", table.render());
    let mean_lsa = fig.mean_miss_rate(PolicyKind::Lsa).unwrap();
    let mean_ea = fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap();
    println!(
        "mean miss rate: LSA {} vs EA-DVFS {} (reduction {:.0}%)",
        fmt_num(mean_lsa),
        fmt_num(mean_ea),
        100.0 * (mean_lsa - mean_ea) / mean_lsa.max(1e-12),
    );
    println!("paper claim: EA-DVFS reduces the miss rate by over 50% on average at U = 0.4");
    args.maybe_write_csv(&table.to_csv());
    args.maybe_write_json("fig8", &fig);
}
