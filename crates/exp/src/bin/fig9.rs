//! Figure 9 — deadline miss rate vs. normalized storage capacity at
//! U = 0.8: EA-DVFS performs about as well as LSA (little slack left).

use harvest_exp::cli::CliArgs;
use harvest_exp::figures::miss_rate_figure;
use harvest_exp::report::{fmt_num, Table};
use harvest_exp::scenario::PolicyKind;
use harvest_exp::store::store_from_env;

fn main() {
    let args = CliArgs::parse_grid(30);
    let store = store_from_env();
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];
    let (fig, _) = miss_rate_figure(0.8, &policies, args.trials, args.plan(store.as_ref()));

    println!(
        "Figure 9: deadline miss rate vs normalized capacity, U = 0.8 ({} task sets/point)",
        fig.trials
    );
    println!();
    let mut table = Table::new(vec!["C/Cmax", "LSA", "EA-DVFS"]);
    for row in &fig.rows {
        table.row(vec![
            format!("{:.2}", row.normalized_capacity),
            fmt_num(row.miss_rates[0]),
            fmt_num(row.miss_rates[1]),
        ]);
    }
    println!("{}", table.render());
    println!(
        "mean miss rate: LSA {} vs EA-DVFS {}",
        fmt_num(fig.mean_miss_rate(PolicyKind::Lsa).unwrap()),
        fmt_num(fig.mean_miss_rate(PolicyKind::EaDvfs).unwrap()),
    );
    println!("paper claim: at U = 0.8 EA-DVFS performs about as well as LSA");
    args.maybe_write_csv(&table.to_csv());
    args.maybe_write_json("fig9", &fig);
}
