//! Table 1 — the ratio of minimum storage capacities
//! `C_min,LSA / C_min,EA-DVFS` needed for zero deadline misses, swept
//! over utilization.

use harvest_exp::cli::CliArgs;
use harvest_exp::figures::min_capacity_table;
use harvest_exp::report::{fmt_num, Table};
use harvest_exp::store::store_from_env;

fn main() {
    let args = CliArgs::parse(10);
    let store = store_from_env();
    let utils = [0.2, 0.4, 0.6, 0.8];
    let (table1, _) = min_capacity_table(&utils, args.trials, args.plan(store.as_ref()));

    println!(
        "Table 1: minimum storage capacity for zero miss rate ({} task sets per point)",
        table1.trials
    );
    println!();
    let mut table = Table::new(vec!["U", "Cmin-LSA", "Cmin-EA-DVFS", "ratio"]);
    for row in &table1.rows {
        table.row(vec![
            format!("{:.1}", row.utilization),
            fmt_num(row.cmin_lsa),
            fmt_num(row.cmin_ea_dvfs),
            format!("{:.2}", row.ratio),
        ]);
    }
    println!("{}", table.render());
    println!("paper row:   U = 0.2 / 0.4 / 0.6 / 0.8  ->  2.50 / 1.33 / 1.05 / 1.01");
    println!("expectation: ratio large at low U, approaching 1 as U grows");
    args.maybe_write_csv(&table.to_csv());
    args.maybe_write_json("table1", &table1);
}
