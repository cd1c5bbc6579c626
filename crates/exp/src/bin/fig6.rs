//! Figure 6 — normalized remaining energy over time at U = 0.4:
//! EA-DVFS stores significantly more energy than LSA.

use harvest_exp::cli::CliArgs;
use harvest_exp::figures::remaining_energy_figure;
use harvest_exp::report::{ascii_plot, fmt_num, Table};
use harvest_exp::scenario::PolicyKind;
use harvest_exp::store::store_from_env;

fn main() {
    let args = CliArgs::parse_grid(20);
    let store = store_from_env();
    let policies = [PolicyKind::EaDvfs, PolicyKind::Lsa];
    let (fig, _) =
        remaining_energy_figure(0.4, &policies, args.trials, 100, args.plan(store.as_ref()));

    println!(
        "Figure 6: normalized remaining energy, U = 0.4 ({} task sets x {} capacities)",
        fig.trials,
        fig.capacities.len()
    );
    println!();
    let ea = fig.curve(PolicyKind::EaDvfs).unwrap();
    let lsa = fig.curve(PolicyKind::Lsa).unwrap();
    println!(
        "{}",
        ascii_plot(&[("EA-DVFS", ea), ("LSA", lsa)], "t (x100 units)", 100, 16)
    );
    println!(
        "time-averaged normalized remaining energy: EA-DVFS {} vs LSA {}",
        fmt_num(fig.mean_level(PolicyKind::EaDvfs).unwrap()),
        fmt_num(fig.mean_level(PolicyKind::Lsa).unwrap()),
    );
    println!("paper shape: EA-DVFS curve sits clearly above LSA");
    println!();
    let mut breakdown = Table::new(vec!["capacity", "EA-DVFS", "LSA", "gap"]);
    for (c, row) in fig.capacities.iter().zip(&fig.per_capacity) {
        breakdown.row(vec![
            fmt_num(*c),
            format!("{:.3}", row[0]),
            format!("{:.3}", row[1]),
            format!("{:+.3}", row[0] - row[1]),
        ]);
    }
    println!("per-capacity time-averaged normalized level:");
    println!("{}", breakdown.render());

    let mut csv = Table::new(vec!["t", "ea_dvfs", "lsa"]);
    for ((t, e), l) in fig.times.iter().zip(ea).zip(lsa) {
        csv.row(vec![fmt_num(*t), fmt_num(*e), fmt_num(*l)]);
    }
    args.maybe_write_csv(&csv.to_csv());
    args.maybe_write_json("fig6", &fig);
}
