//! Storage sizing: how big a supercapacitor does a node need to never
//! miss a deadline? (The engineering question behind the paper's
//! Table 1.)
//!
//! ```sh
//! cargo run --release --example capacity_sizing
//! ```

use harvest_rt::exp::figures::{min_zero_miss_capacity, RunPlan};
use harvest_rt::prelude::*;

fn main() {
    let trials = 5; // task sets every candidate capacity must satisfy
    let plan = RunPlan::new(4);

    println!("minimum zero-miss storage capacity (over {trials} random task sets)");
    println!();
    println!("   U    Cmin(LSA)  Cmin(EA-DVFS)  ratio");
    println!("------------------------------------------");
    for u in [0.2, 0.4, 0.6, 0.8] {
        let (lsa, _) = min_zero_miss_capacity(PolicyKind::Lsa, u, trials, 1e7, 0.01, plan);
        let (ea, _) = min_zero_miss_capacity(PolicyKind::EaDvfs, u, trials, 1e7, 0.01, plan);
        println!("  {u:.1}  {lsa:9.0}  {ea:13.0}  {:5.2}", lsa / ea);
    }
    println!();
    println!("Paper's Table 1 reports ratios 2.5 / 1.33 / 1.05 / 1.01: the cheaper");
    println!("the workload, the more storage EA-DVFS saves the hardware designer.");
}
