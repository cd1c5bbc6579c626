//! Offline analysis before deploying: is the workload schedulable, is
//! the source sustainable, and roughly how much storage does the worst
//! harvest lull call for? Then check the verdicts by simulation.
//!
//! ```sh
//! cargo run --release --example offline_analysis
//! ```

use harvest_rt::prelude::*;
use harvest_rt::task::analysis::{
    edf_schedulable, is_sustainable, mean_power_demand, worst_case_deficit, Schedulability,
};

fn main() {
    // A candidate firmware workload.
    let tasks = TaskSet::new(vec![
        Task::periodic_implicit(SimDuration::from_whole_units(10), 1.2),
        Task::periodic_implicit(SimDuration::from_whole_units(25), 5.0),
        Task::periodic(
            SimTime::ZERO,
            SimDuration::from_whole_units(50),
            SimDuration::from_whole_units(30), // constrained deadline
            8.0,
        ),
    ]);
    let cpu = presets::xscale();

    println!(
        "workload: {} tasks, U = {:.3}",
        tasks.len(),
        tasks.utilization()
    );

    // 1. Timing: EDF processor-demand analysis.
    match edf_schedulable(&tasks) {
        Schedulability::Schedulable => println!("timing  : EDF-schedulable at full speed"),
        Schedulability::Unschedulable { witness } => {
            println!("timing  : NOT schedulable (witness window {witness:?})");
            return;
        }
    }

    // 2. Energy: sustainability against a day/night site profile.
    let mut site = DayNightSource::new(
        4.5,
        0.1,
        SimDuration::from_whole_units(200),
        SimDuration::from_whole_units(90),
    );
    let profile = sample_profile(
        &mut site,
        SimTime::ZERO,
        SimDuration::from_whole_units(4_000),
        SimDuration::from_whole_units(1),
        0,
    )
    .expect("valid grid");
    let demand = mean_power_demand(&tasks, cpu.max_power());
    println!(
        "energy  : site mean {:.2} vs demand {:.2} -> sustainable: {}",
        profile.domain_mean(),
        demand,
        is_sustainable(&profile, &tasks, cpu.max_power())
    );

    // 3. Storage sizing: the worst-case lull deficit at full-speed
    //    demand is a fluid estimate, not a bound. On the paper's
    //    workloads it exceeded the simulated zero-miss capacity of
    //    EA-DVFS on 64 of 64 task sets and of LSA on 59 of 64, so the
    //    simulation in step 4 is what confirms the choice.
    let deficit = worst_case_deficit(&profile, demand);
    let capacity = deficit * 1.5; // engineering margin
    println!("storage : worst-case deficit {deficit:.1} -> provision C = {capacity:.1}");

    // 4. Confirm by simulation with EA-DVFS.
    let config = SystemConfig::new(
        cpu,
        StorageSpec::ideal(capacity),
        SimDuration::from_whole_units(4_000),
    );
    let result = simulate(
        config,
        &tasks,
        profile.clone(),
        Box::new(EaDvfsScheduler::new()),
        Box::new(OraclePredictor::new(profile)),
    );
    println!(
        "simulate: {} released, {} missed (miss rate {:.4}), {} DVFS switches",
        result.released(),
        result.missed(),
        result.miss_rate(),
        result.switches
    );
    println!(
        "          energy harvested {:.0}, consumed {:.0}, final level {:.1}",
        result.energy.harvested, result.energy.consumed, result.energy.final_level
    );
}
