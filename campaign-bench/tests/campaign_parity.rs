//! The harness drives each campaign through the library's per-layer
//! calls; these tests pin that it computes exactly what the library's
//! own drivers compute — the `figure_fnv64` that `exp sweep` prints and
//! the `C_min` of `min_zero_miss_capacity_cached` — at seed base 0.

use std::time::Duration;

use harvest_campaign_bench::{figure_fnv64, run, Options, Report, Workload, POLICIES};
use harvest_exp::figures::{min_zero_miss_capacity_cached, miss_rate_figure_grouped, GroupingMode};
use harvest_exp::telemetry::CampaignTelemetry;

const SEEDS: usize = 3;

fn run_workload(workload: Workload) -> Report {
    let opts = Options {
        workload,
        seed_base: 0,
        seeds: SEEDS,
        // Long enough to wrap the small grids, so repeated cells are
        // compared with their first run too.
        budget: Duration::from_millis(300),
        trace: false,
        work_dir: std::path::Path::new(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("parity-{}", workload.name())),
        trace_out: None,
    };
    let report = run(&opts).expect("campaign runs");
    assert_eq!(report.failed, 0, "{:?}", report.failures);
    assert!(report.attempted > 0);
    report
}

fn sweep_fnv64(utilization: f64, batch: usize, grouping: GroupingMode) -> u64 {
    let (figure, _) = miss_rate_figure_grouped(
        None,
        utilization,
        &POLICIES,
        SEEDS,
        2,
        batch,
        grouping,
        &CampaignTelemetry::off(),
    );
    figure_fnv64(&figure)
}

#[test]
fn fig9_cold_matches_exp_sweep() {
    let report = run_workload(Workload::Fig9Cold);
    assert_eq!(
        report.figure_fnv64,
        Some(sweep_fnv64(0.8, 1, GroupingMode::Seed))
    );
}

#[test]
fn fig8_lockstep_matches_exp_sweep_policy_batches() {
    let report = run_workload(Workload::Fig8Lockstep);
    assert_eq!(
        report.figure_fnv64,
        Some(sweep_fnv64(0.4, 4, GroupingMode::Policy))
    );
}

#[test]
fn fig9_warm_answers_every_probe_with_the_fill() {
    let report = run_workload(Workload::Fig9Warm);
    assert!(report.store_probes > 0);
    assert_eq!(
        report.store_hits, report.store_probes,
        "hit fraction must be 1"
    );
    assert_eq!(
        report.figure_fnv64,
        Some(sweep_fnv64(0.8, 1, GroupingMode::Seed))
    );
}

#[test]
fn table1_search_matches_min_zero_miss_capacity() {
    let report = run_workload(Workload::Table1Search);
    assert_eq!(report.cmin.len(), 8);
    for (utilization, policy, cmin) in report.cmin {
        let (expected, _) =
            min_zero_miss_capacity_cached(None, policy, utilization, SEEDS, 2, 1e7, 0.005);
        assert_eq!(cmin, expected, "U={utilization} {}", policy.name());
    }
}
