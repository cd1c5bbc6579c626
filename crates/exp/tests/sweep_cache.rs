//! Figure- and cell-level sweep-store behaviour: warm re-runs are
//! bit-identical to cold ones and simulate nothing, corrupted records
//! are rejected and recomputed (never trusted), the capacity-search
//! bisection reuses stored probes, and a figure command run under
//! `HARVEST_SWEEP_STORE` appends through one store per process.

use std::path::{Path, PathBuf};
use std::process::Command;

use harvest_exp::figures::{
    min_zero_miss_capacity, miss_rate_figure, remaining_energy_figure, RunPlan,
};
use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool};
use harvest_exp::store::{PackStore, SWEEP_STORE_ENV};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("harvest-sweep-itest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Two worker threads against `store` (none when `None`).
fn plan(store: Option<&PackStore>) -> RunPlan<'_> {
    RunPlan {
        store,
        ..RunPlan::new(2)
    }
}

#[test]
fn warm_miss_rate_rerun_is_bit_identical_and_simulates_nothing() {
    let dir = scratch_dir("missrate");
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];

    let store = PackStore::open(&dir).unwrap();
    let (cold, cold_stats) = miss_rate_figure(0.4, &policies, 1, plan(Some(&store)));
    assert!(cold_stats.simulated > 0, "cold run must simulate");
    assert_eq!(cold_stats.cached, 0);
    assert_eq!(
        cold_stats.pool.runs, cold_stats.simulated,
        "every simulated cell must go through a pooled context"
    );
    assert!(cold_stats.pool.event_slab_high_water > 0);
    drop(store); // writes the sidecar indexes

    // A store-less run is the ground truth the stored paths must hit.
    let (unstored, _) = miss_rate_figure(0.4, &policies, 1, plan(None));
    assert_eq!(cold, unstored, "storing must not change the figure");

    // Warm re-run: answered entirely from the packs, bit-identical.
    let warm_store = PackStore::open(&dir).unwrap();
    let (warm, warm_stats) = miss_rate_figure(0.4, &policies, 1, plan(Some(&warm_store)));
    assert_eq!(warm, cold, "warm figure must be bit-identical");
    assert_eq!(warm_stats.simulated, 0, "warm re-run must simulate nothing");
    assert_eq!(warm_stats.cached, cold_stats.simulated);
    assert_eq!(warm_stats.pool.runs, 0);
    drop(warm_store);

    // Flip one byte inside the first record's key text. The sidecar
    // still indexes the record, so the probe finds it, fails the
    // checksum, and must reject it, recompute it, and re-store it — and
    // the figure must still come out identical.
    let pack = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hpk"))
        .min()
        .expect("store holds packs");
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[8 + 6] ^= 0xA5;
    std::fs::write(&pack, bytes).unwrap();
    let healed_store = PackStore::open(&dir).unwrap();
    let (healed, healed_stats) = miss_rate_figure(0.4, &policies, 1, plan(Some(&healed_store)));
    assert_eq!(healed, cold, "a rejected record must be recomputed exactly");
    assert_eq!(healed_stats.simulated, 1, "only the corrupted cell reruns");
    assert_eq!(healed_store.stats().rejects, 1);
    assert_eq!(
        healed_store.stats().stores,
        1,
        "the healed cell is re-stored"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// The pack store behind the same figure drivers: cold run populates
/// packs, a reopened store answers the whole grid from memory with
/// bit-identical figures — including the f64 sample curves of the
/// remaining-energy driver — and simulates nothing.
#[test]
fn warm_pack_store_reruns_are_bit_identical_across_figures() {
    let dir = scratch_dir("packstore");
    let policies = [PolicyKind::Lsa, PolicyKind::EaDvfs];

    let store = PackStore::open(&dir).unwrap();
    let (cold_miss, cold_stats) = miss_rate_figure(0.4, &policies, 1, plan(Some(&store)));
    assert!(cold_stats.simulated > 0);
    let (cold_energy, _) =
        remaining_energy_figure(0.4, &[PolicyKind::EaDvfs], 1, 1000, plan(Some(&store)));
    let (cold_cmin, _) =
        min_zero_miss_capacity(PolicyKind::Lsa, 0.4, 1, 1e7, 0.01, plan(Some(&store)));
    drop(store);

    let warm_store = PackStore::open(&dir).unwrap();
    let (warm_miss, warm_stats) = miss_rate_figure(0.4, &policies, 1, plan(Some(&warm_store)));
    assert_eq!(warm_miss, cold_miss, "warm figure must be bit-identical");
    assert_eq!(warm_stats.simulated, 0, "warm re-run must simulate nothing");
    let (warm_energy, energy_stats) =
        remaining_energy_figure(0.4, &[PolicyKind::EaDvfs], 1, 1000, plan(Some(&warm_store)));
    assert_eq!(warm_energy, cold_energy, "sample curves round-trip bits");
    assert_eq!(energy_stats.simulated, 0);
    let (warm_cmin, cmin_stats) =
        min_zero_miss_capacity(PolicyKind::Lsa, 0.4, 1, 1e7, 0.01, plan(Some(&warm_store)));
    assert_eq!(warm_cmin, cold_cmin, "search replays the probe sequence");
    assert_eq!(cmin_stats.simulated, 0);

    // Ground truth: the uncached figure matches what the store served.
    let (uncached, _) = miss_rate_figure(0.4, &policies, 1, plan(None));
    assert_eq!(uncached, cold_miss, "the store must not change the figure");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `PaperScenario::run_summary` against a store: the cold pass stores
/// one record per cell, the warm pass answers every cell from the store
/// and returns the cold summaries bit for bit. Sampling is on, so the
/// sampled level trace rides through the store too.
#[test]
fn run_summary_round_trips_through_the_store() {
    let dir = scratch_dir("run-summary");
    let store = PackStore::open(&dir).unwrap();
    let mut scenario = PaperScenario::new(0.6, 300.0).with_sampling(50);
    scenario.num_tasks = 5;
    scenario.horizon_units = 300;
    let prefabs: Vec<_> = (0..5).map(|s| scenario.prefab(s)).collect();
    let mut pool = SimPool::new();
    let run_all = |pool: &mut SimPool| -> Vec<_> {
        prefabs
            .iter()
            .map(|p| scenario.run_summary(pool, Some(&store), PolicyKind::EaDvfs, p))
            .collect()
    };
    let cold = run_all(&mut pool);
    assert!(cold.iter().all(|s| !s.sample_level_bits.is_empty()));
    assert_eq!(store.stats().stores, 5, "every cell written per seed");
    assert_eq!(store.stats().hits, 0);
    let warm = run_all(&mut pool);
    assert_eq!(store.stats().stores, 5, "a warm pass writes nothing");
    assert_eq!(store.stats().hits, 5);
    assert_eq!(cold, warm);
    assert_eq!(pool.stats().runs, 5, "warm hits skip the simulation");
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn capacity_search_reuses_stored_probes() {
    let dir = scratch_dir("bisect");
    let store = PackStore::open(&dir).unwrap();
    let (cold, cold_stats) =
        min_zero_miss_capacity(PolicyKind::Lsa, 0.4, 1, 1e7, 0.01, plan(Some(&store)));
    assert!(cold.is_finite() && cold > 0.0);
    assert!(cold_stats.simulated > 0);
    drop(store);

    // The search is a deterministic function of probe outcomes, so a
    // re-run visits exactly the same capacities and every probe hits.
    let warm_store = PackStore::open(&dir).unwrap();
    let (warm, warm_stats) =
        min_zero_miss_capacity(PolicyKind::Lsa, 0.4, 1, 1e7, 0.01, plan(Some(&warm_store)));
    assert_eq!(warm, cold, "search result must replay exactly");
    assert_eq!(warm_stats.simulated, 0);
    assert_eq!(warm_stats.cached, cold_stats.simulated + cold_stats.cached);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every `.hpk` pack file in `dir`.
fn packs(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .unwrap()
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .path()
                .extension()
                .is_some_and(|x| x == "hpk")
        })
        .count()
}

/// A figure command opens the environment's store once per process, so
/// all of Table 1's capacity searches append through one pack, and a
/// warm re-run reproduces the record from the store without adding a
/// pack.
#[test]
fn table1_command_holds_one_store_per_process() {
    let dir = scratch_dir("table1-env");
    let store = dir.join("store");
    let table1 = |json: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_exp"))
            .env(SWEEP_STORE_ENV, &store)
            .args(["table1", "--trials", "2", "--threads", "2", "--json"])
            .arg(dir.join(json))
            .output()
            .expect("spawn exp table1");
        assert!(out.status.success(), "{out:?}");
        std::fs::read(dir.join(json)).unwrap()
    };
    let cold = table1("cold.json");
    let cold_packs = packs(&store);
    assert_eq!(cold_packs, 1);
    let warm = table1("warm.json");
    assert_eq!(warm, cold, "warm record must be byte-identical");
    assert_eq!(packs(&store), cold_packs, "a warm run appends nothing");
    let _ = std::fs::remove_dir_all(&dir);
}
