//! End-to-end `exp` CLI behaviour of the pack store: a cold sweep
//! followed by a warm `--expect-warm` re-run reproduces the figure
//! digest with zero simulated cells, an unopenable `HARVEST_SWEEP_STORE`
//! degrades to an uncached run with one warning (exit 0), a fault-sweep
//! resumed through `--store` or `HARVEST_SWEEP_STORE` re-simulates
//! nothing (the pack's decided records are the resume log), flags that
//! need a store are usage errors without one (as are removed flags, the
//! removed `store scrub` verb and an out-of-range `--util`), the
//! `store stat` / `store compact` subcommands round-trip a store
//! directory without disturbing its contents, `store compact` repairs a
//! corrupted record, and the maintenance commands refuse a store
//! directory that does not exist.

use std::path::PathBuf;
use std::process::{Command, Output};

fn exp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    // Stay hermetic: a test opts into the environment store explicitly.
    cmd.env_remove("HARVEST_SWEEP_STORE");
    cmd
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harvest-store-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The `key=value` field of the first stdout line containing it.
fn field(out: &Output, key: &str) -> String {
    let text = stdout(out);
    let needle = format!("{key}=");
    text.lines()
        .find_map(|l| {
            l.split_whitespace()
                .find_map(|tok| tok.strip_prefix(&needle))
        })
        .unwrap_or_else(|| panic!("no `{key}=` in output:\n{text}"))
        .to_owned()
}

fn run(cmd: &mut Command) -> Output {
    cmd.output().expect("spawn exp")
}

#[test]
fn cold_then_warm_store_sweep_is_digest_identical() {
    let dir = scratch_dir("warm");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&[])));
    assert!(
        cold.status.success(),
        "cold sweep failed: {}",
        stderr(&cold)
    );
    assert_ne!(field(&cold, "simulated"), "0", "cold run must simulate");
    let cold_digest = field(&cold, "figure_fnv64");

    let warm = run(exp().args(args(&["--expect-warm"])));
    assert!(
        warm.status.success(),
        "warm sweep failed: {}",
        stderr(&warm)
    );
    assert_eq!(field(&warm, "simulated"), "0");
    assert_eq!(field(&warm, "figure_fnv64"), cold_digest);
    // The store's accounting surfaces both as a summary line and as
    // registry-rendered metric lines next to the pool gauges.
    assert!(stdout(&warm).contains("store dir="), "{}", stdout(&warm));
    assert!(
        stdout(&warm).contains("metric store.hit_rate=1"),
        "warm run must be all hits:\n{}",
        stdout(&warm)
    );

    // A warm run against a compacted store still reproduces the digest.
    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    let rewarm = run(exp().args(args(&["--expect-warm"])));
    assert!(rewarm.status.success(), "{}", stderr(&rewarm));
    assert_eq!(field(&rewarm, "figure_fnv64"), cold_digest);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_store_env_degrades_with_one_warning() {
    let blocker = scratch_dir("degrade");
    // A plain file where the path expects a directory: `create_dir_all`
    // on `<blocker>/store` fails with ENOTDIR even for root.
    std::fs::write(&blocker, b"not a directory").unwrap();
    let bad = blocker.join("store");
    let out = run(exp()
        .args(["sweep", "--util", "0.4", "--trials", "1", "--threads", "2"])
        .env("HARVEST_SWEEP_STORE", &bad));
    assert!(
        out.status.success(),
        "degraded sweep must still exit 0: {}",
        stderr(&out)
    );
    assert!(
        stderr(&out).contains("cannot open sweep store"),
        "expected a degradation warning, got:\n{}",
        stderr(&out)
    );
    assert_ne!(field(&out, "simulated"), "0", "uncached run simulates");
    assert!(
        !stdout(&out).contains("store dir="),
        "a degraded run reports no store"
    );
    let _ = std::fs::remove_file(&blocker);
}

#[test]
fn fault_sweep_resumes_through_the_store_alone() {
    let dir = scratch_dir("resume");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "fault-sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--capacity".to_owned(),
            "300".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--horizon".to_owned(),
            "1000".to_owned(),
            "--intensities".to_owned(),
            "0.0,1.0".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&[])));
    assert!(cold.status.success(), "{}", stderr(&cold));
    let simulated: u64 = field(&cold, "simulated").parse().unwrap();
    assert!(simulated > 0);
    assert_eq!(field(&cold, "resumed"), "0");
    let digest = field(&cold, "figure_fnv64");

    // The pack's decided records resume the campaign, and resolution
    // counts as resumed.
    let resumed = run(exp().args(args(&["--expect-resumed"])));
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    assert_eq!(field(&resumed, "simulated"), "0");
    assert_eq!(field(&resumed, "resumed"), simulated.to_string());
    assert_eq!(field(&resumed, "figure_fnv64"), digest);

    // One record per cell: compaction finds no superseded duplicates
    // to drop.
    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(
        field(&compact, "records_before"),
        simulated.to_string(),
        "each decided cell must append exactly one record"
    );
    assert_eq!(field(&compact, "records_after"), simulated.to_string());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_stat_and_compact_report_the_directory() {
    let dir = scratch_dir("stat");
    let sweep = run(exp().args([
        "sweep",
        "--util",
        "0.4",
        "--trials",
        "1",
        "--threads",
        "2",
        "--store",
        dir.to_str().unwrap(),
    ]));
    assert!(sweep.status.success(), "{}", stderr(&sweep));

    let stat = run(exp().args(["store", "stat", dir.to_str().unwrap()]));
    assert!(stat.status.success(), "{}", stderr(&stat));
    let records: u64 = field(&stat, "records").parse().unwrap();
    assert!(records > 0);
    assert_eq!(field(&stat, "done"), records.to_string());
    assert_eq!(field(&stat, "quarantined"), "0");
    let bytes_before: u64 = field(&stat, "bytes").parse().unwrap();

    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(field(&compact, "records_after"), records.to_string());
    assert_eq!(field(&compact, "bytes_before"), bytes_before.to_string());

    let after = run(exp().args(["store", "stat", dir.to_str().unwrap()]));
    assert!(after.status.success(), "{}", stderr(&after));
    assert_eq!(field(&after, "packs"), "1", "compaction merges to one pack");
    assert_eq!(field(&after, "records"), records.to_string());

    let _ = std::fs::remove_dir_all(&dir);
}

/// A mistyped store path is an error (exit 1), never a new empty store:
/// the maintenance commands create nothing.
#[test]
fn maintenance_commands_refuse_a_missing_store() {
    let dir = scratch_dir("missing");
    let path = dir.to_str().unwrap();
    for args in [
        &["store", "stat", path][..],
        &["store", "compact", path][..],
        &["report", "--store", path][..],
    ] {
        let out = run(exp().args(args));
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        assert!(!dir.exists(), "{args:?} created {}", dir.display());
    }
}

#[test]
fn removed_cache_and_manifest_flags_are_usage_errors() {
    for (sub, flag) in [
        ("sweep", "--cache"),
        ("fault-sweep", "--cache"),
        ("fault-sweep", "--manifest"),
        ("report", "--manifest"),
    ] {
        let out = run(exp().args([sub, flag, "/tmp/a"]));
        assert_eq!(out.status.code(), Some(2), "{sub} {flag} must exit 2");
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{}",
            stderr(&out)
        );
    }
}

/// `store scrub` is an unknown verb (exit 2): `store stat` detects
/// corruption and `store compact` repairs it.
#[test]
fn removed_scrub_verb_is_a_usage_error() {
    let dir = scratch_dir("scrub-verb");
    let out = run(exp().args(["store", "scrub", dir.to_str().unwrap()]));
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("unknown store verb `scrub`"),
        "{}",
        stderr(&out)
    );
    assert!(stdout(&out).is_empty(), "{}", stdout(&out));
    assert!(!dir.exists(), "a usage error touches no store");
}

/// `--batch` and `--batch-group` are unknown flags (exit 2), not
/// silently ignored ones.
#[test]
fn removed_batch_flags_are_usage_errors() {
    for (sub, flag, value) in [
        ("sweep", "--batch", "4"),
        ("sweep", "--batch-group", "policy"),
        ("fault-sweep", "--batch", "2"),
    ] {
        let out = run(exp().args([sub, flag, value]));
        assert_eq!(out.status.code(), Some(2), "{sub} {flag} must exit 2");
        assert!(
            stderr(&out).contains(&format!("unknown flag {flag}")),
            "{}",
            stderr(&out)
        );
        assert!(stdout(&out).is_empty(), "no cell may run: {}", stdout(&out));
    }
}

/// A utilization outside (0, 1] is refused while parsing, before the
/// workload generator can panic on it.
#[test]
fn out_of_range_util_is_a_usage_error() {
    for sub in ["record", "sweep", "fault-sweep"] {
        let out = run(exp().args([sub, "--util", "1.5"]));
        assert_eq!(out.status.code(), Some(2), "{sub}: {}", stderr(&out));
        assert!(stderr(&out).contains("(0, 1]"), "{}", stderr(&out));
        assert!(!stderr(&out).contains("panicked"), "{}", stderr(&out));
    }
}

/// Flags that only mean something against a store are usage errors
/// (exit 2, before any cell runs) when neither `--store` nor
/// `HARVEST_SWEEP_STORE` selects one.
#[test]
fn store_only_flags_without_a_store_are_usage_errors() {
    for args in [
        &["sweep", "--expect-warm"][..],
        &["sweep", "--durability", "record"][..],
        &["fault-sweep", "--expect-resumed"][..],
        &["fault-sweep", "--durability", "none"][..],
    ] {
        let out = run(exp().args(args));
        assert_eq!(out.status.code(), Some(2), "{args:?}: {}", stderr(&out));
        assert!(stderr(&out).contains("needs a store"), "{}", stderr(&out));
        assert!(stdout(&out).is_empty(), "no cell may run: {}", stdout(&out));
    }
}

/// A store selected through `HARVEST_SWEEP_STORE` plays the same role as
/// `--store DIR`: quarantined cells are recorded, and the rerun resolves
/// every cell as resumed.
#[test]
fn env_selected_store_checkpoints_and_resumes_fault_sweeps() {
    let dir = scratch_dir("env-resume");
    let args = |extra: &[&str]| {
        let mut v: Vec<String> = [
            "fault-sweep",
            "--util",
            "0.4",
            "--capacity",
            "300",
            "--trials",
            "1",
            "--threads",
            "2",
            "--horizon",
            "1000",
            "--intensities",
            "0.0,1.0",
            "--inject-panic",
            "lsa:0:1.0",
        ]
        .map(str::to_owned)
        .to_vec();
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp()
        .args(args(&["--durability", "record"]))
        .env("HARVEST_SWEEP_STORE", &dir));
    assert!(cold.status.success(), "{}", stderr(&cold));
    assert_eq!(field(&cold, "quarantined"), "1");
    assert_eq!(field(&cold, "resumed"), "0");
    let digest = field(&cold, "figure_fnv64");

    let stat = run(exp().args(["store", "stat", dir.to_str().unwrap()]));
    assert!(stat.status.success(), "{}", stderr(&stat));
    assert_eq!(field(&stat, "quarantined"), "1");
    assert_eq!(field(&stat, "records"), "6");

    let resumed = run(exp()
        .args(args(&["--expect-resumed"]))
        .env("HARVEST_SWEEP_STORE", &dir));
    assert!(resumed.status.success(), "{}", stderr(&resumed));
    assert_eq!(field(&resumed, "simulated"), "0");
    assert_eq!(field(&resumed, "resumed"), "6");
    assert_eq!(field(&resumed, "figure_fnv64"), digest);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A flipped byte mid-record: `store compact` quarantines exactly that
/// record, keeps the rest, and the next warm run re-simulates exactly
/// the one lost cell back to the original figure digest.
#[test]
fn compact_quarantines_a_corrupted_record_and_the_cell_recomputes() {
    let dir = scratch_dir("scrub");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&[])));
    assert!(cold.status.success(), "{}", stderr(&cold));
    let simulated: u64 = field(&cold, "simulated").parse().unwrap();
    assert!(simulated >= 2, "the cold grid simulates every cell");
    let digest = field(&cold, "figure_fnv64");

    // Flip one byte inside the first record body of one pack.
    let pack = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "hpk"))
        .expect("a pack file");
    let mut bytes = std::fs::read(&pack).unwrap();
    bytes[8 + 6] ^= 0xA5;
    std::fs::write(&pack, bytes).unwrap();

    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(field(&compact, "corrupt_spans"), "1");
    let kept: u64 = field(&compact, "records_after").parse().unwrap();
    assert_eq!(kept, simulated - 1, "compact loses exactly the bad record");
    assert!(
        dir.join("scrub-quarantine").is_dir(),
        "the corrupt bytes are preserved for post-mortem"
    );

    // A second compact of the clean store finds nothing to quarantine.
    let again = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(again.status.success(), "{}", stderr(&again));
    assert_eq!(field(&again, "corrupt_spans"), "0");

    // The warm run recomputes exactly the quarantined cell.
    let warm = run(exp().args(args(&[])));
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(field(&warm, "simulated"), "1");
    assert_eq!(field(&warm, "figure_fnv64"), digest);
    let rewarm = run(exp().args(args(&["--expect-warm"])));
    assert!(rewarm.status.success(), "{}", stderr(&rewarm));
    assert_eq!(field(&rewarm, "figure_fnv64"), digest);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Two concurrent `exp fault-sweep --store` processes writing disjoint
/// halves of a grid into one directory: each appends to its own pack,
/// both campaigns complete, and the combined store decides every cell
/// exactly once.
#[test]
fn two_concurrent_writers_fill_one_store_without_collisions() {
    let dir = scratch_dir("two-writers");
    let args = |intensities: &str, extra: &[&str]| {
        let mut v = vec![
            "fault-sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--capacity".to_owned(),
            "300".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--horizon".to_owned(),
            "1000".to_owned(),
            "--intensities".to_owned(),
            intensities.to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let mut a = exp().args(args("0.0,0.5", &[])).spawn().expect("spawn a");
    let mut b = exp().args(args("0.25,0.75", &[])).spawn().expect("spawn b");
    let status_a = a.wait().expect("wait a");
    let status_b = b.wait().expect("wait b");
    assert!(status_a.success() && status_b.success());

    // 3 policies x 1 trial x 2 intensities per process, disjoint
    // halves: 12 decided cells, each recorded exactly once.
    let compact = run(exp().args(["store", "compact", dir.to_str().unwrap()]));
    assert!(compact.status.success(), "{}", stderr(&compact));
    assert_eq!(field(&compact, "records_before"), "12");
    assert_eq!(field(&compact, "records_after"), "12");

    // The union resumes the full grid with zero re-simulation.
    let union = run(exp().args(args("0.0,0.25,0.5,0.75", &["--expect-resumed"])));
    assert!(union.status.success(), "{}", stderr(&union));
    assert_eq!(field(&union, "simulated"), "0");
    assert_eq!(field(&union, "resumed"), "12");

    let _ = std::fs::remove_dir_all(&dir);
}

/// `--durability` is accepted end-to-end: a `record`-durability cold
/// run and a `none`-durability warm run reproduce the same digest, and
/// a bogus level is a usage error.
#[test]
fn durability_levels_round_trip_the_same_figure() {
    let dir = scratch_dir("durability");
    let args = |extra: &[&str]| {
        let mut v = vec![
            "sweep".to_owned(),
            "--util".to_owned(),
            "0.4".to_owned(),
            "--trials".to_owned(),
            "1".to_owned(),
            "--threads".to_owned(),
            "2".to_owned(),
            "--store".to_owned(),
            dir.to_str().unwrap().to_owned(),
        ];
        v.extend(extra.iter().map(|s| (*s).to_owned()));
        v
    };
    let cold = run(exp().args(args(&["--durability", "record"])));
    assert!(cold.status.success(), "{}", stderr(&cold));
    let digest = field(&cold, "figure_fnv64");

    let warm = run(exp().args(args(&["--durability", "none", "--expect-warm"])));
    assert!(warm.status.success(), "{}", stderr(&warm));
    assert_eq!(field(&warm, "figure_fnv64"), digest);

    let bogus = run(exp().args(args(&["--durability", "paranoid"])));
    assert_eq!(bogus.status.code(), Some(2), "usage error must exit 2");
    assert!(
        stderr(&bogus).contains("none, batch, or record"),
        "{}",
        stderr(&bogus)
    );
    let _ = std::fs::remove_dir_all(&dir);
}
