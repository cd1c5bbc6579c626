//! End-to-end campaign-telemetry coverage: Chrome-trace export, the
//! live progress stream, the campaign report, replay of a cell from its
//! key, and — most importantly — that switching telemetry on does not
//! move the pinned figure digest.

use std::path::{Path, PathBuf};
use std::process::Command;

use harvest_exp::cache::{TrialKey, TrialSummary};
use harvest_exp::store::{CellOutcome, PackStore};
use harvest_obs::progress::{progress_from_jsonl, ProgressLine};
use serde::Value;

/// Same pinned digest as `fault_campaign.rs`: the robustness figure on
/// the smoke grid, from a known-good build.
const PINNED_DIGEST: u64 = 0x66AE_8DCB_A4A4_73AC;

/// `exp fault-sweep` flags for the smoke grid (18 cells).
fn fault_args() -> Vec<&'static str> {
    vec![
        "fault-sweep",
        "--util",
        "0.4",
        "--capacity",
        "300",
        "--horizon",
        "2000",
        "--intensities",
        "0.0,0.5,1.0",
        "--trials",
        "2",
        "--threads",
        "2",
    ]
}

fn exp_command() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    // Stay hermetic: never pick up the invoking shell's store.
    cmd.env_remove("HARVEST_SWEEP_STORE");
    cmd
}

/// Extracts `key=value` from a one-line report.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let tag = format!("{key}=");
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(&tag))
        .unwrap_or_else(|| panic!("no `{key}=` in {line:?}"))
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("harvest-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8(out.stdout.clone()).unwrap()
}

fn stderr(out: &std::process::Output) -> String {
    String::from_utf8(out.stderr.clone()).unwrap()
}

/// Parses a Chrome-trace export and returns its `traceEvents`,
/// asserting every event carries the complete-span shape.
fn trace_events(path: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).unwrap();
    let value: Value = serde_json::from_str(&text).unwrap();
    let events = value
        .get("traceEvents")
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no traceEvents in {text}"))
        .clone();
    for ev in &events {
        assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"), "{ev:?}");
        for key in ["name", "cat"] {
            assert!(ev.get(key).and_then(Value::as_str).is_some(), "{ev:?}");
        }
        for key in ["ts", "dur", "pid", "tid"] {
            assert!(ev.get(key).and_then(Value::as_u64).is_some(), "{ev:?}");
        }
    }
    events
}

#[test]
fn telemetry_flags_do_not_move_the_pinned_figure() {
    let dir = scratch_dir("telemetry-digest");
    let trace = dir.join("trace.json");
    let progress = dir.join("progress.jsonl");
    let out = exp_command()
        .args(fault_args())
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--progress", progress.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = stdout(&out);
    let line = text
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    let digest = u64::from_str_radix(field(line, "figure_fnv64"), 16).unwrap();
    assert_eq!(digest, PINNED_DIGEST, "telemetry changed the figure");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the smoke grid into `store` with one cell sabotaged by a panic
/// and one by a 4-event watchdog, plus any `extra` flags; returns its
/// stdout.
fn sabotaged_campaign(store: &Path, extra: &[&str]) -> String {
    let out = exp_command()
        .args(fault_args())
        .args(["--store", store.to_str().unwrap()])
        .args(extra)
        .args(["--inject-panic", "lsa:0:0.5"])
        .args(["--inject-starve", "ea-dvfs:1:1.0"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    stdout(&out)
}

#[test]
fn sabotaged_campaign_emits_trace_progress_and_replay_commands() {
    let dir = scratch_dir("telemetry-sabotage");
    let store = dir.join("store");
    let trace = dir.join("trace.json");
    let progress = dir.join("progress.jsonl");
    let text = sabotaged_campaign(
        &store,
        &[
            "--trace",
            trace.to_str().unwrap(),
            "--progress",
            progress.to_str().unwrap(),
        ],
    );
    let report = text
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    assert_eq!(field(report, "quarantined"), "2");

    // Trace: structurally valid Chrome trace covering the campaign's
    // phases and one span per simulated cell.
    let events = trace_events(&trace);
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"robustness-campaign"), "{names:?}");
    assert!(names.contains(&"resolve"), "{names:?}");
    assert!(names.contains(&"build"), "{names:?}");
    assert!(
        names.iter().filter(|n| **n == "cell").count() >= 16,
        "{names:?}"
    );

    // Progress: parses under the schema check; the final heartbeat's
    // counts are the campaign's decided totals and match the store.
    let lines = progress_from_jsonl(&std::fs::read_to_string(&progress).unwrap()).unwrap();
    assert!(matches!(
        lines.first(),
        Some(ProgressLine::Started(s)) if s.campaign == "fault-sweep" && s.cells == 18
    ));
    let hb = lines
        .iter()
        .rev()
        .find_map(|l| match l {
            ProgressLine::Heartbeat(hb) => Some(hb),
            _ => None,
        })
        .expect("final heartbeat");
    assert_eq!((hb.done, hb.total, hb.quarantined), (18, 18, 2));
    assert_eq!(hb.simulated + hb.hits + hb.resumed, 16);
    assert!(matches!(lines.last(), Some(ProgressLine::Finished(f)) if f.done == 18));

    let stat = exp_command()
        .args(["store", "stat", store.to_str().unwrap()])
        .output()
        .unwrap();
    let stat_line = stdout(&stat);
    assert_eq!(
        field(stat_line.trim(), "records").parse::<u64>().unwrap(),
        hb.done,
        "store decided counts must equal the final heartbeat"
    );
    assert_eq!(field(stat_line.trim(), "quarantined"), "2");

    let quarantine_keys: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("quarantine "))
        .map(|l| field(l, "key"))
        .collect();
    assert_eq!(quarantine_keys.len(), 2);

    // Report folds all three sources; --json round-trips.
    let report = exp_command()
        .args(["report", "--store", store.to_str().unwrap()])
        .args(["--progress", progress.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(report.status.success(), "{report:?}");
    let md = stdout(&report);
    assert!(md.contains("# Campaign report"), "{md}");
    assert!(
        md.contains("18 cells decided: 16 done, 2 quarantined."),
        "{md}"
    );
    for policy in ["edf", "lsa", "ea-dvfs"] {
        assert!(md.contains(policy), "missing {policy} in {md}");
    }
    for key in &quarantine_keys {
        assert!(md.contains(&format!("exp record --key '{key}'")), "{md}");
    }
    assert!(md.contains("Slowest cells"), "{md}");

    let json_out = exp_command()
        .args(["report", "--store", store.to_str().unwrap()])
        .args(["--progress", progress.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .args(["--json"])
        .output()
        .unwrap();
    assert!(json_out.status.success(), "{json_out:?}");
    let value: Value = serde_json::from_str(&stdout(&json_out)).unwrap();
    let cells = value.get("cells").expect("cells section");
    assert_eq!(cells.get("total").and_then(Value::as_u64), Some(18));
    assert_eq!(cells.get("quarantined").and_then(Value::as_u64), Some(2));
    let quarantines = cells.get("quarantines").and_then(Value::as_array).unwrap();
    assert_eq!(quarantines.len(), 2);
    for q in quarantines {
        let key = q.get("key").and_then(Value::as_str).unwrap();
        assert_eq!(
            q.get("replay").and_then(Value::as_str),
            Some(format!("exp record --key '{key}'").as_str())
        );
    }
    let progress_section = value.get("progress").expect("progress section");
    assert_eq!(
        progress_section.get("done").and_then(Value::as_u64),
        Some(18)
    );
    assert!(value.get("trace").is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replay_by_key_is_the_stored_cell() {
    let dir = scratch_dir("telemetry-replay");
    let store = dir.join("store");
    let text = sabotaged_campaign(&store, &[]);

    // Every done cell replays, from its key alone, to its record.
    let entries = PackStore::open_existing(&store).unwrap().decided_entries();
    assert_eq!(entries.len(), 18);
    let mut done = 0;
    for (key, outcome) in &entries {
        if let CellOutcome::Done(stored) = outcome {
            let (scenario, policy, seed) = TrialKey::parse(key).unwrap();
            let (run, aborted) = scenario.run_prefab_observed(policy, &scenario.prefab(seed));
            assert_eq!(aborted, None, "{key}");
            assert_eq!(TrialSummary::of(&run), *stored, "{key}");
            done += 1;
        }
    }
    assert_eq!(done, 16);

    // The sabotage happened outside the simulation, so both quarantined
    // cells replay cleanly into artifacts `exp inspect` reads.
    let keys: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("quarantine "))
        .map(|l| field(l, "key"))
        .collect();
    assert_eq!(keys.len(), 2);
    for (i, key) in keys.iter().enumerate() {
        let artifact = dir.join(format!("replay-{i}.jsonl"));
        let out = exp_command()
            .args(["record", "--key", key, "--out", artifact.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(out.status.success(), "{key}: {out:?}");
        let inspect = exp_command()
            .args(["inspect", artifact.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(inspect.status.success(), "{inspect:?}");
    }

    // A key that does not name a cell byte for byte is a usage error:
    // reordered scenario fields, an unknown policy, another schema
    // version, a non-numeric seed.
    let key = keys[0];
    let refused = [
        key.replacen(
            r#"{"num_tasks":5,"utilization":0.4,"#,
            r#"{"utilization":0.4,"num_tasks":5,"#,
            1,
        ),
        key.replace("|lsa|", "|sjf|"),
        key.replacen("v1|", "v2|", 1),
        key.replace("|lsa|0", "|lsa|zero"),
    ];
    for bad in &refused {
        assert_ne!(bad, key);
        let out = exp_command()
            .args(["record", "--key", bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad}: {out:?}");
        assert!(stderr(&out).contains("key"), "{out:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_trace_and_progress_cover_cold_and_warm_runs() {
    let dir = scratch_dir("telemetry-sweep");
    let store = dir.join("store");
    let cold_progress = dir.join("cold.jsonl");
    let warm_progress = dir.join("warm.jsonl");
    let trace = dir.join("trace.json");

    let cold = exp_command()
        .args(["sweep", "--store", store.to_str().unwrap()])
        .args(["--progress", cold_progress.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(cold.status.success(), "{cold:?}");
    let cold_line = stdout(&cold);
    let cold_report = cold_line.lines().find(|l| l.starts_with("sweep ")).unwrap();
    let cells: u64 = field(cold_report, "cells").parse().unwrap();
    let cold_digest = field(cold_report, "figure_fnv64").to_owned();

    let lines = progress_from_jsonl(&std::fs::read_to_string(&cold_progress).unwrap()).unwrap();
    let hb = lines
        .iter()
        .rev()
        .find_map(|l| match l {
            ProgressLine::Heartbeat(hb) => Some(hb),
            _ => None,
        })
        .unwrap();
    assert_eq!((hb.done, hb.simulated, hb.hits), (cells, cells, 0));

    // Warm: every cell resolves from the store, under trace + progress,
    // and the digest matches the cold (telemetry-off-compatible) run.
    let warm = exp_command()
        .args(["sweep", "--store", store.to_str().unwrap(), "--expect-warm"])
        .args(["--progress", warm_progress.to_str().unwrap()])
        .args(["--trace", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(warm.status.success(), "{warm:?}");
    let warm_line = stdout(&warm);
    let warm_report = warm_line.lines().find(|l| l.starts_with("sweep ")).unwrap();
    assert_eq!(field(warm_report, "figure_fnv64"), cold_digest);

    let lines = progress_from_jsonl(&std::fs::read_to_string(&warm_progress).unwrap()).unwrap();
    let hb = lines
        .iter()
        .rev()
        .find_map(|l| match l {
            ProgressLine::Heartbeat(hb) => Some(hb),
            _ => None,
        })
        .unwrap();
    assert_eq!((hb.done, hb.hits, hb.simulated), (cells, cells, 0));

    // The warm trace still records the figure and probe phases (probe
    // answered every cell, so no simulate spans are required).
    let events = trace_events(&trace);
    let names: Vec<&str> = events
        .iter()
        .filter_map(|e| e.get("name").and_then(Value::as_str))
        .collect();
    assert!(names.contains(&"miss-rate-figure"), "{names:?}");
    assert!(names.contains(&"probe"), "{names:?}");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn report_needs_an_input_and_store_stat_speaks_json() {
    let out = exp_command().args(["report"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr(&out).contains("at least one input"), "{out:?}");

    // Build a tiny store via a sweep, then stat it both ways.
    let dir = scratch_dir("telemetry-stat");
    let store = dir.join("store");
    let sweep = exp_command()
        .args(["sweep", "--store", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(sweep.status.success(), "{sweep:?}");

    let human = exp_command()
        .args(["store", "stat", store.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(human.status.success(), "{human:?}");
    let line = stdout(&human);
    let records: u64 = field(line.trim(), "records").parse().unwrap();
    assert!(records > 0);
    assert_eq!(field(line.trim(), "superseded"), "0");

    let json = exp_command()
        .args(["store", "stat", store.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(json.status.success(), "{json:?}");
    let value: Value = serde_json::from_str(&stdout(&json)).unwrap();
    assert_eq!(value.get("records").and_then(Value::as_u64), Some(records));
    assert_eq!(value.get("superseded").and_then(Value::as_u64), Some(0));

    let _ = std::fs::remove_dir_all(&dir);
}
