//! End-to-end fault-campaign coverage (ISSUE 5): the pinned robustness
//! figure, quarantine behaviour through the real `exp fault-sweep`
//! subcommand, and kill-and-resume through the pack store.

use std::path::PathBuf;
use std::process::Command;

use harvest_exp::figures::{robustness_campaign, RobustnessConfig, RunPlan, Sabotage};
use harvest_exp::scenario::{PolicyKind, PredictorKind};

/// FNV-1a digest of the robustness figure on the smoke grid below,
/// captured from a known-good build. Any drift in fault generation,
/// injection, scheduling, or aggregation shows up here.
const PINNED_DIGEST: u64 = 0x66AE_8DCB_A4A4_73AC;

/// The smoke grid: must stay in sync with [`cli_args`] so the API-level
/// and subcommand-level runs pin the same figure.
fn smoke_config() -> RobustnessConfig {
    RobustnessConfig {
        utilization: 0.4,
        capacity: 300.0,
        horizon_units: 2_000,
        intensities: vec![0.0, 0.5, 1.0],
        policies: vec![PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs],
        predictors: vec![PredictorKind::Oracle],
        trials: 2,
        ..RobustnessConfig::default()
    }
}

/// `exp fault-sweep` flags equivalent to [`smoke_config`] on
/// `RunPlan::new(2)`.
fn cli_args() -> Vec<&'static str> {
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
    // The subcommand falls back to the environment store; keep the test
    // hermetic regardless of the invoking shell.
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

#[test]
fn robustness_figure_digest_is_pinned() {
    let report = robustness_campaign(&smoke_config(), RunPlan::new(2), |_| Sabotage::None);
    assert!(report.quarantined.is_empty());
    assert_eq!(
        report.figure.digest(),
        PINNED_DIGEST,
        "robustness figure drifted: got {:016x}",
        report.figure.digest()
    );
}

#[test]
fn fault_sweep_subcommand_reproduces_the_pinned_figure() {
    let out = exp_command().args(cli_args()).output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let line = stdout
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap_or_else(|| panic!("no report line in {stdout:?}"));
    assert_eq!(field(line, "cells"), "18");
    assert_eq!(field(line, "quarantined"), "0");
    let digest = u64::from_str_radix(field(line, "figure_fnv64"), 16).unwrap();
    assert_eq!(digest, PINNED_DIGEST, "CLI figure drifted");
}

#[test]
fn fault_sweep_subcommand_quarantines_sabotaged_cells_and_exits_zero() {
    let mut args = cli_args();
    args.extend([
        "--inject-panic",
        "lsa:0:0.0",
        "--inject-starve",
        "ea-dvfs:1:1.0",
    ]);
    let out = exp_command().args(args).output().unwrap();
    assert!(out.status.success(), "sweep must survive sabotage: {out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = stdout
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap();
    assert_eq!(field(report, "quarantined"), "2");
    let quarantines: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("quarantine "))
        .collect();
    assert_eq!(quarantines.len(), 2, "{stdout}");
    let panicked = quarantines
        .iter()
        .find(|l| field(l, "panicked") == "true")
        .unwrap();
    assert_eq!(field(panicked, "policy"), "lsa");
    assert_eq!(field(panicked, "seed"), "0");
    assert_eq!(field(panicked, "intensity"), "0");
    assert!(field(panicked, "key").contains("|lsa|0"), "{panicked}");
    let starved = quarantines
        .iter()
        .find(|l| field(l, "panicked") == "false")
        .unwrap();
    assert_eq!(field(starved, "policy"), "ea-dvfs");
    assert_eq!(field(starved, "seed"), "1");
    assert!(starved.contains("watchdog"), "{starved}");
    // Queue stats from the surviving worker pools are reported.
    assert!(
        stdout.lines().any(|l| l.starts_with("queue worker=")),
        "{stdout}"
    );
}

/// Byte offset of the last whole record frame in a pack
/// (`magic(8) · (u32 body_len · body · u64 checksum)*`).
fn last_record_start(pack: &[u8]) -> usize {
    let mut at = 8;
    loop {
        let body_len = u32::from_le_bytes(pack[at..at + 4].try_into().unwrap()) as usize;
        let next = at + 4 + body_len + 8;
        if next >= pack.len() {
            return at;
        }
        at = next;
    }
}

/// The report line of one `exp fault-sweep` run against `store`.
fn campaign_line(store: &str, extra: &[&str]) -> String {
    let out = exp_command()
        .args(cli_args())
        .args(["--store", store])
        .args(extra)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    String::from_utf8(out.stdout)
        .unwrap()
        .lines()
        .find(|l| l.starts_with("fault-sweep "))
        .unwrap()
        .to_owned()
}

#[test]
fn fault_sweep_subcommand_resumes_from_a_torn_pack() {
    let dir = scratch_dir("fault-campaign-resume");
    let store = dir.join("store");
    let store_str = store.to_str().unwrap();

    let first = campaign_line(store_str, &[]);
    assert_eq!(field(&first, "simulated"), "18");
    assert_eq!(field(&first, "resumed"), "0");
    let first_digest = field(&first, "figure_fnv64").to_owned();

    // Simulate a kill mid-append: cut one pack's last record in half.
    let mut packs: Vec<PathBuf> = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hpk"))
        .collect();
    packs.sort();
    let bytes = std::fs::read(&packs[0]).unwrap();
    let last = last_record_start(&bytes);
    std::fs::write(&packs[0], &bytes[..last + (bytes.len() - last) / 2]).unwrap();

    // The resumed campaign re-simulates only the torn cell.
    let second = campaign_line(store_str, &[]);
    assert_eq!(field(&second, "resumed"), "17");
    assert_eq!(field(&second, "simulated"), "1");
    assert_eq!(field(&second, "figure_fnv64"), first_digest);

    // A third run resumes every cell; `--expect-resumed` makes the
    // binary itself enforce that nothing re-simulates.
    let third = campaign_line(store_str, &["--expect-resumed"]);
    assert_eq!(field(&third, "resumed"), "18");
    assert_eq!(field(&third, "simulated"), "0");
    assert_eq!(field(&third, "figure_fnv64"), first_digest);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fault_sweep_subcommand_reports_usage_errors_with_exit_2() {
    let out = exp_command()
        .args(["fault-sweep", "--intensities", "1.5"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("intensit"), "{stderr}");
}
