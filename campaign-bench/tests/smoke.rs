//! Runs the `campaign` binary on every workload at 1/50 size, plus one
//! traced run, and checks its result line against `BENCHMARK.json`.

use std::process::Command;

use serde_json::Value;

/// The metric names `BENCHMARK.json` lists under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let spec: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    spec.get(key)
        .and_then(Value::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("metric name")
                .to_owned()
        })
        .collect()
}

/// Runs one workload; returns the metric names of its result line.
fn campaign(workload: &str, trace: bool) -> Vec<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args([
            "--workload",
            workload,
            "--smoke",
            "--seconds",
            "1",
            "--seed",
            "7",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("campaign starts");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload}: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let result: Value = serde_json::from_str(last).expect("the last line is JSON");
    assert_eq!(
        result.get("correct").and_then(Value::as_bool),
        Some(true),
        "{last}"
    );
    assert_eq!(
        result.get("failed").and_then(Value::as_u64),
        Some(0),
        "{last}"
    );
    assert!(result.get("attempted").and_then(Value::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics");
    metrics.iter().map(|(name, _)| name.clone()).collect()
}

#[test]
fn every_workload_reports_the_declared_end_to_end_metrics() {
    let expected = declared("end_to_end");
    for workload in ["fig9-cold", "fig8-lockstep", "fig9-warm", "table1-search"] {
        assert_eq!(campaign(workload, false), expected, "{workload}");
    }
}

#[test]
fn a_traced_run_reports_the_declared_per_layer_metrics() {
    assert_eq!(campaign("table1-search", true), declared("per_layer"));
}

#[test]
fn usage_errors_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_campaign"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("campaign starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
