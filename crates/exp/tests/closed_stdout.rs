//! `exp` stops quietly when its reader goes away: a sweep whose stdout
//! is closed before it prints (`exp sweep | true`) ends with status 0 and
//! an empty stderr, not a panic on the broken pipe.

use std::process::{Command, Stdio};

#[test]
fn closed_stdout_ends_a_sweep_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(["sweep", "--util", "0.4", "--trials", "1", "--threads", "1"])
        .env_remove("HARVEST_SWEEP_STORE")
        .env_remove("HARVEST_THREADS")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn exp");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("wait for exp");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stderr.is_empty(), "{stderr}");
}
