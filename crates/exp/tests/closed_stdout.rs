//! `exp` and the places its output goes. A command whose stdout is
//! closed before it prints (`exp sweep | true`, `exp fig8 | true`) ends
//! with status 0 and an empty stderr, not a panic on the broken pipe. A
//! figure's `--csv` or `--json` path that cannot be written fails the
//! command (exit 1) once the figure has printed, and names the path.

use std::process::{Command, Stdio};

fn exp() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_exp"));
    cmd.env_remove("HARVEST_SWEEP_STORE")
        .env_remove("HARVEST_THREADS");
    cmd
}

#[test]
fn closed_stdout_ends_a_sweep_quietly() {
    for args in [
        &["sweep", "--util", "0.4", "--trials", "1", "--threads", "1"][..],
        &["fig5"][..],
        &["fig8", "--trials", "1", "--threads", "1"][..],
    ] {
        let mut child = exp()
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn exp");
        drop(child.stdout.take());
        let out = child.wait_with_output().expect("wait for exp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert_eq!(out.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stderr.is_empty(), "{args:?}: {stderr}");
    }
}

#[test]
fn unwritable_figure_data_fails_the_command() {
    let dir = std::env::temp_dir().join(format!("harvest-exp-unwritable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for flag in ["--json", "--csv"] {
        let path = dir.join("missing").join("fig5.data");
        let out = exp()
            .args(["fig5", "--seed", "7", flag])
            .arg(&path)
            .output()
            .expect("spawn exp");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: cannot write {}", path.display())),
            "{flag}: {stderr}"
        );
        // The figure printed, for the seed asked for, before the write failed.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("seed 7"), "{flag}: {stdout}");
        assert!(!path.exists(), "{flag} wrote {}", path.display());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
