//! Crash torture: a fault-sweep campaign writing through `--store` is
//! SIGKILLed at several points mid-flight, resumed, and killed again.
//! After the final uninterrupted run the figure digest is bit-identical
//! to a never-killed reference campaign, every cell is decided exactly
//! once. A killed writer's store lock dies with it, so nothing it left
//! blocks the next run's repair of its torn tail.
//!
//! The kill points are driven by observed on-disk pack growth (not
//! timers), so each round provably murders the writer after it has
//! appended new records and before it finishes the grid.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::time::{Duration, Instant};

fn exp() -> Command {
    Command::new(env!("CARGO_BIN_EXE_exp"))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harvest-crash-torture-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

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

/// The campaign under torture: 3 policies x 5 intensities x 2 trials
/// = 30 cells, long enough that a kill lands mid-grid.
fn campaign_args(dir: &Path) -> Vec<String> {
    [
        "fault-sweep",
        "--util",
        "0.4",
        "--capacity",
        "300",
        "--trials",
        "2",
        "--threads",
        "2",
        "--horizon",
        "40000",
        "--intensities",
        "0.0,0.25,0.5,0.75,1.0",
        "--store",
    ]
    .iter()
    .map(|s| (*s).to_owned())
    .chain([dir.to_str().unwrap().to_owned()])
    .collect()
}

/// Total bytes across the store's pack files (0 if the dir is missing).
fn pack_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "hpk"))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

#[test]
fn sigkilled_campaign_resumes_to_a_bit_identical_figure() {
    // Reference: the same campaign, never interrupted, in its own dir.
    let ref_dir = scratch_dir("reference");
    let reference = exp()
        .args(campaign_args(&ref_dir))
        .output()
        .expect("spawn reference campaign");
    assert!(reference.status.success(), "{}", stderr(&reference));
    let ref_digest = field(&reference, "figure_fnv64");
    let cells: u64 = {
        let c: u64 = field(&reference, "cells").parse().unwrap();
        assert_eq!(c, 30);
        c
    };

    let dir = scratch_dir("torture");
    let mut watermark = 0u64;
    let mut kills = 0u32;
    for _round in 0..3 {
        let mut child = exp()
            .args(campaign_args(&dir))
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn torture campaign");
        // Kill only after the pack grew past the previous round's high
        // water: the writer provably appended fresh decided records.
        let target = watermark + 64;
        let deadline = Instant::now() + Duration::from_secs(60);
        let killed = loop {
            if pack_bytes(&dir) >= target {
                child.kill().expect("SIGKILL the writer");
                break true;
            }
            if child.try_wait().expect("poll child").is_some() {
                break false; // finished the whole grid before the kill
            }
            assert!(Instant::now() < deadline, "no pack growth within 60s");
            std::thread::sleep(Duration::from_millis(5));
        };
        let _ = child.wait();
        if killed {
            kills += 1;
        }
        watermark = pack_bytes(&dir);
        // The murdered writer's lock died with it; stat must open,
        // heal any torn tail, and account the surviving records.
        let stat = exp()
            .args(["store", "stat", dir.to_str().unwrap()])
            .output()
            .expect("spawn store stat");
        assert!(
            stat.status.success(),
            "stat after kill round failed: {}",
            stderr(&stat)
        );
        assert_eq!(field(&stat, "quarantined"), "0");
    }
    assert!(kills > 0, "no round managed to kill a live writer");

    // Final uninterrupted run: resumes whatever survived, recomputes
    // the rest, and must reproduce the reference figure bit-for-bit.
    let last = exp()
        .args(campaign_args(&dir))
        .output()
        .expect("spawn final campaign");
    assert!(last.status.success(), "{}", stderr(&last));
    assert_eq!(field(&last, "figure_fnv64"), ref_digest);
    let resumed: u64 = field(&last, "resumed").parse().unwrap();
    assert!(
        resumed > 0,
        "kill rounds left decided records, so the final run must resume some"
    );

    // Every cell is decided exactly once: a verification pass resumes
    // the full grid without simulating, reproducing the digest again.
    let verify = exp()
        .args(
            campaign_args(&dir)
                .into_iter()
                .chain(["--expect-resumed".to_owned()]),
        )
        .output()
        .expect("spawn verification campaign");
    assert!(verify.status.success(), "{}", stderr(&verify));
    assert_eq!(field(&verify, "simulated"), "0");
    assert_eq!(field(&verify, "resumed"), cells.to_string());
    assert_eq!(field(&verify, "figure_fnv64"), ref_digest);

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
