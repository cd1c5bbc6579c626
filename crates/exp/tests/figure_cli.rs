//! The figure binaries' command line. The grid binaries (`fig6`–`fig9`,
//! `table1`) always use seeds `0..trials`, so `--seed` is a usage error
//! there (exit 2, before any work) rather than a flag they would ignore
//! and then write into their `--json` record. `fig5` takes it.

use std::process::{Command, Output};

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        // Stay hermetic: no test here should open a store.
        .env_remove("HARVEST_SWEEP_STORE")
        .output()
        .expect("spawn figure binary")
}

#[test]
fn grid_binaries_reject_seed() {
    for (name, bin) in [
        ("fig6", env!("CARGO_BIN_EXE_fig6")),
        ("fig7", env!("CARGO_BIN_EXE_fig7")),
        ("fig8", env!("CARGO_BIN_EXE_fig8")),
        ("fig9", env!("CARGO_BIN_EXE_fig9")),
        ("table1", env!("CARGO_BIN_EXE_table1")),
    ] {
        let out = run(bin, &["--trials", "1", "--seed", "7"]);
        assert_eq!(out.status.code(), Some(2), "{name} exit status");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--seed"), "{name} stderr: {stderr}");
        assert!(out.stdout.is_empty(), "{name} ran before rejecting --seed");
    }
}

#[test]
fn fig5_takes_a_seed() {
    let out = run(env!("CARGO_BIN_EXE_fig5"), &["--seed", "7"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("seed 7"), "{stdout}");
}
