//! Fault-injection properties of the durable store stack: every
//! deterministic injection schedule — short writes, EINTR, EAGAIN,
//! ENOSPC, failed syncs, failed renames — either completes with
//! retries or degrades cleanly, and never corrupts a store. After any
//! schedule, `compact` finds zero corrupt byte spans, every append that
//! reported success survives a clean reopen bit-identically, and every
//! append that reported failure left nothing behind.
//!
//! Targeted schedules pin each of the five fault kinds to an exact
//! operation so the assertions are exact (retry counts, degradation,
//! sidecar fallback); a seeded proptest then sweeps random schedules
//! across all three durability levels.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use harvest_exp::cache::{TrialKey, TrialSummary};
use harvest_exp::scenario::{PaperScenario, PolicyKind};
use harvest_exp::store::{PackStore, TrialStore};
use harvest_obs::io::{Durability, FaultyIo, RetryPolicy, WriteFault};
use proptest::prelude::*;

fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harvest-faulty-io-{tag}-{case:016x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_of(seed: u64) -> TrialKey {
    PaperScenario::new(0.4, 300.0).trial_key(PolicyKind::EaDvfs, seed)
}

fn summary_of(seed: u64, sample_bits: &[u64]) -> TrialSummary {
    TrialSummary {
        released: 40 + seed,
        completed_in_time: 30 + seed,
        missed: 10,
        sample_level_bits: sample_bits.to_vec(),
    }
}

/// Zero-backoff retry policy: the schedules are deterministic, so the
/// tests assert exact retry counts without sleeping.
fn fast_retry() -> RetryPolicy {
    RetryPolicy {
        attempts: 4,
        base_backoff: Duration::ZERO,
    }
}

/// A store under a targeted schedule: writes `records` cells and
/// returns which appends reported success.
fn write_cells(store: &PackStore, records: u64) -> Vec<u64> {
    (0..records)
        .filter(|&s| {
            store
                .record_done(&key_of(s), &summary_of(s, &[s, !s]))
                .is_ok()
        })
        .collect()
}

/// After any schedule: compact reports zero corrupt spans and a clean
/// reopen serves exactly the successful appends, bit-identically.
fn assert_store_uncorrupted(dir: &PathBuf, stored_ok: &[u64]) {
    let stats = PackStore::compact(dir).expect("compact after injection");
    assert_eq!(
        stats.corrupt_spans, 0,
        "injected failures must never leave corrupt bytes"
    );
    assert_eq!(stats.records_after, stored_ok.len());
    let reopened = PackStore::open(dir).expect("clean reopen");
    assert_eq!(reopened.len(), stored_ok.len());
    for &s in stored_ok {
        assert_eq!(
            reopened.probe(&key_of(s)),
            Some(summary_of(s, &[s, !s])),
            "successful append for seed {s} must survive bit-identically"
        );
    }
}

/// Write op 0 is the new pack's magic; op 1 is the first record body.
/// A short write there is absorbed by the append loop with no retry
/// counted (it is legal `Write` behavior, not an error).
#[test]
fn short_write_is_absorbed_by_the_append_loop() {
    let dir = scratch_dir("short", 0);
    let io = FaultyIo::builder()
        .write_fault(1, WriteFault::Short)
        .build();
    {
        let store =
            PackStore::open_with(&dir, Arc::new(io), fast_retry(), Durability::Batch).unwrap();
        let ok = write_cells(&store, 2);
        assert_eq!(ok, vec![0, 1]);
        let health = store.io_health();
        assert_eq!(health.retries, 0, "a short write is not a retry");
        assert_eq!(health.degraded, 0);
    }
    assert_store_uncorrupted(&dir, &[0, 1]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// EINTR and EAGAIN are transient: the policy retries them in place,
/// counts each retry, and the append still succeeds.
#[test]
fn transient_errors_retry_and_succeed() {
    for fault in [WriteFault::Interrupted, WriteFault::WouldBlock] {
        let dir = scratch_dir("transient", fault as u64);
        let io = FaultyIo::builder().write_fault(1, fault).build();
        {
            let store =
                PackStore::open_with(&dir, Arc::new(io), fast_retry(), Durability::Batch).unwrap();
            let ok = write_cells(&store, 2);
            assert_eq!(ok, vec![0, 1]);
            let health = store.io_health();
            assert_eq!(health.retries, 1, "exactly one injected transient fault");
            assert_eq!(health.degraded, 0);
        }
        assert_store_uncorrupted(&dir, &[0, 1]);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// ENOSPC is persistent: retries cannot help, the append fails, the
/// partial record is truncated away, and the store degrades to
/// read-only for the rest of its life.
#[test]
fn storage_full_degrades_the_store() {
    let dir = scratch_dir("enospc", 0);
    let io = FaultyIo::builder()
        .write_fault(2, WriteFault::StorageFull)
        .build();
    {
        let store =
            PackStore::open_with(&dir, Arc::new(io), fast_retry(), Durability::Batch).unwrap();
        assert!(store
            .record_done(&key_of(0), &summary_of(0, &[0, !0]))
            .is_ok());
        assert!(
            store
                .record_done(&key_of(1), &summary_of(1, &[1, !1]))
                .is_err(),
            "ENOSPC must surface as a failed append"
        );
        assert!(
            store.record_done(&key_of(9), &summary_of(9, &[9])).is_err(),
            "a degraded store rejects writes"
        );
        let health = store.io_health();
        assert_eq!(health.degraded, 1);
    }
    assert_store_uncorrupted(&dir, &[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Under `Durability::Record` every append syncs; an injected sync
/// failure rolls the whole record back (the caller re-simulates that
/// cell) rather than reporting durable success for unsynced bytes.
#[test]
fn record_durability_rolls_back_on_sync_failure() {
    let dir = scratch_dir("sync", 0);
    let io = FaultyIo::builder().sync_fault(0).build();
    {
        let store =
            PackStore::open_with(&dir, Arc::new(io), fast_retry(), Durability::Record).unwrap();
        assert!(
            store
                .record_done(&key_of(0), &summary_of(0, &[0, !0]))
                .is_err(),
            "an unsyncable record must not report success"
        );
        let health = store.io_health();
        assert_eq!(health.sync_failures, 1);
        assert_eq!(health.degraded, 1);
    }
    assert_store_uncorrupted(&dir, &[]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A failed sidecar rename leaves no `.idx` behind; the reopen falls
/// back to a full pack scan and serves every decided cell.
#[test]
fn failed_sidecar_rename_falls_back_to_pack_scan() {
    let dir = scratch_dir("rename", 0);
    let io = FaultyIo::builder().rename_fault(0).build();
    {
        let store =
            PackStore::open_with(&dir, Arc::new(io), fast_retry(), Durability::Batch).unwrap();
        let ok = write_cells(&store, 3);
        assert_eq!(ok, vec![0, 1, 2]);
    } // Drop writes sidecars; the first rename is injected to fail.
    let sidecars = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "idx"))
        .count();
    assert_eq!(sidecars, 0, "the injected rename must drop the sidecar");
    assert_store_uncorrupted(&dir, &[0, 1, 2]);
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random seeded schedules across every durability level: each
    /// append completes (possibly with retries) or fails cleanly; the
    /// store is never corrupted; compact confirms zero bad records; a
    /// clean reopen serves exactly the successful appends.
    #[test]
    fn seeded_schedules_complete_or_degrade_without_corruption(
        seed in any::<u64>(),
        density in 20u64..300,
        durability_pick in 0u8..3,
        records in 3u64..8,
        bits in proptest::collection::vec(any::<u64>(), 0..4),
    ) {
        let dir = scratch_dir("seeded", seed ^ (density << 32));
        let durability = match durability_pick {
            0 => Durability::None,
            1 => Durability::Batch,
            _ => Durability::Record,
        };
        let io = FaultyIo::seeded(seed, 64, density);
        let injected_any;
        let mut stored_ok: Vec<u64> = Vec::new();
        {
            let store = PackStore::open_with(
                &dir,
                Arc::new(io.clone()),
                fast_retry(),
                durability,
            ).unwrap();
            for s in 0..records {
                if store.record_done(&key_of(s), &summary_of(s, &bits)).is_ok() {
                    stored_ok.push(s);
                }
            }
            injected_any = io.injected() > 0;
            if !injected_any {
                prop_assert!(store.io_health().is_clean());
                prop_assert_eq!(stored_ok.len() as u64, records);
            }
        }
        let stats = PackStore::compact(&dir).unwrap();
        prop_assert_eq!(stats.corrupt_spans, 0, "no schedule may corrupt the store");
        prop_assert_eq!(stats.records_after, stored_ok.len());
        let reopened = PackStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.len(), stored_ok.len());
        for &s in &stored_ok {
            prop_assert_eq!(reopened.probe(&key_of(s)), Some(summary_of(s, &bits)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
