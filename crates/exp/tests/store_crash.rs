//! Pack-store crash-consistency properties: a torn pack tail loses at
//! most the torn record and never corrupts an earlier one, a truncated
//! or garbled sidecar index is re-derived from the packs with no
//! decided cell lost.
//!
//! The corruption grid mirrors the deterministic fault-injection style
//! of the engine's crash tests: proptest picks *where* to cut, the
//! assertions are exact (which cells survive, which recompute) rather
//! than "it did not crash".

use std::path::PathBuf;

use harvest_exp::cache::{TrialKey, TrialSummary};
use harvest_exp::scenario::{PaperScenario, PolicyKind};
use harvest_exp::store::{CellOutcome, PackStore, TrialStore};
use proptest::prelude::*;

fn scratch_dir(tag: &str, case: u64) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "harvest-store-crash-{tag}-{case:016x}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn key_of(seed: u64) -> TrialKey {
    PaperScenario::new(0.4, 300.0).trial_key(PolicyKind::EaDvfs, seed)
}

/// A summary whose payload exercises the full codec: counters plus
/// raw f64 bit patterns (including values JSON could not round-trip,
/// like NaNs with payload bits).
fn summary_of(seed: u64, sample_bits: &[u64]) -> TrialSummary {
    TrialSummary {
        released: 40 + seed,
        completed_in_time: 30 + seed,
        missed: 10,
        sample_level_bits: sample_bits.to_vec(),
    }
}

/// The single pack file of a store written by one thread.
fn only_pack(dir: &PathBuf) -> PathBuf {
    let packs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "hpk"))
        .collect();
    assert_eq!(packs.len(), 1, "single-threaded appends use one slot");
    packs.into_iter().next().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cut an arbitrary number of bytes off the pack tail: every record
    /// before the cut must survive bit-identically, everything at or
    /// past the cut is truncated away (a recomputable miss, never a
    /// garbled hit), and the reopened store has healed the file to a
    /// record boundary so a third open scans cleanly.
    #[test]
    fn torn_pack_tail_loses_only_the_torn_records(
        case in any::<u64>(),
        records in 2usize..6,
        cut in 1u64..200,
        bits in proptest::collection::vec(any::<u64>(), 0..5),
    ) {
        let dir = scratch_dir("tail", case);
        {
            let store = PackStore::open(&dir).unwrap();
            for seed in 0..records as u64 {
                store.store(&key_of(seed), &summary_of(seed, &bits));
            }
        }
        let pack = only_pack(&dir);
        let full = std::fs::read(&pack).unwrap();
        // Never cut into the 8-byte magic: a headerless file is ignored
        // wholesale, which is the unit-tested path, not this one.
        let cut = (cut % (full.len() as u64 - 8)).max(1);
        let torn_len = full.len() - cut as usize;
        std::fs::write(&pack, &full[..torn_len]).unwrap();

        let reopened = PackStore::open(&dir).unwrap();
        let healed_len = std::fs::metadata(&pack).unwrap().len();
        prop_assert!(healed_len <= torn_len as u64, "healing never grows the file");
        // Survivors are exactly the records wholly before the cut —
        // count them through probes and check bit-identity.
        let mut survivors = 0;
        for seed in 0..records as u64 {
            if let Some(got) = reopened.probe(&key_of(seed)) {
                prop_assert_eq!(got, summary_of(seed, &bits));
                survivors += 1;
            } else {
                // Missing records must be a suffix: a torn tail cannot
                // swallow an earlier record while serving a later one.
                for later in seed..records as u64 {
                    prop_assert!(reopened.probe(&key_of(later)).is_none());
                }
                break;
            }
        }
        prop_assert!(survivors < records, "the cut destroyed at least one record");
        prop_assert_eq!(reopened.len(), survivors);
        // The lost cells recompute and re-store; a clean reopen then
        // serves the full grid again.
        for seed in survivors as u64..records as u64 {
            reopened.store(&key_of(seed), &summary_of(seed, &bits));
        }
        drop(reopened);
        let healed = PackStore::open(&dir).unwrap();
        for seed in 0..records as u64 {
            prop_assert_eq!(healed.probe(&key_of(seed)), Some(summary_of(seed, &bits)));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Truncate or garble the sidecar index at an arbitrary byte: the
    /// store must fall back to a full pack scan and serve every decided
    /// cell — done *and* quarantined records both survive, so a resumed
    /// fault campaign loses nothing to a torn index.
    #[test]
    fn truncated_sidecar_rederives_every_decided_cell(
        case in any::<u64>(),
        cut_at in 0usize..64,
        garble in any::<bool>(),
    ) {
        let dir = scratch_dir("idx", case);
        let failure = harvest_exp::parallel::CellFailure {
            message: "watchdog: starved".to_owned(),
            panicked: false,
            worker: 1,
        };
        {
            let store = PackStore::open(&dir).unwrap();
            for seed in 0..3u64 {
                store.record_done(&key_of(seed), &summary_of(seed, &[1, 2])).unwrap();
            }
            store.record_quarantined(&key_of(3), &failure).unwrap();
        }
        let idx = only_pack(&dir).with_extension("idx");
        prop_assert!(idx.exists(), "clean drop writes the sidecar");
        let idx_bytes = std::fs::read(&idx).unwrap();
        let cut_at = cut_at % idx_bytes.len();
        if garble {
            let mut garbled = idx_bytes.clone();
            garbled[cut_at] ^= 0xA5;
            std::fs::write(&idx, garbled).unwrap();
        } else {
            std::fs::write(&idx, &idx_bytes[..cut_at]).unwrap();
        }

        let reopened = PackStore::open(&dir).unwrap();
        prop_assert_eq!(reopened.loaded(), 4, "every decided cell reloads");
        for seed in 0..3u64 {
            match reopened.decided(&key_of(seed)) {
                Some(CellOutcome::Done(got)) => prop_assert_eq!(got, summary_of(seed, &[1, 2])),
                other => prop_assert!(false, "cell {} not done: {:?}", seed, other),
            }
        }
        match reopened.decided(&key_of(3)) {
            Some(CellOutcome::Quarantined(got)) => prop_assert_eq!(got, failure.clone()),
            other => prop_assert!(false, "quarantine lost: {:?}", other),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
