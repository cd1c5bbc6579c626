//! Canonical trial keys and the persisted trial summary.
//!
//! The Fig. 5–9 evaluations are grids of thousands of independent
//! trials, each fully determined by `(scenario, policy, seed)` — the
//! simulator is deterministic. This module defines what identifies such
//! a cell and what is kept of it; [`crate::store::PackStore`] is where
//! it is kept.
//!
//! * [`TrialKey`] holds the **canonical key text**
//!   `v{CACHE_SCHEMA_VERSION}|{json(scenario)}|{policy}|{seed}` and its
//!   FNV-1a fingerprint. The store indexes by fingerprint but stores and
//!   re-verifies the full text, so a fingerprint collision can never
//!   substitute a foreign result.
//! * `CACHE_SCHEMA_VERSION` participates in the key text; bump it on
//!   any change to simulation semantics or to the summary layout, and
//!   every stale record misses naturally.
//! * [`TrialSummary`] is the handful of numbers the figure drivers
//!   consume. Sampled storage levels round-trip as `f64::to_bits`
//!   integers, so a warm figure is bit-identical to a cold one.
//!
//! The module keeps its historical name so that existing imports of
//! `harvest_exp::cache::{fnv1a64, TrialKey, TrialSummary}` keep
//! working; it no longer holds a cache of its own.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::scenario::{PaperScenario, PolicyKind};
use harvest_core::result::SimResult;

/// Version of the stored-trial contract. Participates in every key, so
/// bumping it invalidates all prior records. Bump whenever simulation
/// semantics, scenario serialization, or the summary layout change.
pub(crate) const CACHE_SCHEMA_VERSION: u32 = 1;

/// FNV-1a 64-bit, the workspace's standing content-hash choice. Public
/// so smoke tooling can digest figure outputs for equality checks.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_resume(0xcbf2_9ce4_8422_2325, bytes)
}

/// One FNV-1a step: the hash state after byte `b`.
pub(crate) fn fnv1a64_step(h: u64, b: u8) -> u64 {
    (h ^ b as u64).wrapping_mul(0x1_0000_0000_01b3)
}

/// Continues an FNV-1a hash from state `h` over `bytes`. FNV-1a is a
/// left fold, so `fnv1a64_resume(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub(crate) fn fnv1a64_resume(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| fnv1a64_step(h, b))
}

/// The stable identity of one sweep cell.
///
/// Holds the canonical key text — a versioned, serde-serialized record
/// of everything that determines the trial's outcome — plus its
/// fingerprint. Two keys are interchangeable exactly when their texts
/// are byte-equal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialKey {
    text: String,
    fingerprint: u64,
    /// Where the scenario prefix `v{CACHE_SCHEMA_VERSION}|{json}|` of
    /// `text` ends.
    prefix_len: usize,
}

/// The part of a key text that depends on the scenario alone, with the
/// FNV-1a state after it.
struct ScenarioPrefix {
    scenario: PaperScenario,
    /// `v{CACHE_SCHEMA_VERSION}|{json(scenario)}|`.
    text: String,
    /// `fnv1a64(text)`, the fingerprint state every key of this
    /// scenario continues from.
    state: u64,
}

thread_local! {
    /// Last scenario keyed on this thread, with its prefix. Key
    /// construction is on the warm probe path, and one figure grid
    /// builds thousands of keys over a handful of scenarios in runs of
    /// identical ones (the seed/policy axes vary faster), so a
    /// last-value memo turns the dominant costs — the serde `Value`-tree
    /// serialization and hashing the ~145-byte prefix — into an equality
    /// check, one copy of the prefix and a hash of the 10–25 bytes after
    /// it.
    static SCENARIO_PREFIX_MEMO: std::cell::RefCell<Option<ScenarioPrefix>> =
        const { std::cell::RefCell::new(None) };
}

impl TrialKey {
    /// Builds the key for `(scenario, policy, seed)` under the current
    /// `CACHE_SCHEMA_VERSION`.
    pub fn new(scenario: &PaperScenario, policy: PolicyKind, seed: u64) -> Self {
        SCENARIO_PREFIX_MEMO.with(|memo| {
            let mut memo = memo.borrow_mut();
            let prefix = match &mut *memo {
                Some(prefix) if prefix.scenario == *scenario => prefix,
                slot => {
                    let json = serde_json::to_string(scenario)
                        .expect("scenario serialization is infallible");
                    let text = format!("v{CACHE_SCHEMA_VERSION}|{json}|");
                    slot.insert(ScenarioPrefix {
                        scenario: scenario.clone(),
                        state: fnv1a64(text.as_bytes()),
                        text,
                    })
                }
            };
            // The text is byte-identical to
            // `format!("v{CACHE_SCHEMA_VERSION}|{json}|{policy}|{seed}")`,
            // and the fingerprint to `fnv1a64` of it.
            let policy = policy.name();
            let digits = seed.checked_ilog10().map_or(1, |d| d as usize + 1);
            let prefix_len = prefix.text.len();
            let mut text = String::with_capacity(prefix_len + policy.len() + 1 + digits);
            text.push_str(&prefix.text);
            text.push_str(policy);
            text.push('|');
            write!(text, "{seed}").expect("writing to a String is infallible");
            let fingerprint = fnv1a64_resume(prefix.state, &text.as_bytes()[prefix_len..]);
            TrialKey {
                text,
                fingerprint,
                prefix_len,
            }
        })
    }

    /// The cell a key text names: parses `text` back to
    /// `(scenario, policy, seed)` and accepts it only when
    /// [`TrialKey::new`] rebuilds `text` byte for byte, so an edited key
    /// (reordered fields, another schema version) is refused instead of
    /// naming a different cell.
    ///
    /// # Errors
    ///
    /// Returns a message saying which part does not parse or rebuild.
    pub fn parse(text: &str) -> Result<(PaperScenario, PolicyKind, u64), String> {
        let version = format!("v{CACHE_SCHEMA_VERSION}|");
        let rest = text
            .strip_prefix(&version)
            .ok_or_else(|| format!("key does not start with `{version}`"))?;
        let mut fields = rest.rsplitn(3, '|');
        let (Some(seed), Some(policy), Some(json)) = (fields.next(), fields.next(), fields.next())
        else {
            return Err("key must read v{N}|{scenario}|{policy}|{seed}".into());
        };
        let seed = seed
            .parse()
            .map_err(|_| format!("key seed `{seed}` is not an unsigned integer"))?;
        let policy = PolicyKind::ALL
            .into_iter()
            .find(|p| p.name() == policy)
            .ok_or_else(|| format!("key policy `{policy}` is unknown"))?;
        let scenario: PaperScenario =
            serde_json::from_str(json).map_err(|e| format!("key scenario does not parse: {e}"))?;
        if TrialKey::new(&scenario, policy, seed).text() != text {
            return Err("key is not canonical: its scenario serializes differently".into());
        }
        Ok((scenario, policy, seed))
    }

    /// The canonical key text (stored inside every store record).
    pub fn text(&self) -> &str {
        &self.text
    }

    /// 64-bit content fingerprint of the key text; the store's index
    /// key. Collisions are harmless (the stored text disambiguates) but
    /// cost a recompute.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Length of the scenario prefix `v{CACHE_SCHEMA_VERSION}|{json}|`
    /// that starts [`text`](Self::text): every key of one scenario
    /// shares it.
    pub(crate) fn prefix_len(&self) -> usize {
        self.prefix_len
    }
}

/// The figure-facing subset of a [`SimResult`], reduced to exactly what
/// the Fig. 5–9 drivers consume. Counts are stored raw and rates are
/// recomputed with the same integer-to-float arithmetic as
/// [`SimResult`], and sample levels are stored as `f64::to_bits`
/// integers, so a summary read back from disk reproduces the original
/// figures bit for bit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialSummary {
    /// Jobs released within the horizon.
    pub released: u64,
    /// Jobs that completed by their deadline.
    pub completed_in_time: u64,
    /// Jobs that missed their deadline.
    pub missed: u64,
    /// Raw storage-level samples (`IEEE-754` bit patterns, in grid
    /// order), empty unless the run sampled.
    pub sample_level_bits: Vec<u64>,
}

impl TrialSummary {
    /// Extracts the summary from a full result.
    pub fn of(result: &SimResult) -> Self {
        TrialSummary {
            released: result.released() as u64,
            completed_in_time: result.completed_in_time() as u64,
            missed: result.missed() as u64,
            sample_level_bits: result.samples.iter().map(|&(_, v)| v.to_bits()).collect(),
        }
    }

    /// Deadline miss rate, mirroring [`SimResult::miss_rate`].
    pub fn miss_rate(&self) -> f64 {
        let decided = self.completed_in_time + self.missed;
        if decided == 0 {
            0.0
        } else {
            self.missed as f64 / decided as f64
        }
    }

    /// `true` if every decided job met its deadline.
    pub fn is_miss_free(&self) -> bool {
        self.missed == 0
    }

    /// Sample levels normalized by `capacity`, mirroring
    /// [`SimResult::normalized_samples`] (values only; the grid is
    /// implied by the scenario's sampling interval).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is not positive.
    pub(crate) fn normalized_sample_values(&self, capacity: f64) -> Vec<f64> {
        assert!(capacity > 0.0, "capacity must be positive");
        self.sample_level_bits
            .iter()
            .map(|&bits| f64::from_bits(bits) / capacity)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PredictorKind;

    fn summary() -> TrialSummary {
        TrialSummary {
            released: 40,
            completed_in_time: 30,
            missed: 10,
            sample_level_bits: vec![1.0f64.to_bits(), 0.25f64.to_bits()],
        }
    }

    #[test]
    fn fingerprint_is_stable_and_distinguishes_cells() {
        let s = PaperScenario::new(0.4, 500.0);
        let a = TrialKey::new(&s, PolicyKind::EaDvfs, 7);
        let b = TrialKey::new(&s, PolicyKind::EaDvfs, 7);
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        let other_seed = TrialKey::new(&s, PolicyKind::EaDvfs, 8);
        let other_policy = TrialKey::new(&s, PolicyKind::Lsa, 7);
        let other_cap = TrialKey::new(&PaperScenario::new(0.4, 501.0), PolicyKind::EaDvfs, 7);
        for other in [&other_seed, &other_policy, &other_cap] {
            assert_ne!(a.text(), other.text());
            assert_ne!(a.fingerprint(), other.fingerprint());
        }
        assert!(a.text().starts_with(&format!("v{CACHE_SCHEMA_VERSION}|")));

        // Pinned keys: any drift in a key text or fingerprint turns every
        // existing store cold. They are built in an order that alternates
        // scenarios, so the per-thread scenario memo both hits and is
        // replaced, on this thread and again on a fresh one; each also
        // equals the key written out in full and hashed from scratch.
        let pinned: [(u64, &str); 6] = [
            (
                0xa418_d360_8547_5026,
                r#"v1|{"num_tasks":5,"utilization":0.8,"capacity":50.0,"horizon_units":10000,"sample_interval_units":null,"source_dt_units":1,"predictor":"Oracle"}|lsa|1000000"#,
            ),
            (
                0x0d48_cbf7_cde1_a915,
                r#"v1|{"num_tasks":5,"utilization":0.4,"capacity":500.0,"horizon_units":10000,"sample_interval_units":null,"source_dt_units":1,"predictor":"Oracle"}|ea-dvfs|0"#,
            ),
            (
                0xd664_d16d_4d5f_dbfe,
                r#"v1|{"num_tasks":5,"utilization":0.4,"capacity":500.0,"horizon_units":10000,"sample_interval_units":null,"source_dt_units":1,"predictor":"Oracle"}|ea-dvfs|18446744073709551615"#,
            ),
            (
                0xa549_871d_ab3a_c6e6,
                r#"v1|{"num_tasks":5,"utilization":0.4,"capacity":300.0,"horizon_units":10000,"sample_interval_units":100,"source_dt_units":1,"predictor":"Oracle"}|lsa|9"#,
            ),
            (
                0x4738_5fa3_5824_4784,
                r#"v1|{"num_tasks":5,"utilization":0.4,"capacity":300.0,"horizon_units":10000,"sample_interval_units":null,"source_dt_units":1,"predictor":"Oracle","fault":{"intensity":0.5}}|lsa|10"#,
            ),
            (
                0x8f5a_3d1a_7fa8_51bc,
                r#"v1|{"num_tasks":5,"utilization":0.4,"capacity":300.0,"horizon_units":10000,"sample_interval_units":null,"source_dt_units":1,"predictor":"Ewma"}|greedy-stretch|7"#,
            ),
        ];
        let cells = [
            (PaperScenario::new(0.8, 50.0), PolicyKind::Lsa, 1_000_000),
            (PaperScenario::new(0.4, 500.0), PolicyKind::EaDvfs, 0),
            (PaperScenario::new(0.4, 500.0), PolicyKind::EaDvfs, u64::MAX),
            (
                PaperScenario::new(0.4, 300.0).with_sampling(100),
                PolicyKind::Lsa,
                9,
            ),
            (
                PaperScenario::new(0.4, 300.0).with_fault_intensity(0.5),
                PolicyKind::Lsa,
                10,
            ),
            (
                PaperScenario::new(0.4, 300.0).with_predictor(PredictorKind::Ewma),
                PolicyKind::GreedyStretch,
                7,
            ),
        ];
        let check = || {
            for ((scenario, policy, seed), (fingerprint, text)) in cells.iter().zip(pinned) {
                let key = TrialKey::new(scenario, *policy, *seed);
                assert_eq!((key.fingerprint(), key.text()), (fingerprint, text));
                let full = format!(
                    "v1|{}|{}|{seed}",
                    serde_json::to_string(scenario).unwrap(),
                    policy.name()
                );
                assert_eq!(key.text(), full);
                assert_eq!(key.fingerprint(), fnv1a64(full.as_bytes()));
            }
        };
        check();
        std::thread::scope(|scope| scope.spawn(check).join().unwrap());
    }

    #[test]
    fn keys_parse_back_to_their_cells() {
        let predictors = [
            PredictorKind::Oracle,
            PredictorKind::Ewma,
            PredictorKind::MovingAverage { window: 100 },
            PredictorKind::Persistence,
            PredictorKind::Biased { factor: 1.25 },
        ];
        for predictor in predictors {
            for (utilization, capacity) in [(0.2, 50.0), (0.4, 300.0), (0.8, 1234.5), (1.0, 1e6)] {
                for intensity in [0.0, 0.35, 1.0] {
                    for sampling in [None, Some(100)] {
                        let mut scenario = PaperScenario::new(utilization, capacity)
                            .with_predictor(predictor)
                            .with_fault_intensity(intensity);
                        scenario.sample_interval_units = sampling;
                        for (policy, seed) in
                            PolicyKind::ALL.into_iter().zip([0, 7, 1 << 40, u64::MAX])
                        {
                            let key = TrialKey::new(&scenario, policy, seed);
                            assert_eq!(
                                TrialKey::parse(key.text()),
                                Ok((scenario.clone(), policy, seed)),
                                "{}",
                                key.text()
                            );
                        }
                    }
                }
            }
        }

        let text = TrialKey::new(&PaperScenario::new(0.4, 500.0), PolicyKind::Lsa, 3)
            .text()
            .to_owned();
        let reordered = text.replace(
            r#"{"num_tasks":5,"utilization":0.4,"#,
            r#"{"utilization":0.4,"num_tasks":5,"#,
        );
        assert_ne!(reordered, text);
        for bad in [
            reordered,
            text.replace("|lsa|", "|sjf|"),
            text.replacen("v1|", "v2|", 1),
            text.replace("|lsa|3", "|lsa|three"),
            text.replace("|lsa|3", "|lsa|-3"),
            "v1|{}".to_owned(),
        ] {
            assert!(TrialKey::parse(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn summary_rates_mirror_sim_result() {
        let s = summary();
        assert_eq!(s.miss_rate(), 10.0 / 40.0);
        assert!(!s.is_miss_free());
        let clean = TrialSummary {
            missed: 0,
            ..summary()
        };
        assert!(clean.is_miss_free());
        let undecided = TrialSummary {
            completed_in_time: 0,
            missed: 0,
            ..summary()
        };
        assert_eq!(undecided.miss_rate(), 0.0);
    }
}
