//! Release-tape equivalence: a tape-driven trial must be bit-identical
//! to the heap-driven trial it elides events for.
//!
//! Under a tape the closed loop serves every `Arrival` the scalar
//! engine would have heap-scheduled from each task's next release,
//! computed from its phase and period, so the only acceptable
//! observable difference is throughput. This
//! property drives full paper trials — random utilization, capacity,
//! policy, sampling, and fault plans that rewrite the harvest profile
//! mid-run — and asserts both [`SimResult`] equality and byte-identity
//! of the serialized [`TrialSummary`] (the unit the sweep store
//! persists and content-addresses).
//!
//! [`SimResult`]: harvest_core::SimResult
//! [`TrialSummary`]: harvest_exp::cache::TrialSummary

use harvest_exp::cache::TrialSummary;
use harvest_exp::scenario::{PaperScenario, PolicyKind, SimPool};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn taped_trials_are_bit_identical_to_heap_trials(
        seed in 0u64..1024,
        utilization in prop_oneof![Just(0.3), Just(0.6), Just(0.9)],
        capacity in prop_oneof![Just(50.0), Just(300.0), Just(2000.0)],
        policy_index in 0usize..PolicyKind::ALL.len(),
        sample_units in prop_oneof![Just(None), Just(Some(50)), Just(Some(173))],
        fault_intensity in prop_oneof![Just(0.0), 0.25f64..1.0],
    ) {
        let policy = PolicyKind::ALL[policy_index];
        let mut scenario =
            PaperScenario::new(utilization, capacity).with_fault_intensity(fault_intensity);
        scenario.horizon_units = 500;
        if let Some(dt) = sample_units {
            scenario = scenario.with_sampling(dt);
        }

        let taped_prefab = scenario.prefab(seed);
        prop_assert!(taped_prefab.tape.is_some(), "prefabs carry the tape by default");
        let heap_prefab = taped_prefab.clone().without_tape();

        let mut pool = SimPool::new();
        let taped = scenario.run_prefab_in(&mut pool, policy, &taped_prefab);
        let heap = scenario.run_prefab_in(&mut pool, policy, &heap_prefab);
        prop_assert_eq!(&taped, &heap, "tape-driven run diverged from the heap-driven run");

        let taped_bytes = serde_json::to_string(&TrialSummary::of(&taped)).unwrap();
        let heap_bytes = serde_json::to_string(&TrialSummary::of(&heap)).unwrap();
        prop_assert_eq!(taped_bytes, heap_bytes, "TrialSummary bytes diverged");
    }
}
