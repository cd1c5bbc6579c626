//! Pinned bit-identicality suite for the Fig. 5–9 scenario family.
//!
//! Every observable here — engine event counts, job outcomes, energy
//! bookkeeping, full trace sequences — was captured from a known-good
//! build and hard-coded. The hot-path data structures (event queue,
//! EDF ready queue, scenario prefabs) are free to change internally,
//! but any drift in event ordering or arithmetic shows up as a hash
//! mismatch and fails this suite.
//!
//! The fingerprints are FNV-1a over the exact field values (`f64`s via
//! `to_bits`), so a single flipped bit anywhere in a run is caught.

use harvest_rt::core::result::{JobOutcome, SimResult};
use harvest_rt::core::trace::TraceEvent;
use harvest_rt::prelude::*;

const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(0x0000_0100_0000_01B3)
}

fn trace_hash(trace: &[(SimTime, TraceEvent)]) -> u64 {
    let mut h = FNV_SEED;
    for &(t, ev) in trace {
        h = fnv(h, t.as_ticks() as u64);
        let (tag, a, b, c) = match ev {
            TraceEvent::Released {
                job,
                task,
                deadline,
            } => (1u64, job.0, task as u64, deadline.as_ticks() as u64),
            TraceEvent::Started { job, level } => (2, job.0, level as u64, 0),
            TraceEvent::Completed { job } => (3, job.0, 0, 0),
            TraceEvent::Missed { job } => (4, job.0, 0, 0),
            TraceEvent::Idled { until } => {
                (5, until.map_or(u64::MAX, |t| t.as_ticks() as u64), 0, 0)
            }
            TraceEvent::Stalled { until } => {
                (6, until.map_or(u64::MAX, |t| t.as_ticks() as u64), 0, 0)
            }
            TraceEvent::HarvestFault { factor, active } => (7, factor.to_bits(), active as u64, 0),
            TraceEvent::LevelLockout { level, locked } => (8, level as u64, locked as u64, 0),
        };
        h = fnv(h, tag);
        h = fnv(h, a);
        h = fnv(h, b);
        h = fnv(h, c);
    }
    h
}

fn energy_hash(r: &SimResult) -> u64 {
    let mut h = FNV_SEED;
    for v in [
        r.energy.harvested,
        r.energy.consumed,
        r.energy.overflow,
        r.energy.deficit,
        r.energy.initial_level,
        r.energy.final_level,
        r.idle_time,
        r.stall_time,
    ] {
        h = fnv(h, v.to_bits());
    }
    for &lt in &r.level_time {
        h = fnv(h, lt.to_bits());
    }
    h
}

fn jobs_hash(r: &SimResult) -> u64 {
    let mut h = FNV_SEED;
    for j in &r.jobs {
        h = fnv(h, j.id.0);
        h = fnv(h, j.arrival.as_ticks() as u64);
        h = fnv(h, j.deadline.as_ticks() as u64);
        h = fnv(h, j.wcet.to_bits());
        h = fnv(h, j.energy.to_bits());
        let (tag, at) = match j.outcome {
            JobOutcome::Completed { at } => (1u64, at.as_ticks() as u64),
            JobOutcome::Missed { completed } => {
                (2, completed.map_or(u64::MAX, |t| t.as_ticks() as u64))
            }
            JobOutcome::Pending => (3, 0),
        };
        h = fnv(h, tag);
        h = fnv(h, at);
    }
    h
}

fn samples_hash(r: &SimResult) -> u64 {
    let mut h = FNV_SEED;
    for &(t, v) in &r.samples {
        h = fnv(h, t.as_ticks() as u64);
        h = fnv(h, v.to_bits());
    }
    h
}

/// Pinned observables for one untraced sweep trial.
struct Pinned {
    events: u64,
    released: usize,
    missed: usize,
    switches: u64,
    trace_events: u64,
    energy_hash: u64,
    jobs_hash: u64,
}

/// Pinned observables for one traced + sampled run.
struct Traced {
    events: u64,
    trace_len: usize,
    trace_hash: u64,
    samples_hash: u64,
}

#[rustfmt::skip]
const PINNED: &[(f64, f64, PolicyKind, u64, Pinned)] = &[
    (0.4, 500.0, PolicyKind::Edf, 0, Pinned { events: 8053, released: 2212, missed: 0, switches: 0, trace_events: 8058, energy_hash: 0xEC01A36876F716C3, jobs_hash: 0xEED1D699FC362B93 }),
    (0.4, 500.0, PolicyKind::Edf, 1, Pinned { events: 9995, released: 2700, missed: 0, switches: 0, trace_events: 10000, energy_hash: 0xEA872424EFDD072F, jobs_hash: 0x38D34C3868043B1B }),
    (0.4, 500.0, PolicyKind::Edf, 7, Pinned { events: 2921, released: 839, missed: 0, switches: 0, trace_events: 2926, energy_hash: 0x556630B5A8A5750E, jobs_hash: 0x829321ACC079AE2D }),
    (0.4, 500.0, PolicyKind::Lsa, 0, Pinned { events: 8053, released: 2212, missed: 0, switches: 0, trace_events: 8058, energy_hash: 0xEC01A36876F716C3, jobs_hash: 0xEED1D699FC362B93 }),
    (0.4, 500.0, PolicyKind::Lsa, 1, Pinned { events: 9995, released: 2700, missed: 0, switches: 0, trace_events: 10000, energy_hash: 0xEA872424EFDD072F, jobs_hash: 0x38D34C3868043B1B }),
    (0.4, 500.0, PolicyKind::Lsa, 7, Pinned { events: 2921, released: 839, missed: 0, switches: 0, trace_events: 2926, energy_hash: 0x556630B5A8A5750E, jobs_hash: 0x829321ACC079AE2D }),
    (0.4, 500.0, PolicyKind::EaDvfs, 0, Pinned { events: 8053, released: 2212, missed: 0, switches: 0, trace_events: 8058, energy_hash: 0xEC01A36876F716C3, jobs_hash: 0xEED1D699FC362B93 }),
    (0.4, 500.0, PolicyKind::EaDvfs, 1, Pinned { events: 9995, released: 2700, missed: 0, switches: 0, trace_events: 10000, energy_hash: 0xEA872424EFDD072F, jobs_hash: 0x38D34C3868043B1B }),
    (0.4, 500.0, PolicyKind::EaDvfs, 7, Pinned { events: 2921, released: 839, missed: 0, switches: 0, trace_events: 2926, energy_hash: 0x556630B5A8A5750E, jobs_hash: 0x829321ACC079AE2D }),
    (0.4, 200.0, PolicyKind::Edf, 0, Pinned { events: 11703, released: 2212, missed: 66, switches: 0, trace_events: 10331, energy_hash: 0xB1868AAF7E37EA18, jobs_hash: 0x068E9FEBC890C7F5 }),
    (0.4, 200.0, PolicyKind::Edf, 1, Pinned { events: 13443, released: 2700, missed: 93, switches: 0, trace_events: 12113, energy_hash: 0x3A21DCD201A9B86E, jobs_hash: 0x33DC718EA2C3964B }),
    (0.4, 200.0, PolicyKind::Edf, 7, Pinned { events: 6582, released: 839, missed: 7, switches: 0, trace_events: 5333, energy_hash: 0x0B5A1AC78BA81726, jobs_hash: 0x4DA7133B6BD23B95 }),
    (0.4, 200.0, PolicyKind::Lsa, 0, Pinned { events: 8779, released: 2212, missed: 44, switches: 0, trace_events: 8671, energy_hash: 0x4908E955A8F88693, jobs_hash: 0x7C6ECC2F6A6F290C }),
    (0.4, 200.0, PolicyKind::Lsa, 1, Pinned { events: 10655, released: 2700, missed: 65, switches: 0, trace_events: 10523, energy_hash: 0x4EC6E0E230E000F7, jobs_hash: 0x841D6DAB154617DC }),
    (0.4, 200.0, PolicyKind::Lsa, 7, Pinned { events: 3354, released: 839, missed: 8, switches: 0, trace_events: 3335, energy_hash: 0x147E1FD89B249436, jobs_hash: 0x7E76C23E8E3A3617 }),
    (0.4, 200.0, PolicyKind::EaDvfs, 0, Pinned { events: 9745, released: 2212, missed: 0, switches: 895, trace_events: 8839, energy_hash: 0xE0ADFF5BF9EBB5BB, jobs_hash: 0x993CEE646CC58A11 }),
    (0.4, 200.0, PolicyKind::EaDvfs, 1, Pinned { events: 11217, released: 2700, missed: 0, switches: 724, trace_events: 10575, energy_hash: 0xB320DDA6A94DDF6C, jobs_hash: 0x462341AA53B38B83 }),
    (0.4, 200.0, PolicyKind::EaDvfs, 7, Pinned { events: 4820, released: 839, missed: 0, switches: 471, trace_events: 3844, energy_hash: 0xC236A9DD16CBCE84, jobs_hash: 0xE12711C23E5057B6 }),
    (0.8, 200.0, PolicyKind::Edf, 0, Pinned { events: 15407, released: 2212, missed: 644, switches: 0, trace_events: 12374, energy_hash: 0x707925510299F397, jobs_hash: 0x6F759B0EAB43BEFF }),
    (0.8, 200.0, PolicyKind::Edf, 1, Pinned { events: 17413, released: 2700, missed: 770, switches: 0, trace_events: 14182, energy_hash: 0xB16FF84C41679FE7, jobs_hash: 0x5BC287E85BD7B02D }),
    (0.8, 200.0, PolicyKind::Edf, 7, Pinned { events: 9612, released: 839, missed: 251, switches: 0, trace_events: 7210, energy_hash: 0x701BD7021FD52104, jobs_hash: 0x55B8390AA52EA811 }),
    (0.8, 200.0, PolicyKind::Lsa, 0, Pinned { events: 9973, released: 2212, missed: 582, switches: 0, trace_events: 9238, energy_hash: 0xF73E8B20152126F4, jobs_hash: 0x3DF810853AB90C51 }),
    (0.8, 200.0, PolicyKind::Lsa, 1, Pinned { events: 12042, released: 2700, missed: 668, switches: 0, trace_events: 11168, energy_hash: 0x04C74540F0C8EC4A, jobs_hash: 0xAED9204509680A9F }),
    (0.8, 200.0, PolicyKind::Lsa, 7, Pinned { events: 4088, released: 839, missed: 247, switches: 0, trace_events: 3709, energy_hash: 0x4FD4F98E680738E4, jobs_hash: 0x0CEB48E85DB68259 }),
    (0.8, 200.0, PolicyKind::EaDvfs, 0, Pinned { events: 13116, released: 2212, missed: 435, switches: 912, trace_events: 10745, energy_hash: 0x3C3123C8A8E1F713, jobs_hash: 0x36367C111513A3D7 }),
    (0.8, 200.0, PolicyKind::EaDvfs, 1, Pinned { events: 15736, released: 2700, missed: 478, switches: 894, trace_events: 12885, energy_hash: 0x1520C5388BE7FDBD, jobs_hash: 0x3055CDC41A99E5A1 }),
    (0.8, 200.0, PolicyKind::EaDvfs, 7, Pinned { events: 6775, released: 839, missed: 180, switches: 419, trace_events: 5068, energy_hash: 0x66B0E2FD47DC911B, jobs_hash: 0x84D554C6139079F6 }),
    (0.8, 1000.0, PolicyKind::Edf, 0, Pinned { events: 14090, released: 2212, missed: 515, switches: 0, trace_events: 11652, energy_hash: 0x2E8AB40ACA42A9F6, jobs_hash: 0xA99C0302AD317B1F }),
    (0.8, 1000.0, PolicyKind::Edf, 1, Pinned { events: 15543, released: 2700, missed: 534, switches: 0, trace_events: 13204, energy_hash: 0x2521435E6CC8295D, jobs_hash: 0xCA95E182108A9121 }),
    (0.8, 1000.0, PolicyKind::Edf, 7, Pinned { events: 8633, released: 839, missed: 202, switches: 0, trace_events: 6604, energy_hash: 0xE2CD9986F531BD27, jobs_hash: 0x06EC2C53E0AF8076 }),
    (0.8, 1000.0, PolicyKind::Lsa, 0, Pinned { events: 9692, released: 2212, missed: 446, switches: 0, trace_events: 9113, energy_hash: 0x7852618CE757D8DF, jobs_hash: 0xFB9F5ACE826F6A71 }),
    (0.8, 1000.0, PolicyKind::Lsa, 1, Pinned { events: 11683, released: 2700, missed: 468, switches: 0, trace_events: 11014, energy_hash: 0x2BF2ACFE986728EA, jobs_hash: 0xF0348136D6342EC5 }),
    (0.8, 1000.0, PolicyKind::Lsa, 7, Pinned { events: 3955, released: 839, missed: 195, switches: 0, trace_events: 3641, energy_hash: 0x1D4CF311A8D4E450, jobs_hash: 0x3D2D1F76BC21EC12 }),
    (0.8, 1000.0, PolicyKind::EaDvfs, 0, Pinned { events: 12400, released: 2212, missed: 314, switches: 804, trace_events: 10394, energy_hash: 0x4B88B7A8EBBF0394, jobs_hash: 0x1909778F4C6A6A84 }),
    (0.8, 1000.0, PolicyKind::EaDvfs, 1, Pinned { events: 14838, released: 2700, missed: 291, switches: 751, trace_events: 12482, energy_hash: 0xA5D32C89E399AD77, jobs_hash: 0xE7626D7F1B507861 }),
    (0.8, 1000.0, PolicyKind::EaDvfs, 7, Pinned { events: 6413, released: 839, missed: 130, switches: 379, trace_events: 4854, energy_hash: 0x2E0DFBFEF9B778E7, jobs_hash: 0x0B433917B35B9B8C }),
];

/// Fault-injected trials at U = 0.4, C = 300, intensity 1.0: each
/// harvest is rewritten by its fault plan into a non-uniform breakpoint
/// table, so these rows pin the profile kernel's table side.
#[rustfmt::skip]
const FAULTED: &[(PolicyKind, u64, Pinned)] = &[
    (PolicyKind::Edf, 0, Pinned { events: 10996, released: 2212, missed: 260, switches: 0, trace_events: 9943, energy_hash: 0x3C8292D49BAF0705, jobs_hash: 0xBD7BA074BA46B863 }),
    (PolicyKind::Edf, 1, Pinned { events: 13160, released: 2700, missed: 293, switches: 0, trace_events: 11993, energy_hash: 0xEE8EBC8E862329D7, jobs_hash: 0x2CC1CC6164475335 }),
    (PolicyKind::Edf, 7, Pinned { events: 3205, released: 839, missed: 18, switches: 0, trace_events: 3119, energy_hash: 0x2F0397D603CDA90D, jobs_hash: 0x98FEA8D4C7C4B82E }),
    (PolicyKind::Lsa, 0, Pinned { events: 9313, released: 2212, missed: 251, switches: 0, trace_events: 9212, energy_hash: 0xDF1B4F40D17B8CC5, jobs_hash: 0x2777C2CBFA842144 }),
    (PolicyKind::Lsa, 1, Pinned { events: 11110, released: 2700, missed: 269, switches: 0, trace_events: 11005, energy_hash: 0xE0A8C5BBBC955DAC, jobs_hash: 0xA7D3B49F5D803ED4 }),
    (PolicyKind::Lsa, 7, Pinned { events: 3267, released: 839, missed: 18, switches: 0, trace_events: 3272, energy_hash: 0xED621088C67AA737, jobs_hash: 0x86D910B32B5CC790 }),
    (PolicyKind::EaDvfs, 0, Pinned { events: 9435, released: 2212, missed: 166, switches: 873, trace_events: 8728, energy_hash: 0x13E57E4FAE91972F, jobs_hash: 0x5BF8525243634A52 }),
    (PolicyKind::EaDvfs, 1, Pinned { events: 11083, released: 2700, missed: 179, switches: 705, trace_events: 10552, energy_hash: 0xC3B3D5965F29327A, jobs_hash: 0x876C0EEFF5C42EE5 }),
    (PolicyKind::EaDvfs, 7, Pinned { events: 3577, released: 839, missed: 11, switches: 382, trace_events: 3235, energy_hash: 0xD73C7CC8BF6322BA, jobs_hash: 0x13C23A03820FCE16 }),
];

#[rustfmt::skip]
const TRACED: &[(PolicyKind, u64, Traced)] = &[
    (PolicyKind::Edf, 0, Traced { events: 8093, trace_len: 8058, trace_hash: 0x47358C81031CD27A, samples_hash: 0xAE90733A861C46D0 }),
    (PolicyKind::Edf, 3, Traced { events: 3961, trace_len: 3926, trace_hash: 0xFBE432A76761B45C, samples_hash: 0x6E5F8A4350AE18F4 }),
    (PolicyKind::Lsa, 0, Traced { events: 8297, trace_len: 8263, trace_hash: 0xB06C6AE26C5ED071, samples_hash: 0x98CCEE06D26DAC3B }),
    (PolicyKind::Lsa, 3, Traced { events: 4172, trace_len: 4137, trace_hash: 0x5685B2907545CC1C, samples_hash: 0xBFEAE1BCEFDC2695 }),
    (PolicyKind::EaDvfs, 0, Traced { events: 8982, trace_len: 8467, trace_hash: 0x1E1AD8BCEEDD3244, samples_hash: 0x71EC468390037339 }),
    (PolicyKind::EaDvfs, 3, Traced { events: 4852, trace_len: 4351, trace_hash: 0xF10D3AFE3F4DAD98, samples_hash: 0xC99D31EA3A2A54DC }),
];

/// Asserts every pinned observable of one untraced run.
fn assert_pinned(r: &SimResult, want: &Pinned, ctx: &str) {
    assert_eq!(r.events, want.events, "events drifted ({ctx})");
    assert_eq!(r.released(), want.released, "released drifted ({ctx})");
    assert_eq!(r.missed(), want.missed, "missed drifted ({ctx})");
    assert_eq!(r.switches, want.switches, "switches drifted ({ctx})");
    assert_eq!(
        r.trace_events, want.trace_events,
        "trace_events drifted ({ctx})"
    );
    assert_eq!(
        energy_hash(r),
        want.energy_hash,
        "energy accounting drifted ({ctx})"
    );
    assert_eq!(jobs_hash(r), want.jobs_hash, "job records drifted ({ctx})");
}

#[test]
fn sweep_runs_stay_bit_identical() {
    for (u, cap, policy, seed, want) in PINNED {
        let r = PaperScenario::new(*u, *cap).run(*policy, *seed);
        assert_pinned(
            &r,
            want,
            &format!("u={u} cap={cap} policy={policy:?} seed={seed}"),
        );
    }
}

#[test]
fn faulted_runs_stay_bit_identical() {
    let scenario = PaperScenario::new(0.4, 300.0).with_fault_intensity(1.0);
    for (policy, seed, want) in FAULTED {
        assert!(
            scenario.fault_plan(*seed).is_some(),
            "seed {seed} draws faults"
        );
        let r = scenario.run(*policy, *seed);
        assert_pinned(&r, want, &format!("faulted policy={policy:?} seed={seed}"));
    }
}

#[test]
fn traced_runs_stay_bit_identical() {
    for (policy, seed, want) in TRACED {
        let scenario = PaperScenario::new(0.4, 300.0).with_sampling(250);
        let profile = scenario.profile(*seed);
        let tasks = scenario.taskset(*seed, &profile);
        let config = SystemConfig::new(
            scenario.cpu(),
            StorageSpec::ideal(scenario.capacity),
            SimDuration::from_whole_units(scenario.horizon_units),
        )
        .with_sample_interval(SimDuration::from_whole_units(250))
        .with_trace();
        let predictor = scenario.predictor.build(&profile);
        let r = simulate(config, &tasks, profile, policy.build(), predictor);
        let ctx = format!("policy={policy:?} seed={seed}");
        assert_eq!(r.events, want.events, "events drifted ({ctx})");
        assert_eq!(
            r.trace.len(),
            want.trace_len,
            "trace length drifted ({ctx})"
        );
        assert_eq!(
            r.trace_events, want.trace_len as u64,
            "trace_events must match retained trace length ({ctx})"
        );
        assert_eq!(
            trace_hash(&r.trace),
            want.trace_hash,
            "trace sequence drifted ({ctx})"
        );
        assert_eq!(
            samples_hash(&r),
            want.samples_hash,
            "storage samples drifted ({ctx})"
        );
    }
}

/// The counting fast path and the retained trace must agree: a sweep
/// run (no trace) counts exactly as many emissions as a traced run of
/// the same trial retains records.
#[test]
fn counted_and_retained_traces_agree() {
    for policy in [PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs] {
        let scenario = PaperScenario::new(0.6, 400.0);
        let counted = scenario.run(policy, 2);
        assert!(
            counted.trace.is_empty(),
            "sweep runs must not retain traces"
        );

        let profile = scenario.profile(2);
        let tasks = scenario.taskset(2, &profile);
        let config = SystemConfig::new(
            scenario.cpu(),
            StorageSpec::ideal(scenario.capacity),
            SimDuration::from_whole_units(scenario.horizon_units),
        )
        .with_trace();
        let predictor = scenario.predictor.build(&profile);
        let traced = simulate(config, &tasks, profile, policy.build(), predictor);

        assert_eq!(counted.trace_events, traced.trace.len() as u64);
        assert_eq!(counted.events, traced.events);
        assert_eq!(jobs_hash(&counted), jobs_hash(&traced));
    }
}

/// Model pin on the solar realization itself: FNV-1a over the
/// little-endian bits of every sample of the U = 0.4 scenario's profile.
/// The batch sampler's shortcuts must leave every bit in place. The
/// second pin is FNV-1a over the profile's JSON, which lists every
/// breakpoint, so the serialized form stays what it was when grids
/// kept a breakpoint table.
#[test]
fn solar_profiles_stay_bit_identical() {
    use harvest_rt::exp::cache::fnv1a64;
    for (seed, want, want_json) in [
        (0, 0xd540_01e2_d605_cb6b_u64, 0x92ca_2e60_453c_cceb_u64),
        (1, 0xa55c_ad58_e04d_22d9, 0xa72d_a43c_0a93_6b2f),
        (1_000_000, 0xed53_68dc_1d2d_434e, 0x725e_ddbc_c6ef_3d8c),
    ] {
        let profile = PaperScenario::new(0.4, 500.0).profile(seed);
        let bytes: Vec<u8> = profile
            .values()
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(fnv1a64(&bytes), want, "profile drifted (seed={seed})");
        let json = serde_json::to_string(&profile).expect("a profile serializes");
        assert_eq!(
            fnv1a64(json.as_bytes()),
            want_json,
            "serialized profile drifted (seed={seed})"
        );
    }
}

/// Model pin: EA-DVFS is not monotone in storage capacity. At U = 0.2,
/// seed 2 runs miss-free at C = 12.7, yet at the larger C = 14.0 it
/// misses exactly one job, job 500 with deadline t = 2450. So the
/// capacity a Table 1 search returns is one at which every task set is
/// miss-free, not one above which they all are. A change that moves
/// either outcome changes the model, not only the arithmetic.
#[test]
fn ea_dvfs_capacity_anomaly_model_pin() {
    let run = |capacity| PaperScenario::new(0.2, capacity).run(PolicyKind::EaDvfs, 2);
    let small = run(12.7);
    assert!(
        small.is_miss_free(),
        "{} misses at C = 12.7",
        small.missed()
    );
    let missed: Vec<(u64, SimTime)> = run(14.0)
        .jobs
        .iter()
        .filter(|j| j.missed_deadline())
        .map(|j| (j.id.0, j.deadline))
        .collect();
    assert_eq!(missed, vec![(500, SimTime::from_whole_units(2450))]);
}
