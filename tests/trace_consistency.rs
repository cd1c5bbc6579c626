//! Structural invariants of the scheduling trace: the event log must
//! tell the same story as the result records.

use std::collections::{HashMap, HashSet};

use harvest_rt::core::trace::TraceEvent;
use harvest_rt::prelude::*;
use harvest_rt::task::JobId;

/// A streaming trace validator: checks ordering and lifecycle invariants
/// online, as each event arrives, holding only per-job state — the shape
/// a live monitor attached to the engine would take, as opposed to the
/// post-hoc whole-trace scan in `trace_agrees_with_records`.
#[derive(Debug, Default)]
struct InvariantSink {
    last_time: Option<SimTime>,
    released: HashSet<JobId>,
    completed: HashSet<JobId>,
    missed: HashSet<JobId>,
    records: u64,
}

impl InvariantSink {
    /// Checks one event against everything seen so far.
    fn record(&mut self, t: SimTime, ev: TraceEvent) {
        if let Some(last) = self.last_time {
            assert!(t >= last, "timestamps regress: {t:?} after {last:?}");
        }
        self.last_time = Some(t);
        self.records += 1;
        match ev {
            TraceEvent::Released { job, deadline, .. } => {
                assert!(deadline > t, "{job:?} released with past deadline");
                assert!(self.released.insert(job), "{job:?} released twice");
            }
            TraceEvent::Started { job, .. } => {
                assert!(self.released.contains(&job), "{job:?} started unreleased");
                assert!(
                    !self.completed.contains(&job),
                    "{job:?} started after completing"
                );
                assert!(
                    !self.missed.contains(&job),
                    "{job:?} started after missing (abort semantics)"
                );
            }
            TraceEvent::Completed { job } => {
                assert!(self.released.contains(&job), "{job:?} completed unreleased");
                assert!(!self.missed.contains(&job), "{job:?} completed after miss");
                assert!(self.completed.insert(job), "{job:?} completed twice");
            }
            TraceEvent::Missed { job } => {
                assert!(self.released.contains(&job), "{job:?} missed unreleased");
                assert!(
                    !self.completed.contains(&job),
                    "{job:?} missed after completion"
                );
                assert!(self.missed.insert(job), "{job:?} missed twice");
            }
            TraceEvent::Idled { .. }
            | TraceEvent::Stalled { .. }
            | TraceEvent::HarvestFault { .. }
            | TraceEvent::LevelLockout { .. } => {}
        }
    }
}

impl InvariantSink {
    /// End-of-run check: every released job is resolved as completed or
    /// missed, except those the result legitimately carries as pending
    /// (deadline beyond the horizon).
    fn finish(&self, r: &SimResult) {
        assert_eq!(self.released.len(), r.released(), "release count");
        let pending: HashSet<JobId> = r
            .jobs
            .iter()
            .filter(|j| matches!(j.outcome, JobOutcome::Pending))
            .map(|j| j.id)
            .collect();
        for &job in &self.released {
            let resolved = self.completed.contains(&job) || self.missed.contains(&job);
            assert!(
                resolved || pending.contains(&job),
                "{job:?} released but never resolved (and not pending at horizon)"
            );
        }
        for j in &r.jobs {
            match j.outcome {
                JobOutcome::Completed { .. } => assert!(self.completed.contains(&j.id)),
                JobOutcome::Missed { .. } => assert!(self.missed.contains(&j.id)),
                JobOutcome::Pending => assert!(
                    !self.completed.contains(&j.id) && !self.missed.contains(&j.id),
                    "pending {:?} has terminal trace events",
                    j.id
                ),
            }
        }
    }
}

fn traced_run(policy: PolicyKind, seed: u64) -> SimResult {
    let profile = sample_profile(
        &mut SolarModel::paper(),
        SimTime::ZERO,
        SimDuration::from_whole_units(3_000),
        SimDuration::from_whole_units(1),
        seed,
    )
    .expect("valid grid");
    let tasks = WorkloadSpec::paper(5, 0.5, profile.domain_mean(), 3.2).generate(seed + 1);
    let config = SystemConfig::new(
        presets::xscale(),
        StorageSpec::ideal(150.0),
        SimDuration::from_whole_units(3_000),
    )
    .with_trace();
    simulate(
        config,
        &tasks,
        profile.clone(),
        policy.build(),
        Box::new(OraclePredictor::new(profile)),
    )
}

#[test]
fn trace_agrees_with_records() {
    for policy in [PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs] {
        for seed in 0..4u64 {
            let r = traced_run(policy, seed);
            let mut released: HashSet<JobId> = HashSet::new();
            let mut completed: HashSet<JobId> = HashSet::new();
            let mut missed: HashSet<JobId> = HashSet::new();
            let mut last_time = SimTime::ZERO;
            for &(t, ev) in &r.trace {
                assert!(t >= last_time, "{policy:?}: trace must be time-ordered");
                last_time = t;
                match ev {
                    TraceEvent::Released { job, deadline, .. } => {
                        assert!(released.insert(job), "double release of {job:?}");
                        assert!(deadline > t);
                    }
                    TraceEvent::Started { job, level } => {
                        assert!(released.contains(&job), "started unreleased {job:?}");
                        assert!(!completed.contains(&job), "started finished {job:?}");
                        assert!(level < 5, "XScale has 5 levels");
                    }
                    TraceEvent::Completed { job } => {
                        assert!(released.contains(&job));
                        assert!(completed.insert(job), "double completion of {job:?}");
                    }
                    TraceEvent::Missed { job } => {
                        assert!(released.contains(&job));
                        assert!(missed.insert(job), "double miss of {job:?}");
                        assert!(!completed.contains(&job), "missed after completing");
                    }
                    TraceEvent::Idled { .. }
                    | TraceEvent::Stalled { .. }
                    | TraceEvent::HarvestFault { .. }
                    | TraceEvent::LevelLockout { .. } => {}
                }
            }
            // Trace counts match the records.
            assert_eq!(released.len(), r.released(), "{policy:?} released");
            assert_eq!(missed.len(), r.missed(), "{policy:?} missed");
            // Every record outcome has its trace counterpart.
            let by_outcome: HashMap<JobId, &JobOutcome> =
                r.jobs.iter().map(|j| (j.id, &j.outcome)).collect();
            for (&job, outcome) in &by_outcome {
                match outcome {
                    JobOutcome::Completed { .. } => {
                        assert!(
                            completed.contains(&job),
                            "{policy:?}: {job:?} completion untracked"
                        );
                    }
                    JobOutcome::Missed { .. } => {
                        assert!(missed.contains(&job), "{policy:?}: {job:?} miss untracked");
                    }
                    JobOutcome::Pending => {
                        assert!(
                            !completed.contains(&job) && !missed.contains(&job),
                            "{policy:?}: pending job {job:?} has terminal trace events"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn streaming_invariant_sink_validates_all_policies() {
    for policy in [PolicyKind::Edf, PolicyKind::Lsa, PolicyKind::EaDvfs] {
        for seed in 0..3u64 {
            let r = traced_run(policy, seed);
            assert!(!r.trace.is_empty(), "{policy:?}: traced run must emit");
            let mut sink = InvariantSink::default();
            for &(t, ev) in &r.trace {
                sink.record(t, ev);
            }
            assert_eq!(sink.records, r.trace.len() as u64);
            sink.finish(&r);
        }
    }
}

#[test]
fn untraced_runs_keep_no_events() {
    let r = PaperScenario::new(0.4, 500.0).run(PolicyKind::EaDvfs, 0);
    assert!(r.trace.is_empty(), "tracing must be opt-in");
}

#[test]
fn lsa_trace_contains_idle_waits() {
    // LSA's defining behaviour: deliberate idling before starts.
    let r = traced_run(PolicyKind::Lsa, 1);
    let idles = r
        .trace
        .iter()
        .filter(|(_, ev)| matches!(ev, TraceEvent::Idled { until: Some(_) }))
        .count();
    assert!(idles > 0, "LSA should idle-wait at least once");
}
