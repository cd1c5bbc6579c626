//! The closed-loop system simulator.
//!
//! Binds together the paper's Figure 2 system: an ambient source
//! realization (piecewise-constant profile), the energy storage, a
//! DVFS processor, an EDF ready queue, a scheduling policy, and an
//! energy predictor. All continuous evolution (storage level, job
//! progress) is piecewise-linear and synchronized lazily at events, so
//! the run is exact up to one tick per scheduled crossing.
//!
//! Event structure:
//!
//! * `Arrival` — a task releases a job (and schedules its next release);
//! * `DeadlineCheck` — fires at each job's absolute deadline to record
//!   misses (paper's firm-deadline semantics);
//! * `Reevaluate` — policy-requested wake-ups: idle-until (`s1`, LSA's
//!   `s`), the EA-DVFS `s2` review, predicted completion, and storage
//!   depletion; stale ones are filtered by a decision epoch;
//! * `Sample` — storage-level sampling for the Fig. 6/7 curves.
//!
//! One closed loop can carry several policy *arms* over the same inputs.
//! Every live arm's policy decides at every decision instant; while
//! they agree, the run is simulated once for all of them. At the first
//! disagreement the run forks, one copy per distinct decision, and each
//! copy continues with its own arms. Every arm's result is bit-identical
//! to a run of that arm alone (DESIGN §8.11).

use harvest_energy::fault::{apply_harvest_faults, harvest_factor_at};
use harvest_energy::predictor::{EnergyPredictor, FaultyPredictor};
use harvest_energy::storage::Storage;
use harvest_obs::profile::PhaseProfiler;
use harvest_obs::{Log2Histogram, MetricsRegistry};
use harvest_sim::engine::{Engine, Model, RunOutcome, Scheduler as EngineCtx, WatchdogKind};
use harvest_sim::event::{EventQueue, QueueStats, ReleaseTape};
use harvest_sim::piecewise::{CrossingTiers, PiecewiseConstant};
use harvest_sim::time::{SimDuration, SimTime};
use harvest_sim::trace::CountingSink;
use harvest_task::job::{Job, JobId};
use harvest_task::queue::EdfQueue;
use harvest_task::task::Task;
use harvest_task::taskset::TaskSet;
use serde::{Deserialize, Serialize};

use std::cell::RefCell;
use std::sync::Arc;

use crate::config::{MissPolicy, SystemConfig};
use crate::fault::FaultPlan;
use crate::result::{EnergyAccounting, JobOutcome, JobRecord, SimError, SimResult};
use crate::scheduler::{Decision, SchedContext, Scheduler};
use crate::trace::TraceEvent;

/// Stored-energy amounts below this are treated as "empty" when deciding
/// whether execution can proceed.
const ENERGY_EPS: f64 = 1e-9;

/// Phase name for the continuous-state advance (storage integration,
/// accounting, job progress) in a profiled run.
pub(crate) const PHASE_ENERGY_SYNC: &str = "energy.sync";

/// Phase name for the policy's `decide` call in a profiled run.
pub(crate) const PHASE_POLICY_DECIDE: &str = "policy.decide";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SysEvent {
    Arrival {
        task: usize,
    },
    DeadlineCheck {
        job: JobId,
    },
    Reevaluate {
        epoch: u64,
    },
    Sample,
    /// An injected fault window opens or closes; the model re-derives
    /// the attenuation/lockout state and re-decides.
    FaultEdge,
}

/// Where domain trace events go. Sweeps only need statistics, so the
/// default arm counts emissions through a [`CountingSink`] without ever
/// constructing a record; figure runs keep the full log.
#[derive(Debug, Clone)]
enum TraceLog {
    /// Count emissions only (the sweep fast path).
    Count(CountingSink),
    /// Retain every record (figure traces).
    Keep(Vec<(SimTime, TraceEvent)>),
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum RunState {
    Idle,
    Stalled,
    Running { job: JobId, level: usize },
}

/// Decision-shape counters of one run. Always maintained — each is a
/// plain integer add (or one histogram insert per *decision*, far off
/// the per-event hot path) — and frozen into the metrics snapshot only
/// when `collect_metrics` is set. Counting never influences decisions.
#[derive(Clone)]
struct ObsCounters {
    /// Policy consultations (queue non-empty at a scheduling event).
    decide_calls: u64,
    /// Decisions that idled the processor until a wake-up.
    idle_decisions: u64,
    /// Decisions that ran the head job.
    run_decisions: u64,
    /// Times the system entered the stalled state (empty store, §4.2).
    stall_entries: u64,
    /// Exact storage-depletion crossings scheduled inside run windows.
    depletion_wakeups: u64,
    /// Advance windows that pinned the store at empty (shortfall).
    clamp_empty_windows: u64,
    /// Advance windows that pinned the store at full (overflow).
    clamp_full_windows: u64,
    /// `ÊS(t, D)` lookups answered by the per-decision memo.
    es_memo_hits: u64,
    /// `ÊS(t, D)` lookups that queried the predictor.
    es_memo_misses: u64,
    /// Execution (re)starts per DVFS level.
    level_starts: Vec<u64>,
    /// Injected harvest attenuation changes that fired.
    fault_harvest_edges: u64,
    /// Injected DVFS lockout toggles (per level transition).
    fault_lockout_changes: u64,
    /// Lengths of policy-chosen idle waits, in time units.
    idle_wait: Log2Histogram,
}

impl ObsCounters {
    fn new(level_count: usize) -> Self {
        ObsCounters {
            decide_calls: 0,
            idle_decisions: 0,
            run_decisions: 0,
            stall_entries: 0,
            depletion_wakeups: 0,
            clamp_empty_windows: 0,
            clamp_full_windows: 0,
            es_memo_hits: 0,
            es_memo_misses: 0,
            level_starts: vec![0; level_count],
            fault_harvest_edges: 0,
            fault_lockout_changes: 0,
            idle_wait: Log2Histogram::new(),
        }
    }
}

/// Live fault-injection state carried by the model: the plan plus the
/// attenuation factor in effect after the last handled edge (for
/// change detection and trace emission).
#[derive(Debug, Clone)]
struct FaultRuntime {
    plan: FaultPlan,
    harvest_factor: f64,
}

/// The closed loop's side stream under a [`ReleaseTape`]: task releases,
/// and deadline checks when deadlines are constrained, served without
/// the event queue, one `Arrival` push/pop per job saved.
///
/// Each task's next release is computed from its phase and period, and
/// carries a *virtual* sequence number allocated from the event queue's
/// shared counter ([`EventQueue::alloc_seq`]) at exactly the program
/// point where the heap path would have scheduled the `Arrival`: at
/// seeding for the first release, inside [`SystemModel::release_job`]
/// for every successor. The heap path holds at most one pending arrival
/// per task, so the minimum `(ticks, seq)` over the tasks' pending
/// releases is the arrival the heap pops next, and the merged
/// `(time, seq)` dispatch order is identical, tie for tie.
#[derive(Debug, Clone)]
struct SideStream {
    /// Each task's pending release `(ticks, seq)`: `None` for a task
    /// whose phase lies outside the horizon and for a one-shot task that
    /// has released. A successor past the horizon stays pending, as it
    /// does on the heap path; the engine never dispatches it.
    releases: Vec<Option<(i64, u32)>>,
    /// Cached minimum `(ticks, seq, task)` over `releases`, so the
    /// per-event side peek is a compare, not a scan.
    release_min: Option<(i64, u32, u32)>,
    /// Whether deadline checks ride the side stream too. Requires
    /// constrained deadlines (`D_i <= T_i` for every periodic task):
    /// then a job's check fires no later than the task's next release,
    /// so one slot per task can never hold two outstanding checks.
    elide_deadlines: bool,
    /// Per-task pending deadline check `(ticks, seq, job)`, claimed at
    /// release exactly where the heap path would have scheduled it.
    deadline_slots: Vec<Option<(i64, u32, u64)>>,
    /// Cached minimum `(ticks, seq, task)` over the occupied slots, so
    /// the per-event side peek is a compare, not a slot scan.
    deadline_min: Option<(i64, u32, u32)>,
}

impl SideStream {
    /// Minimum `(ticks, seq, task)` over occupied per-task slots.
    #[inline]
    fn slot_min<T: Copy>(
        slots: &[Option<T>],
        key: impl Fn(T) -> (i64, u32),
    ) -> Option<(i64, u32, u32)> {
        let mut min: Option<(i64, u32, u32)> = None;
        for (i, slot) in slots.iter().enumerate() {
            if let Some(v) = *slot {
                let (t, q) = key(v);
                if min.is_none_or(|(mt, mq, _)| (t, q) < (mt, mq)) {
                    min = Some((t, q, i as u32));
                }
            }
        }
        min
    }

    /// Sets task `task`'s pending release (`None`: it releases no more)
    /// and restores the cached minimum with one pass over the tasks.
    #[inline]
    fn set_release(&mut self, task: usize, next: Option<(i64, u32)>) {
        self.releases[task] = next;
        self.release_min = Self::slot_min(&self.releases, |k| k);
    }

    #[inline]
    fn push_deadline(&mut self, task: usize, ticks: i64, seq: u32, job: u64) {
        debug_assert!(
            self.deadline_slots[task].is_none(),
            "constrained deadlines leave at most one outstanding check per task"
        );
        self.deadline_slots[task] = Some((ticks, seq, job));
        match self.deadline_min {
            Some((t, s, _)) if (t, s) < (ticks, seq) => {}
            _ => self.deadline_min = Some((ticks, seq, task as u32)),
        }
    }

    /// Clears the slot behind `deadline_min` and returns its job;
    /// rescans the slots (one short pass per fired check) to restore
    /// the cached minimum.
    #[inline]
    fn pop_min_deadline(&mut self) -> u64 {
        let (_, _, task) = self.deadline_min.expect("popping an empty deadline stream");
        let (_, _, job) = self.deadline_slots[task as usize]
            .take()
            .expect("cached minimum points at an occupied slot");
        self.deadline_min = Self::slot_min(&self.deadline_slots, |(t, q, _)| (t, q));
        job
    }
}

/// Jobs `tasks` releases in `[0, horizon_ticks)` — the record count of
/// a run that reaches its horizon. A task releases at `phase + k·period`
/// from a phase inside the window, a one-shot task once.
fn release_count(tasks: &TaskSet, horizon_ticks: i64) -> usize {
    tasks
        .iter()
        .map(|t| {
            let phase = t.phase().as_ticks();
            match t.period() {
                _ if phase < 0 || phase >= horizon_ticks => 0,
                Some(p) => ((horizon_ticks - 1 - phase) / p.as_ticks() + 1) as usize,
                None => 1,
            }
        })
        .sum()
}

/// The closed loop's whole state. A clone is an exact copy of the run
/// so far, which is how a run forks (see [`run_closed_loop`]).
#[derive(Clone)]
struct SystemModel<'a> {
    config: SystemConfig,
    tasks: Arc<TaskSet>,
    profile: Arc<PiecewiseConstant>,
    /// The policy of every arm of the closed loop, shared by all its
    /// forks; a fork consults only its own `arms`.
    policies: &'a [RefCell<&'a mut dyn Scheduler>],
    /// Indices into `policies` of the arms this run carries.
    arms: Vec<usize>,
    /// Each arm's decision at the instant the arms disagreed, aligned
    /// with `arms`; read by the closed loop when the run stops to fork.
    decisions: Vec<Decision>,
    predictor: Box<dyn EnergyPredictor>,
    storage: Storage,
    queue: EdfQueue,
    state: RunState,
    last_sync: SimTime,
    epoch: u64,
    next_job_id: u64,
    records: Vec<JobRecord>,
    energy: EnergyAccounting,
    /// Last level actually executed at, for DVFS switch accounting.
    last_level: Option<usize>,
    /// Number of frequency switches performed.
    switches: u64,
    level_time: Vec<f64>,
    idle_time: f64,
    stall_time: f64,
    samples: Vec<(SimTime, f64)>,
    trace: TraceLog,
    /// How many of the run's storage-crossing queries each tier of the
    /// profile's crossing solver settled.
    tiers: CrossingTiers,
    obs: ObsCounters,
    /// Injected-fault state; `None` on the fault-free path, which then
    /// pays exactly one branch per event.
    fault: Option<FaultRuntime>,
    /// Scoped phase timers for `energy.sync` / `policy.decide`; `None`
    /// unless the config enables profiling, so a plain run pays one
    /// branch per phase boundary and zero clock reads.
    profiler: Option<Box<PhaseProfiler>>,
    /// Releases (and constrained deadline checks) served outside the
    /// event queue; `None` runs them through it (the reference path).
    side: Option<SideStream>,
}

impl SystemModel<'_> {
    /// Advances all continuous state from `last_sync` to `now`:
    /// storage level, energy accounting, predictor observations, job
    /// progress, and residency counters. Detects job completion.
    fn sync_to(&mut self, now: SimTime) {
        if now <= self.last_sync {
            return;
        }
        let t0 = self.profiler.as_ref().map(|_| PhaseProfiler::start());
        let from = self.last_sync;
        let span = (now - from).as_units();
        let load = match self.state {
            RunState::Running { level, .. } => self.config.cpu.power(level),
            RunState::Idle | RunState::Stalled => 0.0,
        };
        // One fused profile walk: the storage advance and the harvest
        // accounting (plus predictor observations) consume the same
        // clipped segments, so the window is clipped once per event.
        // Per-accumulator op order is unchanged; bit-identity is pinned
        // by the tape-parity and figure-digest suites.
        let report = {
            let energy = &mut self.energy;
            let predictor = &mut self.predictor;
            self.storage
                .advance_with_each(&self.profile, from, now, load, |seg| {
                    energy.harvested += seg.integral();
                    predictor.observe(seg);
                })
        };
        if report.clamped_empty {
            self.obs.clamp_empty_windows += 1;
        }
        if report.clamped_full {
            self.obs.clamp_full_windows += 1;
        }
        self.energy.consumed += report.delivered;
        self.energy.overflow += report.overflow;
        self.energy.deficit += report.deficit;
        match self.state {
            RunState::Running { job, level } => {
                self.level_time[level] += span;
                let speed = self.config.cpu.speed(level);
                let head = self
                    .queue
                    .peek_mut()
                    .expect("running state implies a queued head job");
                debug_assert_eq!(head.id(), job, "running job must be the EDF head");
                head.execute(speed, now - from);
                self.records[job.0 as usize].energy += report.delivered;
                if head.is_finished() {
                    let done = self.queue.pop().expect("head exists");
                    self.finish_job(now, &done);
                    self.state = RunState::Idle;
                }
            }
            RunState::Idle => self.idle_time += span,
            RunState::Stalled => {
                self.idle_time += span;
                self.stall_time += span;
            }
        }
        if let Some(t0) = t0 {
            if let Some(p) = self.profiler.as_mut() {
                p.stop(PHASE_ENERGY_SYNC, t0);
            }
        }
        self.last_sync = now;
    }

    fn finish_job(&mut self, now: SimTime, job: &Job) {
        let rec = &mut self.records[job.id().0 as usize];
        match rec.outcome {
            JobOutcome::Pending => {
                rec.outcome = JobOutcome::Completed { at: now };
                self.trace_event(now, || TraceEvent::Completed { job: job.id() });
            }
            // RunToCompletion: the miss was recorded at the deadline;
            // note the late completion.
            JobOutcome::Missed { completed: None } => {
                rec.outcome = JobOutcome::Missed {
                    completed: Some(now),
                };
                self.trace_event(now, || TraceEvent::Completed { job: job.id() });
            }
            ref other => unreachable!("finishing a job in state {other:?}"),
        }
    }

    /// Accounts one domain trace event. `event` builds the record — a
    /// small `Copy` value — which counting mode tallies per variant and
    /// immediately discards; only traced runs retain it.
    fn trace_event(&mut self, now: SimTime, event: impl FnOnce() -> TraceEvent) {
        match &mut self.trace {
            TraceLog::Count(sink) => sink.bump_kind(event().kind_index()),
            TraceLog::Keep(log) => log.push((now, event())),
        }
    }

    fn release_job(&mut self, now: SimTime, task_index: usize, ctx: &mut EngineCtx<'_, SysEvent>) {
        // Extract the `Copy` parameters up front instead of cloning the
        // task: releases are the hottest event class even off the queue.
        let (relative_deadline, wcet, actual_work, period) = {
            let task: &Task = &self.tasks.tasks()[task_index];
            (
                task.relative_deadline(),
                task.wcet(),
                task.actual_work(),
                task.period(),
            )
        };
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        let deadline = now + relative_deadline;
        let job = Job::new(id, deadline, wcet).with_actual_work(actual_work);
        self.records.push(JobRecord {
            id,
            task_index,
            arrival: now,
            deadline,
            wcet,
            outcome: JobOutcome::Pending,
            energy: 0.0,
        });
        self.trace_event(now, || TraceEvent::Released {
            job: id,
            task: task_index,
            deadline,
        });
        self.queue.push(job);
        match &mut self.side {
            // Side-stream bookkeeping replaces the heap pushes: the
            // deadline check parks in the task's slot and the successor
            // becomes the task's pending release. Both claim the sequence
            // number the heap path would have consumed — in the same
            // order — so later same-tick events keep their relative
            // order. The heap path schedules both unconditionally (even
            // past the horizon), so the claims are too.
            Some(side) => {
                if side.elide_deadlines {
                    side.push_deadline(task_index, deadline.as_ticks(), ctx.alloc_seq(), id.0);
                } else {
                    ctx.schedule(deadline, SysEvent::DeadlineCheck { job: id });
                }
                let next = period.map(|p| ((now + p).as_ticks(), ctx.alloc_seq()));
                side.set_release(task_index, next);
            }
            None => {
                ctx.schedule(deadline, SysEvent::DeadlineCheck { job: id });
                if let Some(period) = period {
                    ctx.schedule(now + period, SysEvent::Arrival { task: task_index });
                }
            }
        }
    }

    fn handle_deadline(&mut self, now: SimTime, job: JobId) {
        // sync_to already ran, so a job finishing exactly at its deadline
        // has been removed from the queue and counts as met.
        if !self.queue.contains(job) {
            return;
        }
        let rec = &mut self.records[job.0 as usize];
        if !matches!(rec.outcome, JobOutcome::Pending) {
            return;
        }
        rec.outcome = JobOutcome::Missed { completed: None };
        self.trace_event(now, || TraceEvent::Missed { job });
        if self.config.miss_policy == MissPolicy::AbortAtDeadline {
            let was_running = matches!(self.state, RunState::Running { job: j, .. } if j == job);
            self.queue.remove(job).expect("checked contains");
            if was_running {
                self.state = RunState::Idle;
            }
        }
    }

    /// Asks every arm's policy how to run the current queue head. When
    /// they agree, the decision is applied once for all of them. When
    /// they disagree, their decisions are kept in `decisions` and the
    /// engine is asked to stop, so the closed loop can fork the run.
    fn decide(&mut self, now: SimTime, ctx: &mut EngineCtx<'_, SysEvent>) {
        self.epoch += 1;
        let Some(head) = self.queue.peek() else {
            self.state = RunState::Idle;
            return;
        };
        self.obs.decide_calls += 1;
        // Each arm decides on a context of its own, exactly as it would
        // in a run of its own; the arms after the first reuse its
        // predictor lookup.
        let mut consult = |arm: usize, sched_ctx: &SchedContext<'_>| {
            let t0 = self.profiler.as_ref().map(|_| PhaseProfiler::start());
            let decision = self.policies[arm].borrow_mut().decide(sched_ctx);
            if let Some(t0) = t0 {
                if let Some(p) = self.profiler.as_mut() {
                    p.stop(PHASE_POLICY_DECIDE, t0);
                }
            }
            let (memo_hits, memo_misses) = sched_ctx.memo_stats();
            self.obs.es_memo_hits += memo_hits;
            self.obs.es_memo_misses += memo_misses;
            decision
        };
        let first = SchedContext::new(
            now,
            head,
            &self.config.cpu,
            &self.storage,
            self.predictor.as_ref(),
        );
        let decision = consult(self.arms[0], &first);
        if self.arms.len() > 1 {
            self.decisions.clear();
            self.decisions.push(decision);
            for &arm in &self.arms[1..] {
                self.decisions.push(consult(arm, &first.sibling()));
            }
            if self.decisions.iter().any(|&d| d != decision) {
                ctx.request_stop();
                return;
            }
        }
        self.apply_decision(now, decision, ctx);
    }

    /// The live arms grouped by their decision at the stop, in order of
    /// first appearance: one fork per group.
    fn split(&self) -> Vec<(Decision, Vec<usize>)> {
        let mut groups: Vec<(Decision, Vec<usize>)> = Vec::new();
        for (&arm, &decision) in self.arms.iter().zip(&self.decisions) {
            match groups.iter_mut().find(|(d, _)| *d == decision) {
                Some((_, arms)) => arms.push(arm),
                None => groups.push((decision, vec![arm])),
            }
        }
        groups
    }

    /// Applies `decision` to the queue head at `now` and schedules the
    /// wake-ups it implies.
    fn apply_decision(
        &mut self,
        now: SimTime,
        decision: Decision,
        ctx: &mut EngineCtx<'_, SysEvent>,
    ) {
        let head_id = self
            .queue
            .peek()
            .expect("a decision is taken for the queue head")
            .id();
        match decision {
            Decision::IdleUntil(s) => {
                assert!(s > now, "policy idled until the past ({s} <= {now})");
                self.state = RunState::Idle;
                self.obs.idle_decisions += 1;
                self.obs.idle_wait.observe((s - now).as_units());
                self.trace_event(now, || TraceEvent::Idled { until: Some(s) });
                ctx.schedule(s, SysEvent::Reevaluate { epoch: self.epoch });
            }
            Decision::Run { level, review } => {
                assert!(
                    level < self.config.cpu.level_count(),
                    "invalid level {level}"
                );
                let power = self.config.cpu.power(level);
                let harvest_now = self.profile.value_at(now);
                let net = self.storage.spec().net_rate(harvest_now, power);
                if self.storage.level() < ENERGY_EPS && net < 0.0 {
                    // Depleted and the source cannot carry the load:
                    // stall until a restart quantum has been scavenged
                    // (paper §4.2).
                    self.stall(now, power, ctx);
                    return;
                }
                let speed = self.config.cpu.speed(level);
                let head = self.queue.peek().expect("head unchanged");
                let completion = now + head.time_to_finish(speed);
                // DVFS switch cost: energy drawn instantaneously from the
                // store when the frequency actually changes (the paper
                // assumes this negligible; the model supports it for
                // sensitivity studies). A switch takes no time.
                if self.last_level != Some(level) {
                    if self.last_level.is_some() {
                        self.switches += 1;
                        let cost = self.config.cpu.switch_energy();
                        if cost > 0.0 {
                            let drained = (self.storage.level() - cost).max(0.0);
                            self.energy.consumed += self.storage.level() - drained;
                            self.storage.set_level(drained);
                        }
                    }
                    self.last_level = Some(level);
                }
                self.state = RunState::Running {
                    job: head_id,
                    level,
                };
                self.obs.run_decisions += 1;
                self.obs.level_starts[level] += 1;
                self.trace_event(now, || TraceEvent::Started {
                    job: head_id,
                    level,
                });
                ctx.schedule(completion, SysEvent::Reevaluate { epoch: self.epoch });
                let mut window_end = completion;
                if let Some(r) = review {
                    if r > now && r < completion {
                        ctx.schedule(r, SysEvent::Reevaluate { epoch: self.epoch });
                        window_end = r;
                    }
                }
                // Exact storage-depletion crossing within the run window.
                if self.storage.level() > ENERGY_EPS {
                    if let Some(t) = self.storage.spec().first_crossing(
                        &mut self.tiers,
                        self.storage.level(),
                        0.0,
                        &self.profile,
                        now,
                        window_end,
                        power,
                    ) {
                        if t > now {
                            self.obs.depletion_wakeups += 1;
                            ctx.schedule(t, SysEvent::Reevaluate { epoch: self.epoch });
                        }
                    }
                } else {
                    // Running hand-to-mouth on the direct harvest path:
                    // re-check at the next profile change, where the
                    // source may no longer carry the load.
                    if let Some(t) = self.profile.next_breakpoint_after(now) {
                        if t < window_end {
                            ctx.schedule(t, SysEvent::Reevaluate { epoch: self.epoch });
                        }
                    }
                }
            }
        }
    }

    /// Re-derives the injected state (harvest attenuation, lockout
    /// mask) for instant `now`, traces every change, and reports
    /// whether anything changed (the caller then re-decides).
    fn apply_fault_state(&mut self, now: SimTime) -> bool {
        let (new_factor, active, new_mask, old_factor) = match &self.fault {
            Some(fr) => (
                harvest_factor_at(&fr.plan.harvest, now),
                fr.plan.harvest.iter().any(|w| w.contains(now)),
                fr.plan.lockout_mask_at(now),
                fr.harvest_factor,
            ),
            None => return false,
        };
        let mut changed = false;
        if new_factor != old_factor {
            self.obs.fault_harvest_edges += 1;
            self.trace_event(now, || TraceEvent::HarvestFault {
                factor: new_factor,
                active,
            });
            if let Some(fr) = &mut self.fault {
                fr.harvest_factor = new_factor;
            }
            changed = true;
        }
        let old_mask = self.config.cpu.locked_mask();
        if new_mask != old_mask {
            let diff = new_mask ^ old_mask;
            for level in 0..self.config.cpu.level_count().min(64) {
                if diff & (1 << level) != 0 {
                    self.obs.fault_lockout_changes += 1;
                    let locked = new_mask & (1 << level) != 0;
                    self.trace_event(now, || TraceEvent::LevelLockout { level, locked });
                }
            }
            self.config.cpu.set_locked_mask(new_mask);
            changed = true;
        }
        changed
    }

    fn stall(&mut self, now: SimTime, power: f64, ctx: &mut EngineCtx<'_, SysEvent>) {
        self.obs.stall_entries += 1;
        let spec = *self.storage.spec();
        let target = (self.config.restart_quantum * power).min(spec.capacity());
        let horizon_end = SimTime::ZERO + self.config.horizon;
        let wake = spec.first_crossing(
            &mut self.tiers,
            self.storage.level(),
            target,
            &self.profile,
            now,
            horizon_end,
            0.0,
        );
        self.state = RunState::Stalled;
        match wake {
            Some(t) if t > now => {
                self.trace_event(now, || TraceEvent::Stalled { until: Some(t) });
                ctx.schedule(t, SysEvent::Reevaluate { epoch: self.epoch });
            }
            // Restart level already met (boundary rounding) — retry on
            // the next tick rather than spinning at the same instant.
            Some(_) => {
                let t = now + SimDuration::TICK;
                self.trace_event(now, || TraceEvent::Stalled { until: Some(t) });
                ctx.schedule(t, SysEvent::Reevaluate { epoch: self.epoch });
            }
            // The source never recovers within the horizon: sleep until
            // an arrival changes the picture.
            None => self.trace_event(now, || TraceEvent::Stalled { until: None }),
        }
    }

    /// Post-run bookkeeping: settle state at the horizon and classify
    /// jobs whose deadline falls at or before it.
    fn finalize(&mut self, horizon: SimTime) {
        self.sync_to(horizon);
        self.energy.final_level = self.storage.level();
        for rec in &mut self.records {
            if matches!(rec.outcome, JobOutcome::Pending) && rec.deadline <= horizon {
                rec.outcome = JobOutcome::Missed { completed: None };
            }
        }
    }

    /// Per-variant totals of emitted trace events, indexed by
    /// [`TraceEvent::kind_index`].
    fn trace_kind_counts(&self) -> Vec<u64> {
        match &self.trace {
            TraceLog::Count(sink) => sink.kind_counts()[..TraceEvent::KIND_COUNT].to_vec(),
            TraceLog::Keep(log) => {
                let mut counts = vec![0u64; TraceEvent::KIND_COUNT];
                for (_, ev) in log {
                    counts[ev.kind_index()] += 1;
                }
                counts
            }
        }
    }

    /// Moves the run's outcome out into a [`SimResult`] over `horizon`,
    /// with the metrics snapshot and phase profile when the config asks
    /// for them. The scheduler name is left for the caller.
    fn take_result(
        &mut self,
        horizon: SimDuration,
        events: u64,
        queue: QueueStats,
        engine_profiler: Option<&PhaseProfiler>,
        reg: &mut MetricsRegistry,
    ) -> SimResult {
        let trace_kind_counts = self.trace_kind_counts();
        let metrics = self.config.collect_metrics.then(|| {
            reg.reset();
            self.publish_metrics(reg, events, queue, &trace_kind_counts);
            reg.snapshot()
        });
        let profile = self.config.profile.then(|| {
            let mut p = self.profiler.take().map(|b| *b).unwrap_or_default();
            if let Some(ep) = engine_profiler {
                p.merge(ep);
            }
            p.summary()
        });
        let (trace, trace_events) =
            match std::mem::replace(&mut self.trace, TraceLog::Count(CountingSink::new())) {
                TraceLog::Count(sink) => (Vec::new(), sink.count()),
                TraceLog::Keep(log) => {
                    let n = log.len() as u64;
                    (log, n)
                }
            };
        SimResult {
            scheduler: String::new(),
            horizon,
            jobs: std::mem::take(&mut self.records),
            energy: self.energy,
            switches: self.switches,
            events,
            trace_events,
            trace_kind_counts,
            level_time: std::mem::take(&mut self.level_time),
            idle_time: self.idle_time,
            stall_time: self.stall_time,
            samples: std::mem::take(&mut self.samples),
            trace,
            metrics,
            profile,
        }
    }

    /// Publishes every inline counter into the registry, once, at end of
    /// run. This is the only place instrumentation touches metric names,
    /// so the hot loops stay monomorphic integer adds.
    fn publish_metrics(
        &self,
        reg: &mut MetricsRegistry,
        events: u64,
        queue: QueueStats,
        kind_counts: &[u64],
    ) {
        reg.counter("engine.events", events);
        reg.counter("queue.scheduled", queue.scheduled);
        reg.counter("queue.popped", queue.popped);
        reg.counter("queue.max_pending", queue.max_pending);

        reg.counter("cursor.cross.reject", self.tiers.reject);
        reg.counter("cursor.cross.bisect", self.tiers.bisect);
        reg.counter("cursor.cross.scan", self.tiers.scan);
        reg.counter("cursor.cross.cyclic", self.tiers.cyclic);

        reg.counter("sched.decisions", self.obs.decide_calls);
        reg.counter("sched.idle_decisions", self.obs.idle_decisions);
        reg.counter("sched.run_decisions", self.obs.run_decisions);
        reg.counter("sched.stalls", self.obs.stall_entries);
        reg.counter("sched.depletion_wakeups", self.obs.depletion_wakeups);
        reg.counter("sched.es_memo.hits", self.obs.es_memo_hits);
        reg.counter("sched.es_memo.misses", self.obs.es_memo_misses);
        for (level, &starts) in self.obs.level_starts.iter().enumerate() {
            reg.counter(&format!("sched.level_starts.{level}"), starts);
        }
        reg.record_histogram("sched.idle_wait", &self.obs.idle_wait);

        reg.counter("storage.clamp_empty_windows", self.obs.clamp_empty_windows);
        reg.counter("storage.clamp_full_windows", self.obs.clamp_full_windows);
        reg.counter("fault.harvest_edges", self.obs.fault_harvest_edges);
        reg.counter("fault.lockout_changes", self.obs.fault_lockout_changes);
        reg.gauge("energy.final_level", self.energy.final_level);
        reg.gauge("energy.deficit", self.energy.deficit);

        for (name, &count) in TraceEvent::KIND_NAMES.iter().zip(kind_counts.iter()) {
            reg.counter(&format!("trace.{name}"), count);
        }
        let policy = self.policies[self.arms[0]].borrow();
        for (name, count) in policy.metrics() {
            reg.counter(&format!("policy.{}.{name}", policy.name()), count);
        }
    }
}

impl Model for SystemModel<'_> {
    type Event = SysEvent;

    #[inline]
    fn side_peek(&self) -> Option<(SimTime, u32)> {
        let side = self.side.as_ref()?;
        let release = side.release_min.map(|(t, s, _)| (t, s));
        let deadline = side.deadline_min.map(|(t, s, _)| (t, s));
        let (ticks, seq) = match (release, deadline) {
            (None, None) => return None,
            (Some(k), None) | (None, Some(k)) => k,
            (Some(r), Some(d)) => r.min(d),
        };
        Some((SimTime::from_ticks(ticks), seq))
    }

    /// Pops the earlier of the next release and the next deadline
    /// check. A release stays pending until [`SystemModel::release_job`]
    /// replaces it with the task's successor, which `handle` calls next.
    #[inline]
    fn side_pop(&mut self) -> SysEvent {
        let side = self.side.as_mut().expect("side_pop without a side stream");
        let release = match (side.release_min, side.deadline_min) {
            (Some((rt, rs, task)), Some((dt, ds, _))) => ((rt, rs) < (dt, ds)).then_some(task),
            (release, _) => release.map(|(_, _, task)| task),
        };
        match release {
            Some(task) => SysEvent::Arrival {
                task: task as usize,
            },
            None => SysEvent::DeadlineCheck {
                job: JobId(side.pop_min_deadline()),
            },
        }
    }

    fn handle(&mut self, now: SimTime, event: SysEvent, ctx: &mut EngineCtx<'_, SysEvent>) {
        let was_running = matches!(self.state, RunState::Running { .. });
        self.sync_to(now);
        // A job finishing during the sync leaves the processor idle; a
        // fresh decision is due even if the event itself is inert.
        let completed_in_sync = was_running && !matches!(self.state, RunState::Running { .. });
        let mut need_decide = completed_in_sync;
        match event {
            SysEvent::Arrival { task } => {
                self.release_job(now, task, ctx);
                need_decide = true;
            }
            SysEvent::DeadlineCheck { job } => {
                let contained = self.queue.contains(job);
                self.handle_deadline(now, job);
                if contained {
                    need_decide = true;
                }
            }
            SysEvent::Reevaluate { epoch } => {
                if epoch == self.epoch {
                    need_decide = true;
                }
            }
            SysEvent::Sample => {
                self.samples.push((now, self.storage.level()));
                if let Some(dt) = self.config.sample_interval {
                    ctx.schedule(now + dt, SysEvent::Sample);
                }
            }
            SysEvent::FaultEdge => {
                if self.apply_fault_state(now) {
                    need_decide = true;
                }
            }
        }
        if need_decide {
            self.decide(now, ctx);
        }
    }
}

/// Runs one closed-loop simulation on fresh state.
///
/// * `config` — processor, storage, horizon, policies (see
///   [`SystemConfig`]).
/// * `tasks` — the task set; all phases should lie within the horizon.
/// * `profile` — one realized harvest-power profile (e.g. from
///   [`harvest_energy::source::sample_profile`]).
/// * `policy` — the scheduling policy under test.
/// * `predictor` — the `ÊS` estimator the policy consults.
///
/// The infallible shortcut for [`try_simulate_arms_in`] with one arm, a
/// new [`RunContext`] and heap-driven releases.
///
/// # Panics
///
/// Panics if the configuration's watchdog fires; a run that sets one
/// goes through [`try_simulate_arms_in`], which returns the typed
/// [`SimError`].
///
/// # Examples
///
/// ```
/// use harvest_core::config::SystemConfig;
/// use harvest_core::policies::EaDvfsScheduler;
/// use harvest_core::system::simulate;
/// use harvest_cpu::presets;
/// use harvest_energy::predictor::OraclePredictor;
/// use harvest_energy::storage::StorageSpec;
/// use harvest_sim::piecewise::PiecewiseConstant;
/// use harvest_sim::time::{SimDuration, SimTime};
/// use harvest_task::task::Task;
/// use harvest_task::taskset::TaskSet;
///
/// // The paper's §2 example: EA-DVFS saves τ2 where LSA misses it.
/// let tasks = TaskSet::new(vec![
///     Task::once(SimTime::ZERO, SimDuration::from_whole_units(16), 4.0),
///     Task::once(SimTime::from_whole_units(5), SimDuration::from_whole_units(16), 1.5),
/// ]);
/// let profile = PiecewiseConstant::constant(0.5);
/// let config = SystemConfig::new(
///     presets::two_speed_example(),
///     StorageSpec::ideal(1_000.0),
///     SimDuration::from_whole_units(30),
/// )
/// .with_initial_level(24.0);
/// let result = simulate(
///     config,
///     &tasks,
///     profile.clone(),
///     Box::new(EaDvfsScheduler::new()),
///     Box::new(OraclePredictor::new(profile)),
/// );
/// assert_eq!(result.missed(), 0);
/// ```
pub fn simulate(
    config: SystemConfig,
    tasks: &TaskSet,
    profile: PiecewiseConstant,
    mut policy: Box<dyn Scheduler>,
    predictor: Box<dyn EnergyPredictor>,
) -> SimResult {
    try_simulate_arms_in(
        &mut RunContext::new(),
        config,
        Arc::new(tasks.clone()),
        Arc::new(profile),
        &mut [policy.as_mut()],
        predictor,
        None,
    )
    .pop()
    .expect("one arm, one result")
    .unwrap_or_else(|e| panic!("simulation aborted: {e} (use try_simulate_arms_in)"))
}

/// Retention statistics of one [`RunContext`], for sweep drivers that
/// report pool reuse (e.g. per-worker rows in `exp inspect`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PoolStats {
    /// Trials executed through this context, one per policy arm.
    pub runs: u64,
    /// High-water event-queue capacity retained across runs, in heap
    /// entries (the [`QueueStats::slab_capacity`] of the pooled queue).
    pub event_slab_high_water: u64,
    /// High-water EDF-heap capacity retained across runs.
    pub ready_high_water: u64,
    /// Always 0. Kept, with [`multi_lane_ticks`](Self::multi_lane_ticks),
    /// because the campaign benchmark reads both fields.
    #[serde(default)]
    pub batch_ticks: u64,
    /// Always 0; see [`batch_ticks`](Self::batch_ticks).
    #[serde(default)]
    pub multi_lane_ticks: u64,
    /// Events dispatched once on behalf of several arms of one
    /// [`try_simulate_arms_in`] run, counted once per extra arm: the
    /// work the shared prefix saved. Exact and independent of timing.
    #[serde(default)]
    pub shared_events: u64,
}

/// A reusable simulation context: the allocations that dominate per-run
/// setup — the event queue's heap, the EDF ready heap, and the metrics
/// registry — survive from one trial to the next.
///
/// One context per worker thread. A run through
/// [`try_simulate_arms_in`] on a used context is bit-identical to one on
/// a new context (pinned by the pooled-parity tests), so pooling is
/// purely an allocation optimization.
#[derive(Debug, Default)]
pub struct RunContext {
    /// `None` only while a run is on the stack.
    events: Option<EventQueue<SysEvent>>,
    ready: Option<EdfQueue>,
    metrics: MetricsRegistry,
    stats: PoolStats,
    /// The partial result of a traced run the watchdog aborted, until
    /// [`Self::take_partial`] takes it.
    partial: Option<SimResult>,
}

impl RunContext {
    /// Creates an empty context; the first run populates its pools.
    pub fn new() -> Self {
        RunContext::default()
    }

    /// Takes the partial result of the traced run that the watchdog
    /// aborted in the last [`try_simulate_arms_in`] call on this
    /// context: the run's trace, records, accounting and counters when
    /// the watchdog fired, with `horizon` cut to the last instant the
    /// state was advanced to. `None` when that call aborted no traced
    /// run. With several aborted arms, the last one aborted.
    pub fn take_partial(&mut self) -> Option<SimResult> {
        self.partial.take()
    }

    /// Retention statistics accumulated over this context's lifetime.
    pub fn stats(&self) -> PoolStats {
        self.stats
    }

    /// Cumulative event-queue statistics of the pooled queue, or `None`
    /// while a run is on the stack or after a run panicked out of
    /// [`try_simulate_arms_in`] (the next run self-heals with a fresh
    /// queue).
    pub fn queue_stats(&self) -> Option<QueueStats> {
        self.events.as_ref().map(|q| q.stats())
    }
}

/// [`try_simulate_arms_in`] with one arm. Kept only because the campaign
/// benchmark calls it; it goes when the benchmark moves off it.
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_in_taped(
    ctx: &mut RunContext,
    config: SystemConfig,
    tasks: Arc<TaskSet>,
    profile: Arc<PiecewiseConstant>,
    policy: &mut dyn Scheduler,
    predictor: Box<dyn EnergyPredictor>,
    tape: Option<Arc<ReleaseTape>>,
) -> Result<SimResult, SimError> {
    try_simulate_arms_in(ctx, config, tasks, profile, &mut [policy], predictor, tape)
        .pop()
        .expect("one arm, one result")
}

/// Runs several policy *arms* over the same inputs — one configuration,
/// task set, profile, predictor and tape — in one closed loop on `ctx`'s
/// pooled queues, and returns one result per arm, in `policies` order.
/// Each arm's result is bit-identical to a run of that arm alone on a
/// new context, and every arm's policy is [`Scheduler::reset`] first,
/// so lent policies may be reused across runs.
///
/// While every arm's policy takes the same decision, the run is
/// simulated once for all of them. At the first decision where they
/// disagree, the run forks: each group of arms that chose alike
/// continues on its own copy (DESIGN §8.11). [`PoolStats::shared_events`]
/// counts the events this saved.
///
/// Runs with `collect_metrics` or `profile` set simulate their arms one
/// at a time instead: metrics and phase timings each describe one run.
///
/// When `tape` is `Some`, the loop serves task releases itself, each
/// task's next one computed from its phase and period, instead of
/// routing them through the event queue. The taped run is bit-identical
/// to the heap-driven run (pinned by the tape-parity suites); the tape
/// must have been made by [`TaskSet::release_tape`] for this task set
/// and horizon. Runs with `collect_metrics` set ignore the tape and take
/// the reference path (queue statistics would otherwise skew).
///
/// An arm whose [`Watchdog`](harvest_sim::engine::Watchdog) fires
/// returns the corresponding [`SimError`]; the pooled queues are
/// recovered and reset all the same, so the context stays healthy for
/// the worker's next trial. Without a watchdog no result is `Err`. A
/// traced run (`collect_trace`) that aborts leaves its partial result
/// on the context for [`RunContext::take_partial`].
///
/// # Panics
///
/// Panics if `policies` is empty.
#[allow(clippy::too_many_arguments)]
pub fn try_simulate_arms_in(
    ctx: &mut RunContext,
    config: SystemConfig,
    tasks: Arc<TaskSet>,
    profile: Arc<PiecewiseConstant>,
    policies: &mut [&mut dyn Scheduler],
    predictor: Box<dyn EnergyPredictor>,
    tape: Option<Arc<ReleaseTape>>,
) -> Vec<Result<SimResult, SimError>> {
    ctx.partial = None;
    if policies.len() > 1 && (config.collect_metrics || config.profile) {
        return policies
            .iter_mut()
            .flat_map(|policy| {
                run_closed_loop(
                    ctx,
                    config.clone(),
                    Arc::clone(&tasks),
                    Arc::clone(&profile),
                    &mut [&mut **policy],
                    predictor.clone(),
                    tape.clone(),
                )
            })
            .collect();
    }
    run_closed_loop(ctx, config, tasks, profile, policies, predictor, tape)
}

/// The closed loop: resets every arm in `policies` and runs them over the
/// same inputs on `pool`'s queues, which return to it reset, aborted runs
/// included (a fork's copies allocate their own).
///
/// The run starts with all arms. When their policies disagree, the
/// engine stops at that instant ([`SystemModel::decide`]). The stopped
/// run is cloned once per extra group of arms that decided alike, and
/// each copy applies its group's decision and runs on. Copies wait on a
/// stack and run one after the other, each to the horizon or to its
/// own next disagreement.
fn run_closed_loop(
    pool: &mut RunContext,
    mut config: SystemConfig,
    tasks: Arc<TaskSet>,
    profile: Arc<PiecewiseConstant>,
    policies: &mut [&mut dyn Scheduler],
    predictor: Box<dyn EnergyPredictor>,
    tape: Option<Arc<ReleaseTape>>,
) -> Vec<Result<SimResult, SimError>> {
    assert!(!policies.is_empty(), "a closed loop needs at least one arm");
    debug_assert!(
        policies.len() == 1 || !(config.collect_metrics || config.profile),
        "metric and profiled runs carry one arm"
    );
    for policy in policies.iter_mut() {
        policy.reset();
    }
    // Metric runs derive `QueueStats::popped` from the scheduled count,
    // which virtual sequence allocation would skew; those runs (figure
    // traces, `exp inspect`) are rare and cold, so fall back to the
    // heap-driven reference path rather than special-case the stats.
    let tape = tape.filter(|_| !config.collect_metrics);
    if let Some(t) = &tape {
        assert_eq!(
            t.horizon_ticks(),
            (SimTime::ZERO + config.horizon).as_ticks(),
            "release tape was built for a different horizon"
        );
        assert_eq!(
            t.task_count(),
            tasks.len(),
            "release tape was built for a different task set"
        );
    }
    // Fault injection. Each arm is a no-op on the fault-free path, so a
    // run with `fault_plan: None` is bit-identical to the pre-fault
    // simulator (pinned by the Fig. 5–9 suites).
    let fault_plan = config.fault_plan.take().filter(|p| !p.is_empty());
    let (profile, predictor) = if let Some(plan) = &fault_plan {
        if let Some(sf) = plan.storage.filter(|s| !s.is_empty()) {
            config.storage = sf.apply(config.storage);
        }
        let profile = if plan.harvest.is_empty() {
            profile
        } else {
            Arc::new(apply_harvest_faults(&profile, &plan.harvest))
        };
        let predictor: Box<dyn EnergyPredictor> = match plan.predictor.filter(|pf| !pf.is_empty()) {
            Some(pf) => Box::new(FaultyPredictor::new(predictor, pf)),
            None => predictor,
        };
        (profile, predictor)
    } else {
        (profile, predictor)
    };
    let initial = config.initial_level.unwrap_or_else(|| {
        if config.storage.is_infinite() {
            0.0
        } else {
            config.storage.capacity()
        }
    });
    // Capacity fade can undercut a configured initial level; clamp so
    // the faulted battery starts full rather than over-full.
    let initial = if fault_plan.is_some() {
        initial.min(config.storage.capacity())
    } else {
        initial
    };
    let storage = Storage::new(config.storage, initial);
    let level_count = config.cpu.level_count();
    let policies: Vec<RefCell<&mut dyn Scheduler>> = policies
        .iter_mut()
        .map(|p| RefCell::new(&mut **p as &mut dyn Scheduler))
        .collect();
    let horizon = config.horizon;
    let trace = if config.collect_trace {
        TraceLog::Keep(Vec::new())
    } else {
        TraceLog::Count(CountingSink::new())
    };
    let ready = pool.ready.take().unwrap_or_default();
    debug_assert!(ready.is_empty(), "pooled ready queue must be cleared");
    let model = SystemModel {
        energy: EnergyAccounting {
            initial_level: initial,
            ..EnergyAccounting::default()
        },
        config,
        tasks: Arc::clone(&tasks),
        profile,
        policies: &policies,
        arms: (0..policies.len()).collect(),
        decisions: Vec::new(),
        predictor,
        storage,
        queue: ready,
        state: RunState::Idle,
        last_sync: SimTime::ZERO,
        epoch: 0,
        next_job_id: 0,
        // One record per release, counted exactly on the taped path.
        records: match &tape {
            Some(t) => Vec::with_capacity(release_count(&tasks, t.horizon_ticks())),
            None => Vec::new(),
        },
        last_level: None,
        switches: 0,
        level_time: vec![0.0; level_count],
        idle_time: 0.0,
        stall_time: 0.0,
        samples: Vec::new(),
        trace,
        tiers: CrossingTiers::default(),
        obs: ObsCounters::new(level_count),
        fault: fault_plan.map(|plan| FaultRuntime {
            plan,
            harvest_factor: 1.0,
        }),
        profiler: None,
        side: tape.map(|_| SideStream {
            releases: vec![None; tasks.len()],
            release_min: None,
            elide_deadlines: tasks
                .tasks()
                .iter()
                .all(|t| t.period().is_none_or(|p| t.relative_deadline() <= p)),
            deadline_slots: vec![None; tasks.len()],
            deadline_min: None,
        }),
    };
    let mut engine = Engine::with_queue(model, pool.events.take().unwrap_or_default());
    if engine.model().config.profile {
        engine.enable_profiling();
        engine.model_mut().profiler = Some(Box::default());
    }
    let watchdog = engine.model().config.watchdog;
    engine.set_watchdog(watchdog);
    let horizon_end = SimTime::ZERO + horizon;
    // Seed the injected state at t = 0 and the edges where it changes.
    if engine.model().fault.is_some() {
        let edges = engine
            .model()
            .fault
            .as_ref()
            .map(|fr| fr.plan.edge_times(SimTime::ZERO, horizon_end))
            .unwrap_or_default();
        for t in edges {
            engine.schedule(t, SysEvent::FaultEdge);
        }
        engine.model_mut().apply_fault_state(SimTime::ZERO);
    }
    // Seed first arrivals and the sampling grid. On the taped path the
    // first releases become the tasks' pending releases; claim their
    // sequence numbers in the same task-index order the heap path
    // schedules them, so the same-tick tie-break is preserved.
    let taped = engine.model().side.is_some();
    for (i, task) in tasks.iter().enumerate() {
        let phase = task.phase();
        if phase >= SimTime::ZERO && phase < SimTime::ZERO + horizon {
            if taped {
                let seq = engine.alloc_seq();
                let side = engine
                    .model_mut()
                    .side
                    .as_mut()
                    .expect("taped checked above");
                side.set_release(i, Some((phase.as_ticks(), seq)));
            } else {
                engine.schedule(phase, SysEvent::Arrival { task: i });
            }
        }
    }
    if engine.model().config.sample_interval.is_some() {
        engine.schedule(SimTime::ZERO, SysEvent::Sample);
    }

    let mut results: Vec<Option<Result<SimResult, SimError>>> =
        policies.iter().map(|_| None).collect();
    let mut forks: Vec<Engine<SystemModel<'_>>> = Vec::new();
    loop {
        let before = engine.events_handled();
        let outcome = engine.run_until(horizon_end);
        let extra_arms = engine.model().arms.len() as u64 - 1;
        pool.stats.shared_events += extra_arms * (engine.events_handled() - before);
        if let RunOutcome::Stopped { at } = outcome {
            // The arms disagreed at `at`. The groups after the first
            // continue on copies; the first continues here.
            let mut groups = engine.model().split().into_iter();
            let (decision, arms) = groups.next().expect("a split has groups");
            for (decision, arms) in groups {
                let mut fork = engine.clone();
                fork.model_mut().arms = arms;
                fork.apply(|model, ctx| model.apply_decision(at, decision, ctx));
                forks.push(fork);
            }
            engine.model_mut().arms = arms;
            engine.apply(|model, ctx| model.apply_decision(at, decision, ctx));
            continue;
        }
        let (mut events, mut ready) = finish(
            engine,
            outcome,
            &mut pool.metrics,
            &mut pool.partial,
            &mut results,
        );
        // The first run to finish is the original one, on the pooled
        // queues; the copies' queues are dropped.
        if pool.events.is_none() {
            events.reset();
            ready.clear();
            let stats = &mut pool.stats;
            stats.event_slab_high_water = stats.event_slab_high_water.max(events.capacity() as u64);
            stats.ready_high_water = stats.ready_high_water.max(ready.capacity() as u64);
            pool.events = Some(events);
            pool.ready = Some(ready);
        }
        match forks.pop() {
            Some(fork) => engine = fork,
            None => break,
        }
    }
    pool.stats.runs += policies.len() as u64;
    results
        .into_iter()
        .map(|r| r.expect("every arm finished"))
        .collect()
}

/// Settles a run that reached its end — the horizon, a drained queue or
/// a watchdog abort — into the result of every arm it carries (equal but
/// for the policy name), and hands back its queues. A traced run the
/// watchdog aborted also leaves its partial result in `partial`.
fn finish(
    engine: Engine<SystemModel<'_>>,
    outcome: RunOutcome,
    reg: &mut MetricsRegistry,
    partial: &mut Option<SimResult>,
    results: &mut [Option<Result<SimResult, SimError>>],
) -> (EventQueue<SysEvent>, EdfQueue) {
    let events = engine.events_handled();
    let queue_stats = engine.queue_stats();
    let engine_profiler = engine.profiler().cloned();
    let (mut model, equeue) = engine.into_parts();
    let policies = model.policies;
    let name = |arm: usize| policies[arm].borrow().name().to_owned();
    let result = if let RunOutcome::WatchdogFired { at, events, kind } = outcome {
        if model.config.collect_trace {
            // The state as the last handled event left it: nothing is
            // advanced to `at` or settled at a horizon.
            model.energy.final_level = model.storage.level();
            let covered = model.last_sync - SimTime::ZERO;
            let mut run =
                model.take_result(covered, events, queue_stats, engine_profiler.as_ref(), reg);
            run.scheduler = name(model.arms[0]);
            *partial = Some(run);
        }
        Err(match kind {
            WatchdogKind::EventBudget => SimError::WatchdogEventBudget { at, events },
            WatchdogKind::NoProgress => SimError::WatchdogNoProgress { at, events },
        })
    } else {
        let horizon = model.config.horizon;
        model.finalize(SimTime::ZERO + horizon);
        Ok(model.take_result(horizon, events, queue_stats, engine_profiler.as_ref(), reg))
    };
    let (&first, rest) = model.arms.split_first().expect("a run carries arms");
    let mut settle = |arm: usize, result: Result<SimResult, SimError>| {
        results[arm] = Some(result.map(|mut r| {
            r.scheduler = name(arm);
            r
        }));
    };
    for &arm in rest {
        settle(arm, result.clone());
    }
    settle(first, result);
    (equeue, model.queue)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::LevelLockoutWindow;
    use crate::policies::{
        EaDvfsScheduler, EdfScheduler, GreedyStretchScheduler, LazyScheduler,
        StaticSlowdownScheduler,
    };
    use harvest_cpu::presets;
    use harvest_energy::predictor::OraclePredictor;
    use harvest_energy::storage::StorageSpec;

    fn u(x: i64) -> SimTime {
        SimTime::from_whole_units(x)
    }

    fn d(x: i64) -> SimDuration {
        SimDuration::from_whole_units(x)
    }

    /// The paper's §2 motivational tasks.
    fn section2_tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::once(u(0), d(16), 4.0),
            Task::once(u(5), d(16), 1.5),
        ])
    }

    fn run(policy: Box<dyn Scheduler>, tasks: &TaskSet, config: SystemConfig) -> SimResult {
        let profile = PiecewiseConstant::constant(0.5);
        simulate(
            config,
            tasks,
            profile.clone(),
            policy,
            Box::new(OraclePredictor::new(profile)),
        )
    }

    /// One arm through [`try_simulate_arms_in`].
    fn run_in(
        ctx: &mut RunContext,
        config: SystemConfig,
        tasks: Arc<TaskSet>,
        profile: Arc<PiecewiseConstant>,
        policy: &mut dyn Scheduler,
        predictor: Box<dyn EnergyPredictor>,
        tape: Option<Arc<ReleaseTape>>,
    ) -> Result<SimResult, SimError> {
        try_simulate_arms_in(ctx, config, tasks, profile, &mut [policy], predictor, tape)
            .pop()
            .expect("one arm, one result")
    }

    fn section2_config() -> SystemConfig {
        SystemConfig::new(
            presets::two_speed_example(),
            StorageSpec::ideal(1_000.0),
            d(30),
        )
        .with_initial_level(24.0)
        .with_trace()
    }

    #[test]
    fn section2_lsa_misses_tau2() {
        let r = run(
            Box::new(LazyScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        assert_eq!(r.released(), 2);
        // τ1 completes exactly at its deadline 16; τ2 starves.
        assert!(
            r.jobs[0].met_deadline(),
            "τ1 outcome: {:?}",
            r.jobs[0].outcome
        );
        assert!(
            r.jobs[1].missed_deadline(),
            "τ2 outcome: {:?}",
            r.jobs[1].outcome
        );
        assert!((r.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn section2_ea_dvfs_meets_both() {
        let r = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        assert_eq!(r.missed(), 0, "jobs: {:?}", r.jobs);
        assert_eq!(r.completed_in_time(), 2);
    }

    #[test]
    fn section2_ea_dvfs_finishes_tau1_by_12() {
        let r = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        match r.jobs[0].outcome {
            JobOutcome::Completed { at } => {
                // Idle [0,4), slow [4,12): completes exactly at 12.
                assert_eq!(at, u(12), "trace: {:?}", r.trace);
            }
            ref other => panic!("τ1 should complete, got {other:?}"),
        }
    }

    /// Fig. 3 (§4.3): τ2 = (5, 12, 1.5). Greedy stretching misses it;
    /// EA-DVFS's s2 cap saves it.
    fn fig3_tasks() -> TaskSet {
        TaskSet::new(vec![
            Task::once(u(0), d(16), 4.0),
            Task::once(u(5), d(12), 1.5),
        ])
    }

    fn fig3_config() -> SystemConfig {
        // Predicted available energy 32 over [0,16) with zero harvest:
        // stored 32 up front.
        SystemConfig::new(
            presets::quarter_speed_example(),
            StorageSpec::ideal(1_000.0),
            d(30),
        )
        .with_initial_level(32.0)
    }

    fn run_fig3(policy: Box<dyn Scheduler>) -> SimResult {
        let profile = PiecewiseConstant::constant(0.0);
        simulate(
            fig3_config(),
            &fig3_tasks(),
            profile.clone(),
            policy,
            Box::new(OraclePredictor::new(profile)),
        )
    }

    #[test]
    fn fig3_greedy_stretch_misses_tau2() {
        let r = run_fig3(Box::new(GreedyStretchScheduler::new()));
        assert!(
            r.jobs[1].missed_deadline(),
            "τ2 outcome: {:?}",
            r.jobs[1].outcome
        );
    }

    #[test]
    fn fig3_ea_dvfs_meets_both() {
        let r = run_fig3(Box::new(EaDvfsScheduler::new()));
        assert_eq!(r.missed(), 0, "jobs: {:?}", r.jobs);
    }

    #[test]
    fn edf_with_ample_energy_is_miss_free() {
        let tasks = TaskSet::new(vec![
            Task::periodic_implicit(d(10), 2.0),
            Task::periodic_implicit(d(20), 4.0),
        ]);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::infinite(), d(200));
        let profile = PiecewiseConstant::constant(10.0);
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert!(r.released() >= 20 + 10);
        assert_eq!(r.missed(), 0);
    }

    #[test]
    fn ea_dvfs_with_infinite_storage_matches_edf_outcomes() {
        let tasks = TaskSet::new(vec![
            Task::periodic_implicit(d(10), 3.0),
            Task::periodic_implicit(d(30), 6.0),
        ]);
        let profile = PiecewiseConstant::constant(1.0);
        let mk = |policy: Box<dyn Scheduler>| {
            simulate(
                SystemConfig::new(presets::xscale(), StorageSpec::infinite(), d(300)),
                &tasks,
                profile.clone(),
                policy,
                Box::new(OraclePredictor::new(profile.clone())),
            )
        };
        let edf = mk(Box::new(EdfScheduler::new()));
        let ea = mk(Box::new(EaDvfsScheduler::new()));
        assert_eq!(edf.released(), ea.released());
        assert_eq!(edf.missed(), ea.missed());
        // §4.3: identical behaviour — same completion instants.
        let done = |r: &SimResult| -> Vec<Option<SimTime>> {
            r.jobs
                .iter()
                .map(|j| match j.outcome {
                    JobOutcome::Completed { at } => Some(at),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(done(&edf), done(&ea));
    }

    #[test]
    fn depleted_system_stalls_and_recovers() {
        // No stored energy, no harvest until t=10, then plenty.
        let profile = PiecewiseConstant::new(
            vec![u(0), u(10), u(100)],
            vec![0.0, 10.0],
            harvest_sim::piecewise::Extension::Hold,
        )
        .unwrap();
        let tasks = TaskSet::new(vec![Task::once(u(0), d(50), 2.0)]);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(100.0), d(100))
            .with_initial_level(0.0)
            .with_trace();
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert_eq!(r.missed(), 0, "jobs: {:?}, trace: {:?}", r.jobs, r.trace);
        assert!(r.stall_time > 9.0, "stall time {}", r.stall_time);
        match r.jobs[0].outcome {
            JobOutcome::Completed { at } => assert!(at > u(10) && at < u(13)),
            ref other => panic!("expected completion, got {other:?}"),
        }
    }

    #[test]
    fn hopeless_starvation_records_miss() {
        let profile = PiecewiseConstant::constant(0.0);
        let tasks = TaskSet::new(vec![Task::once(u(0), d(10), 2.0)]);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(100.0), d(50))
            .with_initial_level(0.0);
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert_eq!(r.missed(), 1);
        assert_eq!(r.energy.consumed, 0.0);
    }

    #[test]
    fn preemption_by_earlier_deadline() {
        // Long job released at 0 (deadline 100), short urgent job at 5
        // (deadline 12). EDF must preempt and finish the short one first.
        let tasks = TaskSet::new(vec![
            Task::once(u(0), d(100), 20.0),
            Task::once(u(5), d(7), 1.0),
        ]);
        let profile = PiecewiseConstant::constant(10.0);
        let config =
            SystemConfig::new(presets::xscale(), StorageSpec::ideal(10_000.0), d(120)).with_trace();
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert_eq!(r.missed(), 0, "jobs: {:?}", r.jobs);
        let t1_done = match r.jobs[1].outcome {
            JobOutcome::Completed { at } => at,
            ref o => panic!("urgent job should complete: {o:?}"),
        };
        assert_eq!(t1_done, u(6));
        match r.jobs[0].outcome {
            JobOutcome::Completed { at } => assert_eq!(at, u(21)),
            ref o => panic!("long job should complete: {o:?}"),
        }
    }

    #[test]
    fn miss_policy_run_to_completion_records_late_finish() {
        let tasks = TaskSet::new(vec![Task::once(u(0), d(2), 4.0)]);
        let profile = PiecewiseConstant::constant(10.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(1_000.0), d(50))
            .with_miss_policy(MissPolicy::RunToCompletion);
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert_eq!(r.missed(), 1);
        match r.jobs[0].outcome {
            JobOutcome::Missed {
                completed: Some(at),
            } => assert_eq!(at, u(4)),
            ref o => panic!("expected late completion, got {o:?}"),
        }
    }

    #[test]
    fn abort_policy_drops_job_at_deadline() {
        let tasks = TaskSet::new(vec![Task::once(u(0), d(2), 4.0)]);
        let profile = PiecewiseConstant::constant(10.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(1_000.0), d(50));
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert_eq!(r.missed(), 1);
        assert!(matches!(
            r.jobs[0].outcome,
            JobOutcome::Missed { completed: None }
        ));
        // Only ~2 units of work were executed before the abort.
        assert!(r.busy_time() < 2.0 + 1e-6);
    }

    #[test]
    fn sampling_records_grid() {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 1.0)]);
        let profile = PiecewiseConstant::constant(2.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(100.0), d(100))
            .with_sample_interval(d(10));
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        assert_eq!(r.samples.len(), 10);
        assert_eq!(r.samples[0].0, u(0));
        assert_eq!(r.samples[9].0, u(90));
        for &(_, level) in &r.samples {
            assert!((0.0..=100.0).contains(&level));
        }
    }

    #[test]
    fn energy_conservation_holds() {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]);
        let profile = PiecewiseConstant::constant(1.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(50.0), d(500));
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EaDvfsScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        // initial + harvested = consumed + overflow + final (ideal store;
        // `consumed` is energy actually delivered, so deficit does not
        // appear in the identity).
        let lhs = r.energy.initial_level + r.energy.harvested;
        let rhs = r.energy.consumed + r.energy.overflow + r.energy.final_level;
        assert!(
            (lhs - rhs).abs() < 1e-6,
            "conservation violated: in={lhs} out={rhs} ({:?})",
            r.energy
        );
    }

    #[test]
    fn switch_energy_is_charged_per_frequency_change() {
        // EA-DVFS on the §2 example changes frequency when τ2 starts at
        // the slow level after τ1 — count switches and verify the energy
        // drain appears in the accounting.
        let cheap = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        let mut config = section2_config();
        config.cpu = config.cpu.with_switch_energy(2.0);
        let costly = run(Box::new(EaDvfsScheduler::new()), &section2_tasks(), config);
        assert_eq!(cheap.switches, costly.switches);
        let expected_extra = 2.0 * costly.switches as f64;
        assert!(
            (costly.energy.consumed - cheap.energy.consumed - expected_extra).abs() < 1e-6,
            "switch energy not charged: cheap {} vs costly {} ({} switches)",
            cheap.energy.consumed,
            costly.energy.consumed,
            costly.switches
        );
        // Conservation still closes with switch drains.
        let lhs = costly.energy.initial_level + costly.energy.harvested;
        let rhs = costly.energy.consumed + costly.energy.overflow + costly.energy.final_level;
        assert!((lhs - rhs).abs() < 1e-6, "{:?}", costly.energy);
    }

    #[test]
    fn metrics_snapshot_collects_counters() {
        let config = section2_config().with_metrics().with_profiling();
        let r = run(Box::new(EaDvfsScheduler::new()), &section2_tasks(), config);
        let m = r.metrics.as_ref().expect("metrics collected");
        assert_eq!(m.counter("engine.events"), r.events);
        assert!(m.counter("sched.decisions") > 0);
        assert!(m.counter("cursor.cross.bisect") > 0);
        assert!(m.counter("policy.ea-dvfs.stretches") > 0);
        // Every Started trace event is one run decision.
        assert_eq!(m.counter("sched.run_decisions"), r.trace_kind_counts[1]);
        let p = r.profile.as_ref().expect("profile collected");
        assert_eq!(
            p.get(harvest_sim::engine::PHASE_DISPATCH)
                .expect("dispatch timed")
                .calls,
            r.events
        );
        assert!(p.get(PHASE_POLICY_DECIDE).expect("decide timed").calls > 0);
        assert!(p.get(PHASE_ENERGY_SYNC).expect("sync timed").calls > 0);

        // The same constant harvest on uneven breakpoints (a table, not
        // a grid) counts its crossing tiers too.
        let uneven = PiecewiseConstant::new(
            vec![u(0), u(10), u(100)],
            vec![0.5, 0.5],
            harvest_sim::piecewise::Extension::Hold,
        )
        .unwrap();
        let r2 = simulate(
            section2_config().with_metrics(),
            &section2_tasks(),
            uneven.clone(),
            Box::new(EaDvfsScheduler::new()),
            Box::new(OraclePredictor::new(uneven)),
        );
        let m2 = r2.metrics.as_ref().expect("metrics collected");
        assert!(m2.counter("cursor.cross.bisect") > 0);
    }

    #[test]
    fn observability_off_leaves_result_lean_and_identical() {
        let base = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        assert!(base.metrics.is_none());
        assert!(base.profile.is_none());
        assert_eq!(
            base.trace_kind_counts.iter().sum::<u64>(),
            base.trace_events
        );
        let observed = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config().with_metrics().with_profiling(),
        );
        // Observability must not perturb the simulation.
        assert_eq!(base.jobs, observed.jobs);
        assert_eq!(base.energy, observed.energy);
        assert_eq!(base.events, observed.events);
        assert_eq!(base.trace, observed.trace);
    }

    #[test]
    fn kind_counts_match_in_counting_mode() {
        // Same run with and without trace retention: per-variant totals
        // must agree (counting mode tallies without retaining).
        let mut config = section2_config();
        config.collect_trace = false;
        let counted = run(Box::new(EaDvfsScheduler::new()), &section2_tasks(), config);
        let kept = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        assert!(counted.trace.is_empty());
        assert_eq!(counted.trace_kind_counts, kept.trace_kind_counts);
        assert_eq!(counted.trace_events, kept.trace_events);
    }

    #[test]
    fn pooled_runs_are_bit_identical_to_fresh() {
        // One context, three different trials back to back (full
        // observability on, so metrics/trace/profile parity is covered
        // too — modulo the wall-clock timings inside `profile`, which
        // are not deterministic and therefore compared structurally).
        let mut ctx = RunContext::new();
        let config = section2_config().with_metrics();
        let profile = PiecewiseConstant::constant(0.5);
        let tasks = Arc::new(section2_tasks());
        let factories: Vec<fn() -> Box<dyn Scheduler>> = vec![
            || Box::new(EaDvfsScheduler::new()),
            || Box::new(LazyScheduler::new()),
            || Box::new(GreedyStretchScheduler::new()),
        ];
        for mk in &factories {
            let fresh = run(mk(), &section2_tasks(), config.clone());
            let mut policy = mk();
            // Dirty the pooled policy's counters with an extra run; the
            // pooled run must reset them before the compared trial.
            let _ = run_in(
                &mut ctx,
                config.clone(),
                Arc::clone(&tasks),
                Arc::new(profile.clone()),
                policy.as_mut(),
                Box::new(OraclePredictor::new(profile.clone())),
                None,
            );
            let pooled = run_in(
                &mut ctx,
                config.clone(),
                Arc::clone(&tasks),
                Arc::new(profile.clone()),
                policy.as_mut(),
                Box::new(OraclePredictor::new(profile.clone())),
                None,
            )
            .unwrap();
            assert_eq!(fresh, pooled, "policy {}", pooled.scheduler);
        }
        let stats = ctx.stats();
        assert_eq!(stats.runs, 6);
        assert!(stats.event_slab_high_water > 0);
        assert!(stats.ready_high_water > 0);
    }

    /// The §2 arms, with EA-DVFS twice.
    const SECTION2_ARMS: [fn() -> Box<dyn Scheduler>; 3] = [
        || Box::new(LazyScheduler::new()),
        || Box::new(EaDvfsScheduler::new()),
        || Box::new(EaDvfsScheduler::new()),
    ];

    fn section2_arms(ctx: &mut RunContext, config: SystemConfig) -> Vec<SimResult> {
        let profile = Arc::new(PiecewiseConstant::constant(0.5));
        let mut policies: Vec<Box<dyn Scheduler>> = SECTION2_ARMS.iter().map(|mk| mk()).collect();
        let mut arms: Vec<&mut dyn Scheduler> = policies
            .iter_mut()
            .map(|p| &mut **p as &mut dyn Scheduler)
            .collect();
        try_simulate_arms_in(
            ctx,
            config,
            Arc::new(section2_tasks()),
            Arc::clone(&profile),
            &mut arms,
            Box::new(OraclePredictor::from_shared(profile)),
            None,
        )
        .into_iter()
        .map(|r| r.expect("no watchdog"))
        .collect()
    }

    #[test]
    fn arms_fork_where_they_disagree_and_match_solo_runs() {
        // At t = 0 LSA idles until 12 and EA-DVFS until 4 (§2), so the
        // run forks at its first event; the EA-DVFS twins stay together.
        let mut ctx = RunContext::new();
        let joint = section2_arms(&mut ctx, section2_config());
        for (result, mk) in joint.iter().zip(SECTION2_ARMS) {
            assert_eq!(result, &run(mk(), &section2_tasks(), section2_config()));
        }
        assert_eq!(ctx.stats().runs, 3);
        // The first event served all three arms, the rest of the EA-DVFS
        // run both twins.
        assert_eq!(ctx.stats().shared_events, 2 + (joint[1].events - 1));
    }

    #[test]
    fn metric_runs_simulate_their_arms_one_at_a_time() {
        let mut ctx = RunContext::new();
        let config = section2_config().with_metrics();
        let joint = section2_arms(&mut ctx, config.clone());
        for (result, mk) in joint.iter().zip(SECTION2_ARMS) {
            assert_eq!(result, &run(mk(), &section2_tasks(), config.clone()));
        }
        assert_eq!(ctx.stats().runs, 3);
        assert_eq!(ctx.stats().shared_events, 0, "nothing is shared");
    }

    #[test]
    fn residency_totals_match_horizon() {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]);
        let profile = PiecewiseConstant::constant(2.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(200.0), d(300));
        let r = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(LazyScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
        let total = r.busy_time() + r.idle_time;
        assert!((total - 300.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_none() {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]);
        let profile = PiecewiseConstant::constant(1.0);
        let base = SystemConfig::new(presets::xscale(), StorageSpec::ideal(200.0), d(300))
            .with_trace()
            .with_metrics()
            .with_sample_interval(d(25));
        let faulted = base.clone().with_fault_plan(FaultPlan::default());
        let run_with = |config: SystemConfig| {
            simulate(
                config,
                &tasks,
                profile.clone(),
                Box::new(EaDvfsScheduler::new()),
                Box::new(OraclePredictor::new(profile.clone())),
            )
        };
        assert_eq!(run_with(base), run_with(faulted));
    }

    #[test]
    fn blackout_window_degrades_the_run() {
        use harvest_energy::fault::HarvestFaultWindow;
        // A tight harvest budget with a long blackout mid-run: the
        // faulted trial must harvest strictly less and trace the edges.
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 4.0)]);
        let profile = PiecewiseConstant::constant(1.2);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(50.0), d(400))
            .with_initial_level(10.0)
            .with_trace();
        let plan = FaultPlan {
            harvest: vec![HarvestFaultWindow {
                start: u(100),
                end: u(300),
                factor: 0.0,
            }],
            ..FaultPlan::default()
        };
        let run_with = |config: SystemConfig| {
            simulate(
                config,
                &tasks,
                profile.clone(),
                Box::new(EaDvfsScheduler::new()),
                Box::new(OraclePredictor::new(profile.clone())),
            )
        };
        let clean = run_with(config.clone());
        let faulted = run_with(config.with_fault_plan(plan));
        assert!(
            faulted.energy.harvested < clean.energy.harvested - 1.0,
            "blackout must cut harvested energy ({} vs {})",
            faulted.energy.harvested,
            clean.energy.harvested
        );
        let fault_edges = faulted
            .trace
            .iter()
            .filter(|(_, ev)| matches!(ev, TraceEvent::HarvestFault { .. }))
            .count();
        assert_eq!(fault_edges, 2, "one edge per window boundary");
        assert_eq!(
            faulted.trace_kind_counts[TraceEvent::KIND_NAMES
                .iter()
                .position(|&n| n == "harvest-fault")
                .unwrap()],
            2
        );
    }

    #[test]
    fn level_lockout_forces_faster_selection() {
        // EA-DVFS stretches the §2 τ1 job onto the slow level; locking
        // that level for the whole run forces eq. 6 to re-select the
        // fast one.
        let plan = FaultPlan {
            lockouts: vec![LevelLockoutWindow {
                level: 0,
                start: u(0),
                end: u(30),
            }],
            ..FaultPlan::default()
        };
        let clean = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config(),
        );
        let locked = run(
            Box::new(EaDvfsScheduler::new()),
            &section2_tasks(),
            section2_config().with_fault_plan(plan),
        );
        let started_levels = |r: &SimResult| -> Vec<usize> {
            r.trace
                .iter()
                .filter_map(|(_, ev)| match ev {
                    TraceEvent::Started { level, .. } => Some(*level),
                    _ => None,
                })
                .collect()
        };
        assert!(
            started_levels(&clean).contains(&0),
            "baseline must use the slow level"
        );
        assert!(
            started_levels(&locked).iter().all(|&l| l != 0),
            "locked level must never start"
        );
        assert!(
            locked.trace.iter().any(|(_, ev)| matches!(
                ev,
                TraceEvent::LevelLockout {
                    level: 0,
                    locked: true
                }
            )),
            "lockout must be traced"
        );
    }

    #[test]
    fn watchdog_event_budget_yields_typed_error() {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]);
        let profile = PiecewiseConstant::constant(2.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(200.0), d(300))
            .with_watchdog(harvest_sim::engine::Watchdog::with_max_events(5));
        let err = run_in(
            &mut RunContext::new(),
            config,
            Arc::new(tasks),
            Arc::new(profile.clone()),
            &mut EdfScheduler::new(),
            Box::new(OraclePredictor::new(profile)),
            None,
        )
        .expect_err("a 5-event budget cannot cover a 300-unit run");
        assert!(matches!(
            err,
            SimError::WatchdogEventBudget { events: 6, .. }
        ));
    }

    #[test]
    #[should_panic(expected = "try_simulate_arms_in")]
    fn simulate_panics_when_its_watchdog_fires() {
        let tasks = TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]);
        let profile = PiecewiseConstant::constant(2.0);
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(200.0), d(300))
            .with_watchdog(harvest_sim::engine::Watchdog::with_max_events(5));
        let _ = simulate(
            config,
            &tasks,
            profile.clone(),
            Box::new(EdfScheduler::new()),
            Box::new(OraclePredictor::new(profile)),
        );
    }

    #[test]
    fn watchdog_abort_leaves_pool_reusable() {
        let tasks = Arc::new(TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]));
        let profile = Arc::new(PiecewiseConstant::constant(2.0));
        let base = SystemConfig::new(presets::xscale(), StorageSpec::ideal(200.0), d(300));
        let mut ctx = RunContext::new();
        let mut policy = EdfScheduler::new();
        let err = run_in(
            &mut ctx,
            base.clone()
                .with_watchdog(harvest_sim::engine::Watchdog::with_max_events(5)),
            Arc::clone(&tasks),
            Arc::clone(&profile),
            &mut policy,
            Box::new(OraclePredictor::new((*profile).clone())),
            None,
        );
        assert!(err.is_err());
        assert!(ctx.queue_stats().is_some(), "queues recovered after abort");
        // The same context then runs a clean trial bit-identical to a
        // fresh one.
        let pooled = run_in(
            &mut ctx,
            base.clone(),
            Arc::clone(&tasks),
            Arc::clone(&profile),
            &mut policy,
            Box::new(OraclePredictor::new((*profile).clone())),
            None,
        )
        .unwrap();
        let fresh = run_in(
            &mut RunContext::new(),
            base,
            tasks,
            Arc::clone(&profile),
            &mut EdfScheduler::new(),
            Box::new(OraclePredictor::new((*profile).clone())),
            None,
        )
        .unwrap();
        assert_eq!(pooled, fresh);
        assert_eq!(ctx.stats().runs, 2, "aborted runs still count");
    }

    #[test]
    fn traced_aborts_leave_a_partial_result_on_the_context() {
        let tasks = Arc::new(TaskSet::new(vec![Task::periodic_implicit(d(10), 2.0)]));
        let profile = Arc::new(PiecewiseConstant::constant(2.0));
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(200.0), d(300));
        let watched =
            |c: SystemConfig| c.with_watchdog(harvest_sim::engine::Watchdog::with_max_events(40));
        let mut ctx = RunContext::new();
        let mut policy = EdfScheduler::new();
        let mut run = |ctx: &mut RunContext, config: SystemConfig| {
            run_in(
                ctx,
                config,
                Arc::clone(&tasks),
                Arc::clone(&profile),
                &mut policy,
                Box::new(OraclePredictor::new((*profile).clone())),
                None,
            )
        };
        let full = run(&mut ctx, config.clone().with_trace()).unwrap();
        assert!(ctx.take_partial().is_none(), "a clean run leaves nothing");

        let Err(SimError::WatchdogEventBudget { at, .. }) =
            run(&mut ctx, watched(config.clone().with_trace()))
        else {
            panic!("40 events cannot cover 300 units");
        };
        let partial = ctx
            .take_partial()
            .expect("a traced abort leaves its partial");
        assert!(ctx.take_partial().is_none(), "taking is one-shot");
        assert_eq!(partial.scheduler, "edf");
        assert_eq!(
            partial.events, 41,
            "the event that tripped the budget counts"
        );
        assert!(!partial.trace.is_empty());
        assert!(
            partial.trace.len() < full.trace.len(),
            "the abort cuts the run short"
        );
        assert_eq!(partial.trace[..], full.trace[..partial.trace.len()]);
        assert!(partial.trace.iter().all(|&(t, _)| t <= at));
        assert!(SimTime::ZERO + partial.horizon <= at);

        assert!(run(&mut ctx, watched(config)).is_err());
        assert!(
            ctx.take_partial().is_none(),
            "an untraced abort leaves nothing"
        );
    }

    /// Tie-heavy periodic set: at t = 5 the heap pops τ1's seeded
    /// release before τ0's successor (lower sequence number), the case
    /// a naive sorted-by-task-index tape would invert.
    fn tape_tasks() -> Arc<TaskSet> {
        Arc::new(TaskSet::new(vec![
            Task::periodic(u(0), d(5), d(5), 1.0),
            Task::periodic(u(5), d(10), d(10), 1.5),
            Task::periodic_implicit(d(20), 4.0),
        ]))
    }

    #[test]
    fn taped_runs_are_bit_identical_to_heap_runs() {
        let tasks = tape_tasks();
        let profile = Arc::new(PiecewiseConstant::constant(0.8));
        let config = SystemConfig::new(presets::xscale(), StorageSpec::ideal(30.0), d(200))
            .with_sample_interval(d(25));
        let tape = Arc::new(tasks.release_tape(config.horizon));
        let policies: Vec<Box<dyn Scheduler>> = vec![
            Box::new(EdfScheduler::new()),
            Box::new(LazyScheduler::new()),
            Box::new(GreedyStretchScheduler::new()),
            Box::new(EaDvfsScheduler::new()),
        ];
        for mut policy in policies {
            let mut ctx = RunContext::new();
            let heap = run_in(
                &mut ctx,
                config.clone(),
                Arc::clone(&tasks),
                Arc::clone(&profile),
                policy.as_mut(),
                Box::new(OraclePredictor::new((*profile).clone())),
                None,
            )
            .unwrap();
            let taped = run_in(
                &mut ctx,
                config.clone(),
                Arc::clone(&tasks),
                Arc::clone(&profile),
                policy.as_mut(),
                Box::new(OraclePredictor::new((*profile).clone())),
                Some(Arc::clone(&tape)),
            )
            .unwrap();
            assert_eq!(heap, taped, "tape diverged under {}", heap.scheduler);
            assert!(taped.released() > 0, "scenario exercises releases");
        }
    }

    #[test]
    fn taped_metric_runs_fall_back_to_the_heap_path() {
        let tasks = tape_tasks();
        let profile = Arc::new(PiecewiseConstant::constant(0.8));
        let config =
            SystemConfig::new(presets::xscale(), StorageSpec::ideal(30.0), d(100)).with_metrics();
        let tape = Arc::new(tasks.release_tape(config.horizon));
        let mut ctx = RunContext::new();
        let mut policy = EdfScheduler::new();
        let taped = run_in(
            &mut ctx,
            config.clone(),
            Arc::clone(&tasks),
            Arc::clone(&profile),
            &mut policy,
            Box::new(OraclePredictor::new((*profile).clone())),
            Some(tape),
        )
        .unwrap();
        let heap = run_in(
            &mut ctx,
            config,
            tasks,
            profile.clone(),
            &mut policy,
            Box::new(OraclePredictor::new((*profile).clone())),
            None,
        )
        .unwrap();
        let m = taped.metrics.as_ref().expect("metrics collected");
        assert_eq!(
            m.counter("queue.scheduled"),
            heap.metrics.as_ref().unwrap().counter("queue.scheduled"),
            "metric runs ignore the tape, so queue stats stay reference-exact"
        );
        assert_eq!(heap, taped);
    }

    /// One policy over `tasks`, heap-driven and then taped, on one
    /// context.
    fn heap_and_taped(
        tasks: &Arc<TaskSet>,
        config: &SystemConfig,
        profile: &Arc<PiecewiseConstant>,
        policy: &mut dyn Scheduler,
    ) -> (SimResult, SimResult) {
        let mut ctx = RunContext::new();
        let mut go = |tape| {
            run_in(
                &mut ctx,
                config.clone(),
                Arc::clone(tasks),
                Arc::clone(profile),
                &mut *policy,
                Box::new(OraclePredictor::new((**profile).clone())),
                tape,
            )
            .unwrap()
        };
        let heap = go(None);
        (heap, go(Some(Arc::new(tasks.release_tape(config.horizon)))))
    }

    /// `(time, task)` of every `Released` trace event, in dispatch order.
    fn release_order(r: &SimResult) -> Vec<(SimTime, usize)> {
        r.trace
            .iter()
            .filter_map(|&(t, e)| match e {
                TraceEvent::Released { task, .. } => Some((t, task)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn taped_runs_release_every_arrival_once() {
        let tasks = Arc::new(TaskSet::new(vec![
            Task::periodic_implicit(d(10), 1.0),
            Task::periodic_implicit(d(20), 3.0),
            Task::periodic_implicit(d(30), 3.0),
        ]));
        let profile = Arc::new(PiecewiseConstant::constant(0.8));
        let config =
            SystemConfig::new(presets::xscale(), StorageSpec::ideal(30.0), d(60)).with_trace();
        let (heap, taped) = heap_and_taped(&tasks, &config, &profile, &mut EdfScheduler::new());
        let order = release_order(&taped);
        assert_eq!(order, release_order(&heap));
        // The tasks' own arrivals, each task's in time order.
        let mut want: Vec<(SimTime, usize)> = tasks
            .iter()
            .enumerate()
            .flat_map(|(i, t)| {
                t.arrivals_between(SimTime::ZERO, u(60))
                    .into_iter()
                    .map(move |a| (a, i))
            })
            .collect();
        let mut got = order.clone();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        for i in 0..tasks.len() {
            let times: Vec<SimTime> = order.iter().filter(|r| r.1 == i).map(|r| r.0).collect();
            assert!(times.is_sorted(), "task {i} releases out of order");
        }
        assert_eq!(taped.released(), release_count(&tasks, u(60).as_ticks()));
    }

    #[test]
    fn taped_releases_break_ties_by_scheduling_order_not_index() {
        // Task 0: period 5, phase 0. Task 1: period 10, phase 5. At
        // t = 5 both release, but task 1's arrival was seeded before
        // task 0's t = 5 arrival was scheduled (while handling t = 0),
        // so the heap-driven run releases task 1 first. A (time, index)
        // order would put task 0 first.
        let tasks = Arc::new(TaskSet::new(vec![
            Task::periodic(SimTime::ZERO, d(5), d(5), 1.0),
            Task::periodic(u(5), d(10), d(10), 1.0),
        ]));
        let profile = Arc::new(PiecewiseConstant::constant(0.8));
        let config =
            SystemConfig::new(presets::xscale(), StorageSpec::ideal(30.0), d(20)).with_trace();
        let (heap, taped) = heap_and_taped(&tasks, &config, &profile, &mut EdfScheduler::new());
        let want: Vec<(SimTime, usize)> = [(0, 0), (5, 1), (5, 0), (10, 0), (15, 1), (15, 0)]
            .into_iter()
            .map(|(t, i)| (u(t), i))
            .collect();
        assert_eq!(release_order(&heap), want);
        assert_eq!(release_order(&taped), want);
        assert_eq!(heap, taped);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Taped and heap-driven runs agree on everything, traces
        /// included, over hand-built task sets: whole-unit phases and
        /// periods make same-tick ties common, phases run from before 0
        /// to past the horizon, and the set mixes one-shot tasks with
        /// periodic ones whose deadlines are constrained or not.
        #[test]
        fn taped_runs_match_heap_runs_on_hand_built_sets(
            specs in proptest::collection::vec(
                (0u8..3, -4i64..=27, 1i64..=9, 1i64..=14, 0.1f64..2.0),
                1..=6,
            ),
            power in proptest::prop_oneof![
                proptest::strategy::Just(0.3),
                proptest::strategy::Just(1.0),
                proptest::strategy::Just(3.0),
            ],
            capacity in proptest::prop_oneof![
                proptest::strategy::Just(2.0),
                proptest::strategy::Just(10.0),
                proptest::strategy::Just(1e3),
            ],
            sampled in 0u8..2,
        ) {
            let tasks: Vec<Task> = specs
                .iter()
                .map(|&(kind, phase, period, deadline, wcet)| match kind {
                    0 => Task::periodic(u(phase), d(period), d(deadline.min(period)), wcet),
                    1 => Task::periodic(u(phase), d(period), d(deadline), wcet),
                    _ => Task::once(u(phase), d(deadline), wcet),
                })
                .collect();
            let tasks = Arc::new(TaskSet::new(tasks));
            let profile = Arc::new(PiecewiseConstant::constant(power));
            let mut config =
                SystemConfig::new(presets::xscale(), StorageSpec::ideal(capacity), d(24))
                    .with_trace();
            if sampled == 1 {
                config = config.with_sample_interval(d(5));
            }
            let utilization = tasks.utilization().clamp(0.05, 1.0);
            let policies: Vec<Box<dyn Scheduler>> = vec![
                Box::new(EdfScheduler::new()),
                Box::new(LazyScheduler::new()),
                Box::new(GreedyStretchScheduler::new()),
                Box::new(EaDvfsScheduler::new()),
                Box::new(StaticSlowdownScheduler::new(&config.cpu, utilization)),
            ];
            for mut policy in policies {
                let (heap, taped) = heap_and_taped(&tasks, &config, &profile, policy.as_mut());
                proptest::prop_assert_eq!(&heap, &taped, "{} diverged on {:?}", heap.scheduler, specs);
            }
        }
    }
}
