//! Batched structure-of-arrays trial engine.
//!
//! [`simulate_batch_in`] runs B sibling trials (typically the same
//! scenario at seeds `s..s+B`) through one event loop: one shared
//! [`EventQueue`] — the scalar engine's `(time, seq)` heap, with
//! `(lane, event)` payloads — interleaves every lane's events, each tick's
//! storage advances sweep the lanes as flat `f64` arrays through
//! [`StorageSpec::advance_lanes`], and deferred end-of-tick decisions
//! evaluate the paper's eq. 5–9 across lanes at once (eq. 6 through
//! [`CpuModel::min_feasible_level_lanes`]).
//!
//! Every lane is **bit-identical** to the scalar
//! [`try_simulate_in`](crate::system::try_simulate_in) run of the same
//! inputs (pinned by the `batched_parity` property suite). That holds
//! because lanes share no mutable state — per-lane storage, queue,
//! policy, and profile — so any cross-lane interleaving that preserves
//! each lane's own event order (time, then FIFO) replays the scalar
//! schedule exactly, and every floating-point expression here is a
//! verbatim replica of the scalar path.
//!
//! Divergent lanes are not approximated: a lane whose configuration the
//! lean loop cannot replicate exactly (fault plans, watchdogs, traces,
//! metrics, non-ideal or infinite storage, non-oracle predictors,
//! non-uniform profiles) is drained through the scalar
//! `try_simulate_in` instead, so a mixed batch still returns exact
//! per-lane results.

use std::mem;
use std::sync::Arc;

use harvest_cpu::{CpuModel, LevelIndex};
use harvest_energy::predictor::EnergyPredictor;
use harvest_energy::storage::{AdvanceReport, Storage, StorageLanes, StorageSpec};
use harvest_sim::event::{EventQueue, ReleaseTape};
use harvest_sim::piecewise::{PiecewiseConstant, UniformGridView};
use harvest_sim::time::{SimDuration, SimTime};
use harvest_task::job::{Job, JobId};
use harvest_task::queue::EdfQueue;
use harvest_task::taskset::TaskSet;

use crate::config::{MissPolicy, SystemConfig};
#[cfg(debug_assertions)]
use crate::policies::EaDvfsScheduler;
use crate::result::{EnergyAccounting, JobOutcome, JobRecord, SimError, SimResult};
use crate::scheduler::{Decision, SchedContext, Scheduler};
use crate::system::{try_simulate_in_taped, RunContext, ENERGY_EPS};
use crate::trace::TraceEvent;

/// One lane's inputs: the per-seed realization a scalar
/// [`try_simulate_in`](crate::system::try_simulate_in) call would take.
pub struct BatchLane {
    /// Run configuration (horizon, storage, processor, …).
    pub config: SystemConfig,
    /// The lane's task set.
    pub tasks: Arc<TaskSet>,
    /// The lane's realized harvest profile.
    pub profile: Arc<PiecewiseConstant>,
    /// The lane's `ÊS` estimator.
    pub predictor: Box<dyn EnergyPredictor>,
    /// Precomputed release timeline for this lane's task set (built by
    /// [`TaskSet::release_tape`]); `None` runs releases through the
    /// shared heap. Policy-lockstep lanes share one tape `Arc`.
    pub tape: Option<Arc<ReleaseTape>>,
}

impl std::fmt::Debug for BatchLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BatchLane")
            .field("config", &self.config)
            .field("tasks", &self.tasks.len())
            .field("predictor", &self.predictor.name())
            .finish()
    }
}

/// A lane-local event; the batched mirror of the scalar simulator's
/// event vocabulary (faults are handled by the scalar fallback, so no
/// `FaultEdge` arm exists here).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LaneEvent {
    Arrival { task: u32 },
    DeadlineCheck { job: JobId },
    Reevaluate { epoch: u64 },
    Sample,
}

/// Reusable slabs of the batched engine. One per worker, beside its
/// [`RunContext`]; [`simulate_batch_in`] borrows both. Everything here
/// is cleared, never dropped, between cells, so steady-state batched
/// sweeps allocate O(1) slabs per cell (not per lane) — only the
/// per-lane result buffers (job records, samples, level residency) are
/// fresh, because they are moved into the returned [`SimResult`]s.
#[derive(Debug, Default)]
pub struct BatchContext {
    /// The shared event queue, keyed `(time, schedule seq)` like the
    /// scalar engine's, so two events of the same lane at the same tick
    /// pop in FIFO order — exactly the scalar tie-break — while events
    /// of different lanes interleave arbitrarily (harmless: lanes share
    /// no state). Payloads are `(lane, event)`.
    heap: EventQueue<(u32, LaneEvent)>,
    /// One tick's events as `(seq, lane, event)`, in schedule (seq)
    /// order — heap pops plus the taped lanes' release heads.
    scratch: Vec<(u32, u32, LaneEvent)>,
    /// Per-lane EDF ready queues (allocation reused across batches).
    queues: Vec<EdfQueue>,
    /// SoA storage state for the vectorized per-tick advance.
    soa: StorageLanes,
    /// Gather arrays for the single-segment sync fast path.
    sync_lanes: Vec<u32>,
    sync_from: Vec<SimTime>,
    sync_harvest: Vec<f64>,
    sync_dt: Vec<f64>,
    sync_load: Vec<f64>,
    /// Per-lane "already gathered this tick" flags.
    in_sync: Vec<bool>,
    /// Index of each lane's last event in `scratch`.
    last_of: Vec<u32>,
    /// Lanes whose end-of-tick decision was deferred to the group stage.
    deferred: Vec<u32>,
    /// Gather arrays for the lane-vectorized EA-DVFS evaluation.
    gd_lanes: Vec<u32>,
    gd_deadline: Vec<SimTime>,
    gd_avail: Vec<f64>,
    gd_work: Vec<f64>,
    gd_window: Vec<f64>,
    gd_out: Vec<Option<LevelIndex>>,
}

impl BatchContext {
    /// Creates an empty context; the first batch populates its slabs.
    pub fn new() -> Self {
        BatchContext::default()
    }
}

/// Batch-uniform parameters of the lean path, hoisted out of the
/// per-lane state: every lean lane shares these (enforced by the
/// eligibility screen), which is what lets one [`StorageSpec`] sweep
/// the lane arrays and one [`CpuModel`] answer the level searches.
struct Shared {
    cpu: CpuModel,
    spec: StorageSpec,
    cap: f64,
    miss_policy: MissPolicy,
    restart_quantum: f64,
    sample_interval: Option<SimDuration>,
    horizon: SimDuration,
    horizon_end: SimTime,
}

/// The batched mirror of the scalar `RunState`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LaneRun {
    Idle,
    Stalled,
    Running { job: JobId, level: usize },
}

/// All mutable per-lane state of the lean loop.
struct LaneState {
    /// Index into the caller's lane/policy slices.
    orig: usize,
    tasks: Arc<TaskSet>,
    profile: Arc<PiecewiseConstant>,
    /// Kept for the debug cross-check and for symmetry with the scalar
    /// path; the lean loop itself computes oracle predictions straight
    /// off the uniform grid (bit-identical, pinned by the grid tests).
    predictor: Box<dyn EnergyPredictor>,
    /// Evaluate decisions through the lane-vectorized EA-DVFS replica.
    ea: bool,
    level: f64,
    state: LaneRun,
    last_sync: SimTime,
    epoch: u64,
    next_job_id: u64,
    records: Vec<JobRecord>,
    energy: EnergyAccounting,
    last_level: Option<usize>,
    switches: u64,
    level_time: Vec<f64>,
    idle_time: f64,
    stall_time: f64,
    samples: Vec<(SimTime, f64)>,
    /// Trace emissions per [`TraceEvent::kind_index`]; the counting-sink
    /// totals of the scalar path (which never retains records either on
    /// the sweep path).
    kinds: [u64; TraceEvent::KIND_COUNT],
    handled: u64,
    /// The head job finished during this tick's pre-sync; consumed by
    /// the lane's first event of the tick (the scalar `handle` computes
    /// the same flag per event, provably false after the first).
    completed_in_sync: bool,
    /// Precomputed release timeline; `None` runs releases through the
    /// shared heap.
    tape: Option<Arc<ReleaseTape>>,
    /// Index of the lane's next unconsumed tape entry.
    tape_next: usize,
    /// Virtual sequence number of each task's next pending release
    /// (meaningful only on taped lanes).
    pending_vseq: Vec<u32>,
    /// Whether deadline checks ride the side stream too (taped lanes
    /// with constrained deadlines only — see the scalar `TapeCursor`).
    elide_deadlines: bool,
    /// Per-task pending deadline check `(ticks, seq, job)`.
    deadline_slots: Vec<Option<(i64, u32, u64)>>,
    /// Cached minimum `(ticks, seq, task)` over the occupied slots.
    deadline_min: Option<(i64, u32, u32)>,
}

impl LaneState {
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

    #[inline]
    fn pop_min_deadline(&mut self) -> u64 {
        let (_, _, task) = self.deadline_min.expect("popping an empty deadline stream");
        let (_, _, job) = self.deadline_slots[task as usize]
            .take()
            .expect("cached minimum points at an occupied slot");
        self.deadline_min = self
            .deadline_slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|(t, q, _)| (t, q, i as u32)))
            .min();
        job
    }
}

/// The shared event queue behind a horizon filter: events at or past
/// the horizon are dropped at the source (the scalar engine queues but
/// never handles them).
struct Sink<'a> {
    heap: &'a mut EventQueue<(u32, LaneEvent)>,
    horizon_ticks: i64,
}

impl Sink<'_> {
    #[inline]
    fn sched(&mut self, lane: u32, t: SimTime, event: LaneEvent) {
        if t.as_ticks() >= self.horizon_ticks {
            return;
        }
        self.heap.schedule(t, (lane, event));
    }

    /// The taped mirror of a [`Self::sched`] for an elided event class
    /// (releases, deadline checks): claims the sequence number the push
    /// would have consumed, or `None` when the horizon filter would
    /// have dropped the event (and with it the allocation).
    #[inline]
    fn alloc_elided(&mut self, t: SimTime) -> Option<u32> {
        if t.as_ticks() >= self.horizon_ticks {
            None
        } else {
            Some(self.heap.alloc_seq())
        }
    }
}

/// Whether one lane can run on the lean batched loop at all. Everything
/// the lean loop does not replicate exactly — fault plans, watchdog
/// aborts, retained traces, metrics/profiling, non-ideal or infinite
/// storage, DVFS switch time, non-uniform or non-Hold profiles, and
/// non-oracle predictors (whose `observe` stream the fused sync walk
/// skips) — routes the lane to the scalar fallback.
fn lane_screen(lane: &BatchLane, oracle: bool) -> bool {
    let c = &lane.config;
    oracle
        && c.fault_plan.as_ref().is_none_or(|p| p.is_empty())
        && c.watchdog.is_none()
        && !c.collect_trace
        && !c.collect_metrics
        && !c.profile
        && c.cpu.switch_overhead().is_zero()
        && c.storage.is_ideal()
        && c.storage.capacity().is_finite()
        && lane.profile.uniform_grid().is_some()
}

/// How the lanes of one batch relate to each other. The engine itself
/// is agnostic — lanes share no mutable state either way — but the
/// retention statistics keep the two shapes apart: a sibling-seed batch
/// and a policy-lockstep batch of the same width have very different
/// synchrony (lockstep lanes share their release timeline exactly), so
/// folding both into one high-water mark would hide which shape a sweep
/// actually ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchGrouping {
    /// Lanes are sibling seeds of one (scenario, policy) cell.
    #[default]
    SiblingSeed,
    /// Lanes are policy arms of one (scenario, seed) cell.
    PolicyLockstep,
}

/// Whether a screened lane shares the batch-uniform parameters of the
/// first screened lane (sibling trials of one scenario always do).
fn lane_uniform(c: &SystemConfig, first: &SystemConfig) -> bool {
    c.cpu == first.cpu
        && c.storage == first.storage
        && c.miss_policy == first.miss_policy
        && c.restart_quantum == first.restart_quantum
        && c.sample_interval == first.sample_interval
        && c.horizon == first.horizon
}

/// Runs a batch of lanes, each bit-identical to the scalar
/// [`try_simulate_in`](crate::system::try_simulate_in) run of the same
/// inputs, returning one result per lane in order.
///
/// `oracle` declares that every predictor is the zero-state oracle over
/// its lane's profile (`observe` is a no-op and `predict_energy(a, b)`
/// is the exact profile integral): only then may the lean loop skip the
/// predictor entirely. Lanes that fail the eligibility screen — or
/// non-`oracle` batches wholesale — fall back to the scalar path per
/// lane; results are exact either way.
///
/// Policy counters (e.g. the EA-DVFS decision-class tallies) are not
/// maintained on the lean path: they are unobservable without
/// `collect_metrics` (which routes to the fallback) and every entry
/// point resets the policy before running. Lanes whose policy is named
/// `ea-dvfs` are evaluated through the lane-vectorized replica of
/// [`EaDvfsScheduler`] and cross-checked against it in debug builds;
/// other policies are consulted per lane through the ordinary
/// [`SchedContext`].
///
/// # Panics
///
/// Panics if `lanes` and `policies` lengths differ, or on the same
/// invalid-configuration conditions as the scalar path.
pub fn simulate_batch_in(
    batch: &mut BatchContext,
    ctx: &mut RunContext,
    lanes: Vec<BatchLane>,
    policies: &mut [Box<dyn Scheduler>],
    oracle: bool,
) -> Vec<Result<SimResult, SimError>> {
    simulate_batch_grouped_in(
        batch,
        ctx,
        lanes,
        policies,
        oracle,
        BatchGrouping::SiblingSeed,
    )
}

/// [`simulate_batch_in`] with an explicit [`BatchGrouping`]: identical
/// execution, but policy-lockstep batches account their occupancy into
/// the lockstep-specific [`PoolStats`](crate::system::PoolStats) fields
/// instead of the sibling-seed high-water mark.
pub fn simulate_batch_grouped_in(
    batch: &mut BatchContext,
    ctx: &mut RunContext,
    lanes: Vec<BatchLane>,
    policies: &mut [Box<dyn Scheduler>],
    oracle: bool,
    grouping: BatchGrouping,
) -> Vec<Result<SimResult, SimError>> {
    assert_eq!(
        lanes.len(),
        policies.len(),
        "one policy per lane is required"
    );
    let shared_cfg = lanes
        .iter()
        .find(|l| lane_screen(l, oracle))
        .map(|l| l.config.clone());
    let mut results: Vec<Option<Result<SimResult, SimError>>> =
        (0..lanes.len()).map(|_| None).collect();
    let mut lean: Vec<LaneState> = Vec::with_capacity(lanes.len());
    for (i, lane) in lanes.into_iter().enumerate() {
        let eligible = match &shared_cfg {
            Some(first) => lane_screen(&lane, oracle) && lane_uniform(&lane.config, first),
            None => false,
        };
        if eligible {
            let cap = lane.config.storage.capacity();
            let initial = lane.config.initial_level.unwrap_or(cap);
            assert!(
                initial >= 0.0 && initial <= cap,
                "initial level {initial} outside [0, {cap}]"
            );
            let level_count = lane.config.cpu.level_count();
            if let Some(t) = &lane.tape {
                assert_eq!(
                    t.horizon_ticks(),
                    lane.config.horizon.as_ticks(),
                    "release tape was built for a different horizon"
                );
                assert_eq!(
                    t.task_count(),
                    lane.tasks.len(),
                    "release tape was built for a different task set"
                );
            }
            // Arrivals are periodic from each task's phase, so the job
            // count is known up front: one exact-size slab instead of a
            // realloc chain while the log grows. A tape carries the
            // exact count.
            let jobs_hint = match &lane.tape {
                Some(t) => t.len(),
                None => {
                    let horizon_ticks = lane.config.horizon.as_ticks();
                    let mut hint = 0usize;
                    for task in lane.tasks.iter() {
                        let phase = task.phase().as_ticks();
                        if phase < 0 || phase >= horizon_ticks {
                            continue;
                        }
                        hint += match task.period() {
                            Some(p) if p.as_ticks() > 0 => {
                                ((horizon_ticks - 1 - phase) / p.as_ticks() + 1) as usize
                            }
                            _ => 1,
                        };
                    }
                    hint
                }
            };
            policies[i].reset();
            let pending_vseq = match &lane.tape {
                Some(_) => vec![0; lane.tasks.len()],
                None => Vec::new(),
            };
            let elide_deadlines = lane.tape.is_some()
                && lane
                    .tasks
                    .iter()
                    .all(|t| t.period().is_none_or(|p| t.relative_deadline() <= p));
            let deadline_slots = if elide_deadlines {
                vec![None; lane.tasks.len()]
            } else {
                Vec::new()
            };
            lean.push(LaneState {
                orig: i,
                tasks: lane.tasks,
                profile: lane.profile,
                predictor: lane.predictor,
                ea: policies[i].name() == "ea-dvfs",
                level: initial,
                state: LaneRun::Idle,
                last_sync: SimTime::ZERO,
                epoch: 0,
                next_job_id: 0,
                records: Vec::with_capacity(jobs_hint),
                energy: EnergyAccounting {
                    initial_level: initial,
                    ..EnergyAccounting::default()
                },
                last_level: None,
                switches: 0,
                level_time: vec![0.0; level_count],
                idle_time: 0.0,
                stall_time: 0.0,
                samples: Vec::new(),
                kinds: [0; TraceEvent::KIND_COUNT],
                handled: 0,
                completed_in_sync: false,
                tape: lane.tape,
                tape_next: 0,
                pending_vseq,
                elide_deadlines,
                deadline_slots,
                deadline_min: None,
            });
        } else {
            // The scalar fallback honors the tape too (and self-gates
            // on metric runs).
            results[i] = Some(try_simulate_in_taped(
                ctx,
                lane.config,
                lane.tasks,
                lane.profile,
                policies[i].as_mut(),
                lane.predictor,
                lane.tape,
            ));
        }
    }
    if !lean.is_empty() {
        let shared_cfg = shared_cfg.expect("lean lanes imply a screened config");
        let shared = Shared {
            cap: shared_cfg.storage.capacity(),
            spec: shared_cfg.storage,
            miss_policy: shared_cfg.miss_policy,
            restart_quantum: shared_cfg.restart_quantum,
            sample_interval: shared_cfg.sample_interval,
            horizon: shared_cfg.horizon,
            horizon_end: SimTime::ZERO + shared_cfg.horizon,
            cpu: shared_cfg.cpu,
        };
        let count = lean.len() as u64;
        let tally = run_lean_batch(batch, &shared, &mut lean, policies, &mut results);
        let stats = ctx.stats_mut();
        stats.runs += count;
        stats.batched_runs += count;
        stats.batch_ticks += tally.ticks;
        stats.multi_lane_ticks += tally.multi_lane_ticks;
        match grouping {
            BatchGrouping::SiblingSeed => {
                stats.batch_lane_high_water = stats.batch_lane_high_water.max(count);
            }
            BatchGrouping::PolicyLockstep => {
                stats.policy_batched_runs += count;
                stats.batch_policy_lane_high_water = stats.batch_policy_lane_high_water.max(count);
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every lane produced a result"))
        .collect()
}

/// Per-batch synchrony tallies of one lean run, folded into
/// [`PoolStats`](crate::system::PoolStats) by the caller.
#[derive(Debug, Default, Clone, Copy)]
struct LeanTally {
    /// Distinct instants the lean loop processed.
    ticks: u64,
    /// Instants on which more than one lane had an event (the batch's
    /// cross-lane stages actually amortized work).
    multi_lane_ticks: u64,
}

/// The lean fused loop over the eligible lanes. Fills `results` at each
/// lane's original index.
fn run_lean_batch(
    batch: &mut BatchContext,
    sh: &Shared,
    lanes: &mut [LaneState],
    policies: &mut [Box<dyn Scheduler>],
    results: &mut [Option<Result<SimResult, SimError>>],
) -> LeanTally {
    let BatchContext {
        heap,
        scratch,
        queues,
        soa,
        sync_lanes,
        sync_from,
        sync_harvest,
        sync_dt,
        sync_load,
        in_sync,
        last_of,
        deferred,
        gd_lanes,
        gd_deadline,
        gd_avail,
        gd_work,
        gd_window,
        gd_out,
    } = batch;
    heap.reset();
    if queues.len() < lanes.len() {
        queues.resize_with(lanes.len(), EdfQueue::new);
    }
    in_sync.clear();
    in_sync.resize(lanes.len(), false);
    last_of.clear();
    last_of.resize(lanes.len(), 0);
    let mut sink = Sink {
        heap,
        horizon_ticks: sh.horizon_end.as_ticks(),
    };

    // One grid view per lane, built once: every profile lookup below
    // indexes through these instead of re-deriving a view (and bumping
    // the profile `Arc`) at each use site.
    let profiles: Vec<Arc<PiecewiseConstant>> =
        lanes.iter().map(|l| Arc::clone(&l.profile)).collect();
    let grids: Vec<UniformGridView<'_>> = profiles
        .iter()
        .map(|p| p.uniform_grid().expect("screened uniform grid"))
        .collect();

    // Seed first arrivals and the sampling grid, lane-sequentially: the
    // global seq preserves each lane's scalar seeding order. Taped
    // lanes claim each first release's sequence number instead of
    // pushing it.
    for li in 0..lanes.len() {
        debug_assert!(queues[li].is_empty(), "pooled ready queue must be cleared");
        let taped = lanes[li].tape.is_some();
        let tasks = Arc::clone(&lanes[li].tasks);
        for (i, task) in tasks.iter().enumerate() {
            let phase = task.phase();
            if phase >= SimTime::ZERO && phase < sh.horizon_end {
                if taped {
                    lanes[li].pending_vseq[i] = sink.heap.alloc_seq();
                } else {
                    sink.sched(li as u32, phase, LaneEvent::Arrival { task: i as u32 });
                }
            }
        }
        if sh.sample_interval.is_some() {
            sink.sched(li as u32, SimTime::ZERO, LaneEvent::Sample);
        }
    }

    let has_tape = lanes.iter().any(|l| l.tape.is_some());
    let mut tally = LeanTally::default();
    loop {
        // The next instant is the earliest of the heap top and every
        // taped lane's release head (an O(B) scan, paid only by taped
        // batches).
        let mut next = sink.heap.peek_time().map(SimTime::as_ticks);
        if has_tape {
            for lane in lanes.iter() {
                if let Some(e) = lane
                    .tape
                    .as_deref()
                    .and_then(|t| t.entries().get(lane.tape_next))
                {
                    next = Some(match next {
                        Some(t) => t.min(e.ticks),
                        None => e.ticks,
                    });
                }
                if let Some((t, _, _)) = lane.deadline_min {
                    next = Some(match next {
                        Some(n) => n.min(t),
                        None => t,
                    });
                }
            }
        }
        let Some(now_ticks) = next else { break };
        let now = SimTime::from_ticks(now_ticks);
        tally.ticks += 1;
        // Collect the tick: every tape head at this instant (each
        // carrying its pre-claimed virtual seq — always allocated at or
        // before `now - period`, so valid here), then every heap event.
        scratch.clear();
        let mut side_events = 0usize;
        if has_tape {
            for (li, lane) in lanes.iter_mut().enumerate() {
                while let Some((t, seq, _)) = lane.deadline_min {
                    if t != now_ticks {
                        break;
                    }
                    let job = lane.pop_min_deadline();
                    scratch.push((seq, li as u32, LaneEvent::DeadlineCheck { job: JobId(job) }));
                    side_events += 1;
                }
                while let Some(e) = lane
                    .tape
                    .as_deref()
                    .and_then(|t| t.entries().get(lane.tape_next))
                    .copied()
                    .filter(|e| e.ticks == now_ticks)
                {
                    scratch.push((
                        lane.pending_vseq[e.task as usize],
                        li as u32,
                        LaneEvent::Arrival { task: e.task },
                    ));
                    lane.tape_next += 1;
                    side_events += 1;
                }
            }
        }
        while let Some((_, seq)) = sink.heap.peek_key().filter(|&(t, _)| t == now) {
            let (_, (lane, event)) = sink.heap.pop().expect("peeked event pops");
            scratch.push((seq, lane, event));
        }
        // Heap pops arrive seq-sorted, but side events (deadline slots,
        // tape heads) from several per-lane streams may interleave with
        // them and each other; restore the merge order exactly when the
        // gather broke it.
        if side_events > 0 && scratch.len() > 1 && !scratch.windows(2).all(|w| w[0].0 <= w[1].0) {
            scratch.sort_unstable_by_key(|&(seq, _, _)| seq);
        }
        // Single-event fast path: most ticks carry exactly one event
        // (sibling seeds rarely share a tick), and every cross-lane
        // stage below would gather exactly one lane. Run the scalar
        // per-event sequence directly — the same op stream, minus the
        // batch bookkeeping (gather arrays, SoA round-trip, group
        // stage).
        if scratch.len() == 1 {
            let (_, le, event) = scratch[0];
            let li = le as usize;
            sync_walk(sh, &mut lanes[li], &mut queues[li], &grids[li], now);
            let need_decide = handle_event(
                sh,
                &mut lanes[li],
                &mut queues[li],
                &mut sink,
                le,
                now,
                event,
            );
            if need_decide {
                let orig = lanes[li].orig;
                decide_lane(
                    sh,
                    &mut lanes[li],
                    &mut queues[li],
                    &grids[li],
                    policies[orig].as_mut(),
                    &mut sink,
                    le,
                    now,
                );
            }
            continue;
        }
        // Single-lane tick: same inline sequence as above, per event.
        if scratch.iter().all(|&(_, le, _)| le == scratch[0].1) {
            let le = scratch[0].1;
            let li = le as usize;
            sync_walk(sh, &mut lanes[li], &mut queues[li], &grids[li], now);
            for &(_, _, event) in scratch.iter() {
                let need_decide = handle_event(
                    sh,
                    &mut lanes[li],
                    &mut queues[li],
                    &mut sink,
                    le,
                    now,
                    event,
                );
                if need_decide {
                    let orig = lanes[li].orig;
                    decide_lane(
                        sh,
                        &mut lanes[li],
                        &mut queues[li],
                        &grids[li],
                        policies[orig].as_mut(),
                        &mut sink,
                        le,
                        now,
                    );
                }
            }
            continue;
        }

        tally.multi_lane_ticks += 1;
        for (i, &(_, le, _)) in scratch.iter().enumerate() {
            last_of[le as usize] = i as u32;
        }

        // Pre-sync every lane with an event this tick. Lanes whose whole
        // window sits in one profile segment advance together through
        // the SoA lane sweep; multi-segment windows take the fused walk.
        // Either way the arithmetic is the scalar `advance_with` op
        // sequence per lane, so the interleaving is unobservable.
        sync_lanes.clear();
        sync_from.clear();
        sync_harvest.clear();
        sync_dt.clear();
        sync_load.clear();
        for &(_, le, _) in scratch.iter() {
            let li = le as usize;
            if in_sync[li] {
                continue;
            }
            let lane = &mut lanes[li];
            if lane.last_sync >= now {
                continue;
            }
            in_sync[li] = true;
            let from = lane.last_sync;
            let load = match lane.state {
                LaneRun::Running { level, .. } => sh.cpu.power(level),
                LaneRun::Idle | LaneRun::Stalled => sh.cpu.idle_power(),
            };
            let grid = &grids[li];
            let single = match grid.next_breakpoint_after(from) {
                None => true,
                Some(b) => b >= now,
            };
            if single {
                let dt = (now - from).as_units();
                let value = grid.value_at(from);
                // The window is the one clipped segment, so this is the
                // scalar accounting loop's single `seg.integral()` add.
                lane.energy.harvested += value * dt;
                sync_lanes.push(le);
                sync_from.push(from);
                sync_harvest.push(value);
                sync_dt.push(dt);
                sync_load.push(load);
            } else {
                sync_walk(sh, lane, &mut queues[li], grid, now);
            }
        }
        if !sync_lanes.is_empty() {
            soa.reset(sync_lanes.len(), 0.0);
            for (slot, &li) in sync_lanes.iter().enumerate() {
                soa.set_level(slot, lanes[li as usize].level);
            }
            let reports = soa.begin_advance();
            sh.spec
                .advance_lanes(reports, sync_harvest, sync_dt, sync_load);
            for (slot, &li) in sync_lanes.iter().enumerate() {
                let report = soa.reports()[slot];
                finish_sync(
                    sh,
                    &mut lanes[li as usize],
                    &mut queues[li as usize],
                    &report,
                    sync_from[slot],
                    now,
                );
            }
        }
        for &(_, le, _) in scratch.iter() {
            in_sync[le as usize] = false;
        }

        // Handle the tick's events in seq order. A lane's decision is
        // deferred to the cross-lane group stage only from its *last*
        // event of the tick: no later same-tick event of that lane can
        // observe the pre-decision state (events never self-schedule at
        // the current tick, so the batch is complete), and other lanes
        // share nothing. Earlier decisions run inline, exactly where the
        // scalar loop runs them.
        deferred.clear();
        for (i, &(_, le, event)) in scratch.iter().enumerate() {
            let li = le as usize;
            let need_decide = handle_event(
                sh,
                &mut lanes[li],
                &mut queues[li],
                &mut sink,
                le,
                now,
                event,
            );
            if need_decide {
                if last_of[li] == i as u32 {
                    deferred.push(le);
                } else {
                    let orig = lanes[li].orig;
                    decide_lane(
                        sh,
                        &mut lanes[li],
                        &mut queues[li],
                        &grids[li],
                        policies[orig].as_mut(),
                        &mut sink,
                        le,
                        now,
                    );
                }
            }
        }

        // Group decision stage: EA-DVFS lanes gather into arrays and
        // share one lane-vectorized eq. 6 search; other policies are
        // consulted per lane.
        gd_lanes.clear();
        gd_deadline.clear();
        gd_avail.clear();
        gd_work.clear();
        gd_window.clear();
        for &le in deferred.iter() {
            let li = le as usize;
            let lane = &mut lanes[li];
            lane.epoch += 1;
            let queue = &mut queues[li];
            if queue.is_empty() {
                lane.state = LaneRun::Idle;
                continue;
            }
            if lane.ea {
                let head = queue.peek().expect("non-empty queue");
                let d = head.absolute_deadline();
                let work = head.remaining_work();
                gd_lanes.push(le);
                gd_deadline.push(d);
                gd_avail.push(lane.level + oracle_predict(&grids[li], now, d));
                gd_work.push(work);
                gd_window.push((d - now).as_units());
            } else {
                let decision = {
                    let head = queue.peek().expect("non-empty queue");
                    let storage = Storage::new(sh.spec, lane.level);
                    let sctx =
                        SchedContext::new(now, head, &sh.cpu, &storage, lane.predictor.as_ref());
                    policies[lane.orig].decide(&sctx)
                };
                act(sh, lane, queue, &grids[li], &mut sink, le, now, decision);
            }
        }
        if !gd_lanes.is_empty() {
            gd_out.clear();
            gd_out.resize(gd_lanes.len(), None);
            sh.cpu.min_feasible_level_lanes(gd_work, gd_window, gd_out);
            for slot in 0..gd_lanes.len() {
                let le = gd_lanes[slot];
                let li = le as usize;
                let decision =
                    ea_decide_from(sh, now, gd_deadline[slot], gd_avail[slot], gd_out[slot]);
                debug_check_ea(sh, &lanes[li], &queues[li], now, decision);
                act(
                    sh,
                    &mut lanes[li],
                    &mut queues[li],
                    &grids[li],
                    &mut sink,
                    le,
                    now,
                    decision,
                );
            }
        }
    }
    // Settle each lane at the horizon and extract its result.
    for (li, lane) in lanes.iter_mut().enumerate() {
        sync_walk(sh, lane, &mut queues[li], &grids[li], sh.horizon_end);
        lane.energy.final_level = lane.level;
        for rec in &mut lane.records {
            if matches!(rec.outcome, JobOutcome::Pending) && rec.deadline <= sh.horizon_end {
                rec.outcome = JobOutcome::Missed { completed: None };
            }
        }
        queues[li].clear();
        let trace_kind_counts = lane.kinds.to_vec();
        let trace_events = lane.kinds.iter().sum();
        results[lane.orig] = Some(Ok(SimResult {
            scheduler: policies[lane.orig].name().to_owned(),
            horizon: sh.horizon,
            jobs: mem::take(&mut lane.records),
            energy: lane.energy,
            switches: lane.switches,
            events: lane.handled,
            trace_events,
            trace_kind_counts,
            level_time: mem::take(&mut lane.level_time),
            idle_time: lane.idle_time,
            stall_time: lane.stall_time,
            samples: mem::take(&mut lane.samples),
            trace: Vec::new(),
            metrics: None,
            profile: None,
        }));
    }
    tally
}

/// Tallies one trace emission (the counting-sink arm of the scalar
/// `trace_event`; the lean loop never retains records).
#[inline]
fn bump(lane: &mut LaneState, event: TraceEvent) {
    lane.kinds[event.kind_index()] += 1;
}

/// The exact oracle prediction: [`harvest_energy::predictor::OraclePredictor`]
/// answers `predict_energy(from, until)` with the profile integral (its
/// cursor is a pure accelerator), and the grid integral is pinned
/// bit-identical to the cursor path.
#[inline]
fn oracle_predict(grid: &UniformGridView<'_>, from: SimTime, until: SimTime) -> f64 {
    if until <= from {
        0.0
    } else {
        grid.integrate(from, until)
    }
}

/// Storage-advance epilogue shared by both sync paths: fold the report
/// into the accounting and advance job progress — the scalar `sync_to`
/// tail, verbatim.
fn finish_sync(
    sh: &Shared,
    lane: &mut LaneState,
    queue: &mut EdfQueue,
    report: &AdvanceReport,
    from: SimTime,
    now: SimTime,
) {
    lane.level = report.level;
    lane.energy.consumed += report.delivered;
    lane.energy.overflow += report.overflow;
    lane.energy.deficit += report.deficit;
    let span = (now - from).as_units();
    match lane.state {
        LaneRun::Running { job, level } => {
            lane.level_time[level] += span;
            let speed = sh.cpu.speed(level);
            let head = queue
                .peek_mut()
                .expect("running state implies a queued head job");
            debug_assert_eq!(head.id(), job, "running job must be the EDF head");
            head.execute(speed, now - from);
            lane.records[job.0 as usize].energy += report.delivered;
            if head.is_finished() {
                let done = queue.pop().expect("head exists");
                finish_job(lane, now, &done);
                lane.state = LaneRun::Idle;
                lane.completed_in_sync = true;
            }
        }
        LaneRun::Idle => lane.idle_time += span,
        LaneRun::Stalled => {
            lane.idle_time += span;
            lane.stall_time += span;
        }
    }
    lane.last_sync = now;
}

/// Advances one lane's continuous state to `now` with a fused walk over
/// the profile grid: per segment, one `advance_constant` step plus the
/// harvested-energy add — the same per-accumulator op sequences as the
/// scalar `advance_with` + accounting loop (`observe` is the oracle
/// no-op on this path).
fn sync_walk(
    sh: &Shared,
    lane: &mut LaneState,
    queue: &mut EdfQueue,
    grid: &UniformGridView<'_>,
    now: SimTime,
) {
    if now <= lane.last_sync {
        return;
    }
    let from = lane.last_sync;
    let load = match lane.state {
        LaneRun::Running { level, .. } => sh.cpu.power(level),
        LaneRun::Idle | LaneRun::Stalled => sh.cpu.idle_power(),
    };
    debug_assert!(lane.level >= 0.0 && lane.level <= sh.cap);
    let mut report = AdvanceReport {
        level: lane.level,
        ..AdvanceReport::default()
    };
    let harvested = &mut lane.energy.harvested;
    grid.for_each_segment(from, now, |seg| {
        sh.spec
            .advance_constant(&mut report, seg.value, seg.duration().as_units(), load);
        *harvested += seg.integral();
    });
    finish_sync(sh, lane, queue, &report, from, now);
}

/// Handles one lane event — the scalar engine's event dispatch,
/// verbatim — returning whether the scalar loop would consult the
/// policy afterwards (a completion observed during the preceding sync
/// also forces a decision, exactly as the scalar `sync_to` does).
#[inline]
fn handle_event(
    sh: &Shared,
    lane: &mut LaneState,
    queue: &mut EdfQueue,
    sink: &mut Sink,
    le: u32,
    now: SimTime,
    event: LaneEvent,
) -> bool {
    let completed = mem::take(&mut lane.completed_in_sync);
    let mut need_decide = completed;
    match event {
        LaneEvent::Arrival { task } => {
            release_job(lane, queue, sink, le, now, task as usize);
            need_decide = true;
        }
        LaneEvent::DeadlineCheck { job } => {
            let contained = queue.contains(job);
            handle_deadline(sh, lane, queue, job);
            if contained {
                need_decide = true;
            }
        }
        LaneEvent::Reevaluate { epoch } => {
            if epoch == lane.epoch {
                need_decide = true;
            }
        }
        LaneEvent::Sample => {
            let level = lane.level;
            lane.samples.push((now, level));
            if let Some(dt) = sh.sample_interval {
                sink.sched(le, now + dt, LaneEvent::Sample);
            }
        }
    }
    lane.handled += 1;
    need_decide
}

/// The scalar `release_job`, against lane-local state.
fn release_job(
    lane: &mut LaneState,
    queue: &mut EdfQueue,
    sink: &mut Sink,
    le: u32,
    now: SimTime,
    task_index: usize,
) {
    let tasks = Arc::clone(&lane.tasks);
    let task = &tasks.tasks()[task_index];
    let id = JobId(lane.next_job_id);
    lane.next_job_id += 1;
    let deadline = now + task.relative_deadline();
    let job =
        Job::new(id, task_index, now, deadline, task.wcet()).with_actual_work(task.actual_work());
    lane.records.push(JobRecord {
        id,
        task_index,
        arrival: now,
        deadline,
        wcet: task.wcet(),
        outcome: JobOutcome::Pending,
        energy: 0.0,
    });
    bump(
        lane,
        TraceEvent::Released {
            job: id,
            task: task_index,
            deadline,
        },
    );
    queue.push(job);
    if lane.elide_deadlines {
        // The check parks in the task's slot instead of the shared
        // heap; the claim mirrors the push's horizon filter.
        if let Some(seq) = sink.alloc_elided(deadline) {
            lane.push_deadline(task_index, deadline.as_ticks(), seq, id.0);
        }
    } else {
        sink.sched(le, deadline, LaneEvent::DeadlineCheck { job: id });
    }
    if let Some(period) = task.period() {
        if lane.tape.is_some() {
            // The successor release lives on the tape; claim the seq
            // the push would have taken (unless the horizon filter
            // would have dropped both).
            if let Some(vseq) = sink.alloc_elided(now + period) {
                lane.pending_vseq[task_index] = vseq;
            }
        } else {
            sink.sched(
                le,
                now + period,
                LaneEvent::Arrival {
                    task: task_index as u32,
                },
            );
        }
    }
}

/// The scalar `handle_deadline`, against lane-local state.
fn handle_deadline(sh: &Shared, lane: &mut LaneState, queue: &mut EdfQueue, job: JobId) {
    if !queue.contains(job) {
        return;
    }
    if !matches!(lane.records[job.0 as usize].outcome, JobOutcome::Pending) {
        return;
    }
    lane.records[job.0 as usize].outcome = JobOutcome::Missed { completed: None };
    bump(lane, TraceEvent::Missed { job });
    if sh.miss_policy == MissPolicy::AbortAtDeadline {
        let was_running = matches!(lane.state, LaneRun::Running { job: j, .. } if j == job);
        queue.remove(job).expect("checked contains");
        if was_running {
            lane.state = LaneRun::Idle;
        }
    }
}

/// The scalar `finish_job`, against lane-local state.
fn finish_job(lane: &mut LaneState, now: SimTime, job: &Job) {
    let id = job.id();
    match lane.records[id.0 as usize].outcome {
        JobOutcome::Pending => {
            lane.records[id.0 as usize].outcome = JobOutcome::Completed { at: now };
            bump(lane, TraceEvent::Completed { job: id });
        }
        JobOutcome::Missed { completed: None } => {
            lane.records[id.0 as usize].outcome = JobOutcome::Missed {
                completed: Some(now),
            };
            bump(lane, TraceEvent::Completed { job: id });
        }
        ref other => unreachable!("finishing a job in state {other:?}"),
    }
}

/// One inline decision: the scalar `decide` (epoch bump, policy
/// consult, action) for a single lane.
#[allow(clippy::too_many_arguments)] // mirrors the scalar decide's context, split per lane
fn decide_lane(
    sh: &Shared,
    lane: &mut LaneState,
    queue: &mut EdfQueue,
    grid: &UniformGridView<'_>,
    policy: &mut dyn Scheduler,
    sink: &mut Sink,
    le: u32,
    now: SimTime,
) {
    lane.epoch += 1;
    if queue.is_empty() {
        lane.state = LaneRun::Idle;
        return;
    }
    let decision = if lane.ea {
        let head = queue.peek().expect("non-empty queue");
        let d = head.absolute_deadline();
        let window = (d - now).as_units();
        let avail = lane.level + oracle_predict(grid, now, d);
        let feasible = sh.cpu.min_feasible_level(head.remaining_work(), window);
        let decision = ea_decide_from(sh, now, d, avail, feasible);
        debug_check_ea(sh, lane, queue, now, decision);
        decision
    } else {
        let head = queue.peek().expect("non-empty queue");
        let storage = Storage::new(sh.spec, lane.level);
        let sctx = SchedContext::new(now, head, &sh.cpu, &storage, lane.predictor.as_ref());
        policy.decide(&sctx)
    };
    act(sh, lane, queue, grid, sink, le, now, decision);
}

/// Paper eq. 7/8: `max(now, D − sr)` — the [`SchedContext::latest_start`]
/// expression, verbatim.
#[inline]
fn latest_start(now: SimTime, d: SimTime, run_time: f64) -> SimTime {
    if run_time.is_infinite() {
        return now;
    }
    SimTime::from_units(d.as_units() - run_time).max(now)
}

/// The [`EaDvfsScheduler`] decision rule on pre-gathered lane inputs:
/// `avail` is the memoized `EC + ÊS` (computed once, as the scalar
/// memo guarantees) and `feasible` the eq. 6 search result (pure, so
/// evaluating it for shortcut lanes that never consult it is harmless).
/// Storage is finite on this path, so `run_time_at_power` is the plain
/// division.
fn ea_decide_from(
    sh: &Shared,
    now: SimTime,
    d: SimTime,
    avail: f64,
    feasible: Option<LevelIndex>,
) -> Decision {
    let max = sh.cpu.max_level();
    let sr_max = avail / sh.cpu.max_power();
    let s2 = latest_start(now, d, sr_max);
    if s2 <= now {
        return Decision::run(max);
    }
    let n = match feasible {
        None => return Decision::run(max),
        Some(n) => n,
    };
    if n == max {
        return if s2 > now {
            Decision::IdleUntil(s2)
        } else {
            Decision::run(max)
        };
    }
    let sr_n = avail / sh.cpu.power(n);
    let s1 = latest_start(now, d, sr_n);
    debug_assert!(s1 <= s2, "slower power must allow an earlier latest-start");
    if now < s1 {
        Decision::IdleUntil(s1)
    } else {
        Decision::Run {
            level: n,
            review: Some(s2),
        }
    }
}

/// Debug-build cross-check: the lane evaluator must agree with the real
/// [`EaDvfsScheduler`] consulted through an ordinary [`SchedContext`].
#[allow(unused_variables)]
fn debug_check_ea(
    sh: &Shared,
    lane: &LaneState,
    queue: &EdfQueue,
    now: SimTime,
    decision: Decision,
) {
    #[cfg(debug_assertions)]
    {
        let head = queue.peek().expect("non-empty queue");
        let storage = Storage::new(sh.spec, lane.level);
        let sctx = SchedContext::new(now, head, &sh.cpu, &storage, lane.predictor.as_ref());
        let mut reference = EaDvfsScheduler::new();
        let expected = reference.decide(&sctx);
        debug_assert_eq!(
            decision, expected,
            "lane-vectorized EA-DVFS diverged from the scalar policy"
        );
    }
}

/// Acts on a decision: the scalar `decide`'s post-policy tail (state
/// transition, switch accounting, wake-up scheduling), verbatim against
/// lane-local state, with every profile lookup answered by the uniform
/// grid (pinned bit-identical to the cursor paths).
#[allow(clippy::too_many_arguments)] // mirrors the scalar decide's context, split per lane
fn act(
    sh: &Shared,
    lane: &mut LaneState,
    queue: &mut EdfQueue,
    grid: &UniformGridView<'_>,
    sink: &mut Sink,
    le: u32,
    now: SimTime,
    decision: Decision,
) {
    match decision {
        Decision::IdleUntil(s) => {
            assert!(s > now, "policy idled until the past ({s} <= {now})");
            lane.state = LaneRun::Idle;
            bump(lane, TraceEvent::Idled { until: Some(s) });
            sink.sched(le, s, LaneEvent::Reevaluate { epoch: lane.epoch });
        }
        Decision::Run { level, review } => {
            assert!(level < sh.cpu.level_count(), "invalid level {level}");
            let power = sh.cpu.power(level);
            let harvest_now = grid.value_at(now);
            let net = sh.spec.net_rate(harvest_now, power);
            if lane.level < ENERGY_EPS && net < 0.0 {
                stall(sh, lane, sink, le, now, power, grid);
                return;
            }
            let speed = sh.cpu.speed(level);
            let head = queue.peek().expect("head unchanged");
            let head_id = head.id();
            let completion = now + head.time_to_finish(speed);
            if lane.last_level != Some(level) {
                if lane.last_level.is_some() {
                    lane.switches += 1;
                    let cost = sh.cpu.switch_energy();
                    if cost > 0.0 {
                        let drained = (lane.level - cost).max(0.0);
                        lane.energy.consumed += lane.level - drained;
                        lane.level = drained;
                    }
                }
                lane.last_level = Some(level);
            }
            lane.state = LaneRun::Running {
                job: head_id,
                level,
            };
            bump(
                lane,
                TraceEvent::Started {
                    job: head_id,
                    level,
                },
            );
            sink.sched(le, completion, LaneEvent::Reevaluate { epoch: lane.epoch });
            let mut window_end = completion;
            if let Some(r) = review {
                if r > now && r < completion {
                    sink.sched(le, r, LaneEvent::Reevaluate { epoch: lane.epoch });
                    window_end = r;
                }
            }
            if lane.level > ENERGY_EPS {
                // The scalar `first_crossing_with` with target 0: the
                // level differs from the target here, and the spec is
                // ideal and finite, so it is exactly the grid's clamped
                // accumulation crossing.
                if let Some(t) = grid
                    .first_accumulation_crossing(now, window_end, lane.level, -power, sh.cap, 0.0)
                {
                    if t > now {
                        sink.sched(le, t, LaneEvent::Reevaluate { epoch: lane.epoch });
                    }
                }
            } else if let Some(t) = grid.next_breakpoint_after(now) {
                if t < window_end {
                    sink.sched(le, t, LaneEvent::Reevaluate { epoch: lane.epoch });
                }
            }
        }
    }
}

/// The scalar `stall` (paper §4.2 restart-quantum scavenging), with the
/// crossing solved on the grid (identical, including the
/// level-equals-target early return).
fn stall(
    sh: &Shared,
    lane: &mut LaneState,
    sink: &mut Sink,
    le: u32,
    now: SimTime,
    power: f64,
    grid: &UniformGridView<'_>,
) {
    let target = (sh.restart_quantum * power).min(sh.cap);
    let wake = grid.first_accumulation_crossing(
        now,
        sh.horizon_end,
        lane.level,
        -sh.cpu.idle_power(),
        sh.cap,
        target,
    );
    lane.state = LaneRun::Stalled;
    match wake {
        Some(t) if t > now => {
            bump(lane, TraceEvent::Stalled { until: Some(t) });
            sink.sched(le, t, LaneEvent::Reevaluate { epoch: lane.epoch });
        }
        // Restart level already met (boundary rounding) — retry on the
        // next tick rather than spinning at the same instant.
        Some(_) => {
            let t = now + SimDuration::TICK;
            bump(lane, TraceEvent::Stalled { until: Some(t) });
            sink.sched(le, t, LaneEvent::Reevaluate { epoch: lane.epoch });
        }
        // The source never recovers within the horizon: sleep until an
        // arrival changes the picture.
        None => bump(lane, TraceEvent::Stalled { until: None }),
    }
}
