//! A minimal generic discrete-event engine.
//!
//! [`Engine`] owns the clock and the event queue and repeatedly hands the
//! earliest event to a user-supplied [`Model`]. The model reacts by
//! scheduling further events through the [`Scheduler`] context. The
//! closed-loop harvesting simulator in `harvest-core` is built on this.

use crate::event::{EventQueue, QueueStats};
use crate::time::SimTime;
use harvest_obs::profile::PhaseProfiler;
use serde::{Deserialize, Serialize};

/// Phase name under which [`Engine::run_until`] accounts event
/// dispatch (the full `Model::handle` call) when profiling is enabled.
pub const PHASE_DISPATCH: &str = "engine.dispatch";

/// Scheduling context handed to [`Model::handle`].
///
/// Wraps the event queue so the model can schedule events but cannot
/// pop them or rewind the clock.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    queue: &'a mut EventQueue<E>,
    now: SimTime,
    stop: &'a mut bool,
}

impl<E: Copy> Scheduler<'_, E> {
    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule into the past ({at} < {})",
            self.now
        );
        self.queue.schedule(at, payload)
    }

    /// Claims the next queue sequence number without scheduling — for
    /// models that keep a side stream of pre-ordered events (see
    /// [`Model::side_peek`]) and need those events keyed exactly as if
    /// they had been scheduled here.
    pub fn alloc_seq(&mut self) -> u32 {
        self.queue.alloc_seq()
    }

    /// Requests the engine to stop after the current event is handled.
    pub fn request_stop(&mut self) {
        *self.stop = true;
    }
}

/// A simulation model driven by an [`Engine`].
pub trait Model {
    /// Event payload type. `Copy` because the queue's heap moves its
    /// entries by copy as it sifts.
    type Event: Copy;

    /// Handles one event at time `now`, scheduling follow-ups via `ctx`.
    fn handle(&mut self, now: SimTime, event: Self::Event, ctx: &mut Scheduler<'_, Self::Event>);

    /// `(time, seq)` key of the model's next *side-stream* event, if any.
    ///
    /// A model may keep part of its event traffic outside the queue — a
    /// precomputed tape consumed by a cursor, say. The engine merges the
    /// side stream with the queue by `(time, seq)` each iteration and
    /// dispatches whichever is earlier, so elided events still fire in
    /// exactly the order they would have fired from the queue, provided
    /// their sequence numbers were claimed via [`Scheduler::alloc_seq`]
    /// (or [`Engine::alloc_seq`]) at the points the heap-driven model
    /// would have scheduled them. The default (no side stream) keeps the
    /// run loop as cheap as before: one always-`None` branch.
    #[inline]
    fn side_peek(&self) -> Option<(SimTime, u32)> {
        None
    }

    /// Pops the side-stream head whose key [`Model::side_peek`] just
    /// returned. Only called when `side_peek` returned `Some` and its
    /// key was the merged minimum.
    fn side_pop(&mut self) -> Self::Event {
        unreachable!("model reported no side-stream event")
    }
}

/// Outcome of [`Engine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained before the horizon.
    Drained {
        /// Time of the last handled event.
        last_event: Option<SimTime>,
    },
    /// The horizon was reached with events still pending.
    HorizonReached,
    /// The model requested a stop.
    Stopped {
        /// Time at which the stop was requested.
        at: SimTime,
    },
    /// A [`Watchdog`] budget was exhausted and the run was aborted.
    WatchdogFired {
        /// Time of the event that tripped the budget.
        at: SimTime,
        /// Total events handled when the watchdog fired.
        events: u64,
        /// Which budget tripped.
        kind: WatchdogKind,
    },
}

/// Which [`Watchdog`] budget aborted a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WatchdogKind {
    /// The lifetime event budget ([`Watchdog::max_events`]) ran out.
    EventBudget,
    /// Too many consecutive events fired at one instant without the
    /// clock advancing ([`Watchdog::max_events_at_instant`]).
    NoProgress,
}

/// Abort budgets for [`Engine::run_until`] — the harness's defense
/// against runaway or livelocked models.
///
/// Both budgets are optional; an unset watchdog (the default) keeps the
/// run loop exactly as cheap as before. `max_events` bounds the total
/// events a trial may handle; `max_events_at_instant` bounds how many
/// events may fire back-to-back at a single timestamp, catching models
/// that reschedule themselves at `now` forever.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Watchdog {
    /// Abort once this many events have been handled in total.
    pub max_events: Option<u64>,
    /// Abort once this many consecutive events fire without the clock
    /// advancing.
    pub max_events_at_instant: Option<u64>,
}

impl Watchdog {
    /// A watchdog with only a lifetime event budget.
    pub fn with_max_events(max_events: u64) -> Self {
        Watchdog {
            max_events: Some(max_events),
            max_events_at_instant: None,
        }
    }

    /// `true` when no budget is configured.
    pub fn is_empty(&self) -> bool {
        self.max_events.is_none() && self.max_events_at_instant.is_none()
    }
}

/// Discrete-event engine binding a clock, an [`EventQueue`], and a
/// [`Model`].
///
/// # Examples
///
/// ```
/// use harvest_sim::engine::{Engine, Model, RunOutcome, Scheduler};
/// use harvest_sim::time::{SimDuration, SimTime};
///
/// /// Counts down, rescheduling itself every time unit.
/// struct Countdown(u32);
///
/// impl Model for Countdown {
///     type Event = ();
///     fn handle(&mut self, now: SimTime, _: (), ctx: &mut Scheduler<'_, ()>) {
///         self.0 -= 1;
///         if self.0 > 0 {
///             ctx.schedule(now + SimDuration::from_whole_units(1), ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Countdown(3));
/// engine.schedule(SimTime::ZERO, ());
/// let outcome = engine.run_until(SimTime::from_whole_units(100));
/// assert_eq!(outcome, RunOutcome::Drained { last_event: Some(SimTime::from_whole_units(2)) });
/// assert_eq!(engine.model().0, 0);
/// ```
///
/// A clone is an independent copy of the whole run — clock, pending
/// events, counters and model — that continues exactly as the original
/// would. A model can fork a run this way: request a stop, clone the
/// stopped engine, and let each copy finish the interrupted instant
/// differently through [`Engine::apply`].
#[derive(Debug, Clone)]
pub struct Engine<M: Model> {
    model: M,
    queue: EventQueue<M::Event>,
    now: SimTime,
    handled: u64,
    /// Time of the most recently dispatched event, queue or side stream.
    /// (`queue.current_time()` alone cannot answer this once a model
    /// elides events into a side stream.)
    last_handled: Option<SimTime>,
    /// Events dispatched back to back at `last_handled` — the
    /// [`Watchdog`]'s no-progress streak, kept only while a watchdog is
    /// armed. It lives here rather than in [`Engine::run_until`], so a
    /// run stopped and resumed within one instant keeps counting.
    at_instant: u64,
    /// Scoped phase timers; `None` (the default) keeps the run loop at
    /// one branch per event and zero clock reads.
    profiler: Option<Box<PhaseProfiler>>,
    watchdog: Option<Watchdog>,
}

impl<M: Model> Engine<M> {
    /// Creates an engine at time zero with an empty queue.
    pub fn new(model: M) -> Self {
        Engine::with_queue(model, EventQueue::new())
    }

    /// Creates an engine at time zero around a caller-supplied queue —
    /// the pooling entry point: a [`reset`](EventQueue::reset) queue
    /// keeps its heap allocation from previous runs, and a run on it is
    /// bit-identical to one on a fresh queue.
    ///
    /// # Panics
    ///
    /// Panics if the queue still holds pending events or has already
    /// advanced its clock; pass a fresh or freshly-reset queue.
    pub fn with_queue(model: M, queue: EventQueue<M::Event>) -> Self {
        assert!(
            queue.is_empty() && queue.current_time().is_none(),
            "engine requires a fresh or reset event queue"
        );
        Engine {
            model,
            queue,
            now: SimTime::ZERO,
            handled: 0,
            last_handled: None,
            at_instant: 0,
            profiler: None,
            watchdog: None,
        }
    }

    /// Arms (or with `None`, disarms) the run-loop watchdog.
    pub fn set_watchdog(&mut self, watchdog: Option<Watchdog>) {
        self.watchdog = watchdog.filter(|w| !w.is_empty());
    }

    /// Turns on per-event phase timing: every `Model::handle` call is
    /// wall-clock timed under [`PHASE_DISPATCH`]. Off by default.
    pub fn enable_profiling(&mut self) {
        if self.profiler.is_none() {
            self.profiler = Some(Box::default());
        }
    }

    /// The accumulated phase timings, if profiling was enabled.
    pub fn profiler(&self) -> Option<&PhaseProfiler> {
        self.profiler.as_deref()
    }

    /// Lifetime operation counts of the underlying event queue.
    pub fn queue_stats(&self) -> QueueStats {
        self.queue.stats()
    }

    /// Schedules an initial event (usable before and between runs).
    pub fn schedule(&mut self, at: SimTime, payload: M::Event) {
        self.queue.schedule(at, payload)
    }

    /// Claims the next queue sequence number without scheduling — the
    /// seeding-time counterpart of [`Scheduler::alloc_seq`], for keying
    /// side-stream events (see [`Model::side_peek`]) before the run
    /// starts.
    pub fn alloc_seq(&mut self) -> u32 {
        self.queue.alloc_seq()
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events handled so far.
    pub fn events_handled(&self) -> u64 {
        self.handled
    }

    /// Shared access to the model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Exclusive access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Consumes the engine, returning the model and the event queue so
    /// a pool can reclaim the queue's allocations for the next run.
    pub fn into_parts(self) -> (M, EventQueue<M::Event>) {
        (self.model, self.queue)
    }

    /// Runs until the queue drains, the model requests a stop, or the next
    /// event would fire at or after `horizon`. Events exactly at the
    /// horizon are *not* handled, so `[0, horizon)` is simulated.
    pub fn run_until(&mut self, horizon: SimTime) -> RunOutcome {
        let mut stop = false;
        loop {
            // Merge the queue head against the model's side stream (if
            // any) by (time, seq): both kinds of key come from the same
            // sequence counter, so the comparison reproduces the order a
            // queue-only run would dispatch. Keys are unique — the
            // counter never hands out a number twice.
            let (t, from_side) = match (self.queue.peek_key(), self.model.side_peek()) {
                (None, None) => {
                    return RunOutcome::Drained {
                        last_event: self.last_handled,
                    }
                }
                (Some((qt, _)), None) => (qt, false),
                (None, Some((st, _))) => (st, true),
                (Some(q), Some(s)) => {
                    if s < q {
                        (s.0, true)
                    } else {
                        (q.0, false)
                    }
                }
            };
            if t >= horizon {
                self.now = horizon;
                return RunOutcome::HorizonReached;
            }
            let ev = if from_side {
                self.model.side_pop()
            } else {
                self.queue.pop().expect("peeked event present").1
            };
            self.now = t;
            self.handled += 1;
            let same_instant = self.last_handled == Some(t);
            self.last_handled = Some(t);
            if let Some(wd) = self.watchdog {
                self.at_instant = if same_instant { self.at_instant + 1 } else { 1 };
                if wd.max_events.is_some_and(|max| self.handled > max) {
                    return RunOutcome::WatchdogFired {
                        at: t,
                        events: self.handled,
                        kind: WatchdogKind::EventBudget,
                    };
                }
                if wd
                    .max_events_at_instant
                    .is_some_and(|max| self.at_instant > max)
                {
                    return RunOutcome::WatchdogFired {
                        at: t,
                        events: self.handled,
                        kind: WatchdogKind::NoProgress,
                    };
                }
            }
            let mut ctx = Scheduler {
                queue: &mut self.queue,
                now: t,
                stop: &mut stop,
            };
            match &mut self.profiler {
                None => self.model.handle(t, ev, &mut ctx),
                Some(p) => {
                    let t0 = PhaseProfiler::start();
                    self.model.handle(t, ev, &mut ctx);
                    p.stop(PHASE_DISPATCH, t0);
                }
            }
            if stop {
                return RunOutcome::Stopped { at: t };
            }
        }
    }

    /// Runs `f` on the model at the current instant, with a scheduling
    /// context, as a continuation of the last handled event: nothing is
    /// dispatched or counted, and the watchdog streak is untouched. A
    /// stop requested from `f` is ignored — the engine is already
    /// stopped.
    ///
    /// This is how a model that stopped mid-event (see
    /// [`Scheduler::request_stop`]) finishes that event's work before
    /// the next [`Engine::run_until`]; a forked run applies each branch's
    /// own continuation to its clone.
    pub fn apply(&mut self, f: impl FnOnce(&mut M, &mut Scheduler<'_, M::Event>)) {
        let mut stop = false;
        let mut ctx = Scheduler {
            queue: &mut self.queue,
            now: self.now,
            stop: &mut stop,
        };
        f(&mut self.model, &mut ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Clone)]
    struct Recorder {
        seen: Vec<(SimTime, u32)>,
        stop_on: Option<u32>,
    }

    impl Model for Recorder {
        type Event = u32;
        fn handle(&mut self, now: SimTime, ev: u32, ctx: &mut Scheduler<'_, u32>) {
            self.seen.push((now, ev));
            if self.stop_on == Some(ev) {
                ctx.request_stop();
            }
        }
    }

    fn t(u: i64) -> SimTime {
        SimTime::from_whole_units(u)
    }

    #[test]
    fn drains_in_order() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: None,
        });
        e.schedule(t(2), 20);
        e.schedule(t(1), 10);
        let out = e.run_until(t(100));
        assert_eq!(
            out,
            RunOutcome::Drained {
                last_event: Some(t(2))
            }
        );
        assert_eq!(e.model().seen, vec![(t(1), 10), (t(2), 20)]);
        assert_eq!(e.events_handled(), 2);
    }

    #[test]
    fn horizon_excludes_boundary_event() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: None,
        });
        e.schedule(t(5), 1);
        e.schedule(t(10), 2);
        let out = e.run_until(t(10));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(e.model().seen, vec![(t(5), 1)]);
        assert_eq!(e.now(), t(10));
    }

    #[test]
    fn stop_request_halts_immediately() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: Some(1),
        });
        e.schedule(t(1), 1);
        e.schedule(t(2), 2);
        let out = e.run_until(t(100));
        assert_eq!(out, RunOutcome::Stopped { at: t(1) });
        assert_eq!(e.model().seen.len(), 1);
    }

    #[test]
    fn self_scheduling_model() {
        struct Ticker {
            remaining: u32,
        }
        impl Model for Ticker {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), ctx: &mut Scheduler<'_, ()>) {
                if self.remaining > 0 {
                    self.remaining -= 1;
                    ctx.schedule(now + SimDuration::from_whole_units(1), ());
                }
            }
        }
        let mut e = Engine::new(Ticker { remaining: 5 });
        e.schedule(SimTime::ZERO, ());
        e.run_until(SimTime::from_whole_units(100));
        assert_eq!(e.model().remaining, 0);
        assert_eq!(e.events_handled(), 6);
    }

    #[test]
    fn profiling_times_every_dispatch() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: None,
        });
        assert!(e.profiler().is_none(), "profiling is off by default");
        e.enable_profiling();
        e.schedule(t(1), 1);
        e.schedule(t(2), 2);
        e.run_until(t(100));
        let profile = e.profiler().expect("enabled").summary();
        let dispatch = profile.get(PHASE_DISPATCH).expect("phase recorded");
        assert_eq!(dispatch.calls, 2);
        assert_eq!(e.queue_stats().popped, 2);
    }

    #[test]
    fn with_queue_reuses_reset_queue_identically() {
        let run = |queue| {
            let mut e = Engine::with_queue(
                Recorder {
                    seen: vec![],
                    stop_on: None,
                },
                queue,
            );
            e.schedule(t(2), 20);
            e.schedule(t(1), 10);
            e.schedule(t(1), 11);
            e.run_until(t(100));
            let stats = e.queue_stats();
            let (model, mut queue) = e.into_parts();
            queue.reset();
            (model.seen, stats, queue)
        };
        let (fresh_seen, fresh_stats, queue) = run(EventQueue::new());
        let (pooled_seen, pooled_stats, _) = run(queue);
        assert_eq!(fresh_seen, pooled_seen);
        let mut pooled_stats = pooled_stats;
        pooled_stats.slab_capacity = fresh_stats.slab_capacity;
        assert_eq!(fresh_stats, pooled_stats);
    }

    #[test]
    #[should_panic(expected = "fresh or reset")]
    fn with_queue_rejects_advanced_queue() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1u32);
        q.pop();
        let _ = Engine::with_queue(
            Recorder {
                seen: vec![],
                stop_on: None,
            },
            q,
        );
    }

    #[test]
    fn watchdog_event_budget_aborts_runaway_model() {
        struct Forever;
        impl Model for Forever {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), ctx: &mut Scheduler<'_, ()>) {
                ctx.schedule(now + SimDuration::from_whole_units(1), ());
            }
        }
        let mut e = Engine::new(Forever);
        e.set_watchdog(Some(Watchdog::with_max_events(10)));
        e.schedule(SimTime::ZERO, ());
        let out = e.run_until(t(1_000_000));
        assert_eq!(
            out,
            RunOutcome::WatchdogFired {
                at: t(10),
                events: 11,
                kind: WatchdogKind::EventBudget,
            }
        );
    }

    #[test]
    fn watchdog_no_progress_catches_same_instant_spin() {
        struct Spinner;
        impl Model for Spinner {
            type Event = ();
            fn handle(&mut self, now: SimTime, _: (), ctx: &mut Scheduler<'_, ()>) {
                // Reschedules at `now` forever: time never advances.
                ctx.schedule(now, ());
            }
        }
        let mut e = Engine::new(Spinner);
        e.set_watchdog(Some(Watchdog {
            max_events: None,
            max_events_at_instant: Some(5),
        }));
        e.schedule(t(3), ());
        let out = e.run_until(t(100));
        assert_eq!(
            out,
            RunOutcome::WatchdogFired {
                at: t(3),
                events: 6,
                kind: WatchdogKind::NoProgress,
            }
        );
    }

    /// Reschedules itself at `now` forever and asks for a stop on its
    /// `stop_at`-th event.
    #[derive(Clone)]
    struct StoppingSpinner {
        seen: u32,
        stop_at: u32,
    }

    impl Model for StoppingSpinner {
        type Event = ();
        fn handle(&mut self, now: SimTime, _: (), ctx: &mut Scheduler<'_, ()>) {
            self.seen += 1;
            ctx.schedule(now, ());
            if self.seen == self.stop_at {
                ctx.request_stop();
            }
        }
    }

    fn no_progress_engine(stop_at: u32) -> Engine<StoppingSpinner> {
        let mut e = Engine::new(StoppingSpinner { seen: 0, stop_at });
        e.set_watchdog(Some(Watchdog {
            max_events: None,
            max_events_at_instant: Some(5),
        }));
        e.schedule(t(3), ());
        e
    }

    #[test]
    fn watchdog_streak_survives_a_stop_and_resume_within_one_instant() {
        let uninterrupted = no_progress_engine(0).run_until(t(100));
        let fired = RunOutcome::WatchdogFired {
            at: t(3),
            events: 6,
            kind: WatchdogKind::NoProgress,
        };
        assert_eq!(uninterrupted, fired);
        let mut e = no_progress_engine(3);
        assert_eq!(e.run_until(t(100)), RunOutcome::Stopped { at: t(3) });
        assert_eq!(e.run_until(t(100)), fired, "the streak restarted on resume");
        // A clone of the stopped engine resumes the same streak too.
        let mut e = no_progress_engine(2);
        assert_eq!(e.run_until(t(100)), RunOutcome::Stopped { at: t(3) });
        let mut fork = e.clone();
        assert_eq!(fork.run_until(t(100)), fired);
        assert_eq!(e.run_until(t(100)), fired);
    }

    #[test]
    fn apply_continues_the_stopped_instant_without_counting() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: Some(1),
        });
        e.schedule(t(1), 1);
        e.schedule(t(4), 4);
        assert_eq!(e.run_until(t(100)), RunOutcome::Stopped { at: t(1) });
        let mut fork = e.clone();
        fork.apply(|m, ctx| {
            assert_eq!(ctx.now(), t(1));
            m.stop_on = None;
            ctx.schedule(t(2), 2);
        });
        assert_eq!(fork.events_handled(), 1, "apply dispatches nothing");
        fork.run_until(t(100));
        assert_eq!(fork.model().seen, vec![(t(1), 1), (t(2), 2), (t(4), 4)]);
        // The original is untouched by its clone's continuation.
        e.apply(|m, _| m.stop_on = None);
        e.run_until(t(100));
        assert_eq!(e.model().seen, vec![(t(1), 1), (t(4), 4)]);
        assert_eq!(e.events_handled(), 2);
    }

    #[test]
    fn watchdog_spares_models_within_budget() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: None,
        });
        e.set_watchdog(Some(Watchdog {
            max_events: Some(10),
            max_events_at_instant: Some(3),
        }));
        e.schedule(t(1), 1);
        e.schedule(t(1), 2);
        e.schedule(t(1), 3);
        e.schedule(t(2), 4);
        let out = e.run_until(t(100));
        assert_eq!(
            out,
            RunOutcome::Drained {
                last_event: Some(t(2))
            }
        );
        assert_eq!(e.model().seen.len(), 4);
    }

    #[test]
    fn empty_watchdog_is_disarmed() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: None,
        });
        e.set_watchdog(Some(Watchdog::default()));
        e.schedule(t(1), 1);
        let out = e.run_until(t(100));
        assert_eq!(
            out,
            RunOutcome::Drained {
                last_event: Some(t(1))
            }
        );
    }

    #[test]
    fn resume_after_horizon() {
        let mut e = Engine::new(Recorder {
            seen: vec![],
            stop_on: None,
        });
        e.schedule(t(5), 1);
        e.run_until(t(3));
        assert!(e.model().seen.is_empty());
        e.run_until(t(10));
        assert_eq!(e.model().seen, vec![(t(5), 1)]);
    }
}
