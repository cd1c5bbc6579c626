//! A deterministic event queue.
//!
//! Events fire in time order; ties are broken by insertion order, so a
//! simulation run is a pure function of its inputs. The queue is a flat
//! 4-ary min-heap of `(ticks, seq, payload)` entries ordered by
//! `(ticks, seq)`, where `seq` is the queue's insertion counter. Keys are
//! unique, so the pop order is a total order with no tie left to chance.
//! The simulator in `core::system` runs on it through
//! [`Engine`](crate::engine::Engine).
//!
//! A simulation keeps only a few dozen events pending — arrivals and
//! deadline checks ride the closed loop's side stream (see
//! [`ReleaseTape`]) — so the heap is a handful of cache lines:
//! scheduling is a hole-based sift-up, popping a hole-based sift-down
//! over at most four children per level, and the minimum sits at index
//! 0, so [`peek_time`](EventQueue::peek_time) and
//! [`peek_key`](EventQueue::peek_key) are loads.

use crate::time::SimTime;
use serde::{Deserialize, Serialize};

/// Outlined panic for scheduling into the past, keeping the format
/// machinery off the hot path.
#[cold]
#[inline(never)]
fn past_panic(time: SimTime, last: SimTime) -> ! {
    panic!("cannot schedule an event at {time} before the current time {last}");
}

/// One pending event: the `(ticks, seq)` key and its payload.
#[derive(Debug, Clone, Copy)]
struct Entry<E> {
    ticks: i64,
    seq: u32,
    payload: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (i64, u32) {
        (self.ticks, self.seq)
    }
}

/// Lifetime operation counts of an [`EventQueue`], for observability.
///
/// Gathering these costs the hot paths nothing: `scheduled` is the
/// sequence counter the queue already maintains, `popped` is derived
/// (`scheduled - pending`), and `max_pending` is one predictable compare
/// per schedule.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Events ever scheduled, plus sequence numbers claimed through
    /// [`EventQueue::alloc_seq`].
    pub scheduled: u64,
    /// Events removed by [`EventQueue::pop`] (and claimed sequence
    /// numbers, which never occupy the heap).
    pub popped: u64,
    /// Events pending right now.
    pub(crate) pending: u64,
    /// Current heap capacity in entries — how much pending-event storage
    /// the queue retains across [`EventQueue::reset`]. Pooled sweeps read
    /// this as the pool's high-water mark.
    pub slab_capacity: u64,
    /// High-water mark of pending events.
    pub max_pending: u64,
}

/// A time-ordered queue of simulation events with stable tie-breaking:
/// a 4-ary min-heap over `(time, seq)` keys.
///
/// Payloads must be `Copy`: the heap moves entries by copy as it sifts.
///
/// # Examples
///
/// ```
/// use harvest_sim::event::EventQueue;
/// use harvest_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_whole_units(5), "later");
/// q.schedule(SimTime::from_whole_units(1), "sooner");
/// let (t, ev) = q.pop().unwrap();
/// assert_eq!((t, ev), (SimTime::from_whole_units(1), "sooner"));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    /// The heap: `entries[0]` is the minimum, and the children of `i`
    /// are `4i + 1 ..= 4i + 4`.
    entries: Vec<Entry<E>>,
    next_seq: u32,
    last_popped: Option<SimTime>,
    /// High-water mark of `entries.len()`.
    max_len: usize,
}

impl<E: Copy> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Copy> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            entries: Vec::new(),
            next_seq: 0,
            last_popped: None,
            max_len: 0,
        }
    }

    /// Schedules `payload` to fire at `time`. Events scheduled for the
    /// same instant fire in scheduling order.
    ///
    /// # Panics
    ///
    /// Panics if `time` lies before the last popped event — the past is
    /// immutable in a discrete-event simulation — or if the sequence
    /// space is exhausted.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        if let Some(last) = self.last_popped {
            if time < last {
                past_panic(time, last);
            }
        }
        let entry = Entry {
            ticks: time.as_ticks(),
            seq: self.alloc_seq(),
            payload,
        };
        // Hole-based sift-up: move parents down into the hole until the
        // entry's slot is found, then write the entry once.
        let key = entry.key();
        let mut i = self.entries.len();
        self.entries.push(entry);
        while i > 0 {
            let p = (i - 1) >> 2;
            if self.entries[p].key() < key {
                break;
            }
            self.entries[i] = self.entries[p];
            i = p;
        }
        self.entries[i] = entry;
        self.max_len = self.max_len.max(self.entries.len());
    }

    /// Removes and returns the earliest pending event.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.entries.pop()?;
        let top = match self.entries.first() {
            None => last,
            Some(&top) => {
                self.sift_down(last);
                top
            }
        };
        let time = SimTime::from_ticks(top.ticks);
        self.last_popped = Some(time);
        Some((time, top.payload))
    }

    /// Refills the hole at the root with `last`, the detached final
    /// entry: moves the smallest child up into the hole until `last`
    /// sorts at or before every child, then writes it once.
    #[inline]
    fn sift_down(&mut self, last: Entry<E>) {
        let key = last.key();
        let n = self.entries.len();
        let mut i = 0;
        loop {
            let first = (i << 2) + 1;
            if first >= n {
                break;
            }
            let mut m = first;
            for c in first + 1..(first + 4).min(n) {
                if self.entries[c].key() < self.entries[m].key() {
                    m = c;
                }
            }
            if key < self.entries[m].key() {
                break;
            }
            self.entries[i] = self.entries[m];
            i = m;
        }
        self.entries[i] = last;
    }

    /// Time of the earliest pending event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.entries.first().map(|e| SimTime::from_ticks(e.ticks))
    }

    /// `(time, seq)` of the earliest pending event without removing it.
    ///
    /// Sequence numbers order same-instant events in scheduling order,
    /// so this key totally orders the queue's head against events held
    /// outside the queue whose sequence numbers came from
    /// [`alloc_seq`](Self::alloc_seq).
    #[inline]
    pub fn peek_key(&self) -> Option<(SimTime, u32)> {
        self.entries
            .first()
            .map(|e| (SimTime::from_ticks(e.ticks), e.seq))
    }

    /// Claims the next sequence number without scheduling anything.
    ///
    /// A caller that keeps some events *outside* the queue (e.g. the
    /// releases it serves itself under a [`ReleaseTape`]) allocates their
    /// sequence numbers here, at the exact points the queue-driven run
    /// would have scheduled them. Merging by `(time, seq)` against
    /// [`peek_key`](Self::peek_key) then reproduces the queue-driven
    /// dispatch order bit for bit, because every event — queued or
    /// elided — carries the same key it would have carried in the queue.
    ///
    /// Note that [`QueueStats::scheduled`] counts claimed sequence
    /// numbers, so elided events still show up there (and in the derived
    /// `popped`) even though they never occupy the heap.
    ///
    /// # Panics
    ///
    /// Panics if the sequence space is exhausted (after 2^32 - 1 events
    /// on one queue since its last [`reset`](Self::reset)).
    #[inline]
    pub fn alloc_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        assert!(seq != u32::MAX, "event queue sequence space exhausted");
        self.next_seq = seq + 1;
        seq
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Time of the most recently popped event, i.e. "now" from the
    /// queue's perspective.
    pub(crate) fn current_time(&self) -> Option<SimTime> {
        self.last_popped
    }

    /// Lifetime operation counts; see [`QueueStats`].
    pub fn stats(&self) -> QueueStats {
        let scheduled = self.next_seq as u64;
        let pending = self.entries.len() as u64;
        QueueStats {
            scheduled,
            popped: scheduled - pending,
            pending,
            slab_capacity: self.entries.capacity() as u64,
            max_pending: self.max_len as u64,
        }
    }

    /// Number of entries the heap can hold without reallocating.
    /// Capacity survives [`reset`](Self::reset), which is what makes
    /// pooled reuse allocation-free.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Restores the queue to its as-new logical state — empty, sequence
    /// counter at zero, no time bound, statistics zeroed — while keeping
    /// the heap's allocation. A run executed on a reset queue is
    /// bit-identical to one executed on a fresh queue: scheduling order,
    /// sequence tie-breaking, and [`stats`](Self::stats) all replay
    /// exactly.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.next_seq = 0;
        self.last_popped = None;
        self.max_len = 0;
    }
}

/// Permission to serve a task set's releases outside the
/// [`EventQueue`]: the horizon and task count they were planned for.
///
/// Task releases are closed-form — seed-, policy- and state-independent
/// — so a simulator can elide them from its queue. The closed loop in
/// `core::system` keeps each task's next release, computed from its
/// phase and period, and serves the minimum `(ticks, seq)` over them.
/// Each pending release carries the sequence number the heap-driven run
/// would have given its `Arrival`, claimed through
/// [`EventQueue::alloc_seq`] at the point where that run schedules it,
/// so a task set's releases dispatch in the heap's order, tie for tie.
///
/// A tape therefore holds no per-arrival state. It records what the
/// loop checks before it trusts the tape: the horizon (exclusive, in
/// ticks) and the number of tasks it was made for. `TaskSet::release_tape`
/// makes one in constant time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReleaseTape {
    /// Horizon (exclusive, in ticks) the tape was made for.
    horizon_ticks: i64,
    /// Number of tasks in the task set the tape was made for.
    task_count: usize,
}

impl ReleaseTape {
    /// A tape for a set of `task_count` tasks over `[0, horizon_ticks)`.
    pub fn new(horizon_ticks: i64, task_count: usize) -> Self {
        ReleaseTape {
            horizon_ticks,
            task_count,
        }
    }

    /// Horizon (exclusive, in ticks) the tape was made for.
    pub fn horizon_ticks(&self) -> i64 {
        self.horizon_ticks
    }

    /// Number of tasks in the originating task set.
    pub fn task_count(&self) -> usize {
        self.task_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(u: i64) -> SimTime {
        SimTime::from_whole_units(u)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(3), 'c');
        q.schedule(t(1), 'a');
        q.schedule(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(t(5), 1);
        q.schedule(t(5), 2);
        q.schedule(t(5), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn peek_key_orders_against_claimed_seqs() {
        let mut q = EventQueue::new();
        q.schedule(t(2), 'a');
        let claimed = q.alloc_seq();
        q.schedule(t(2), 'b');
        assert_eq!(claimed, 1, "claims consume the shared counter");
        assert_eq!(q.peek_key(), Some((t(2), 0)));
        q.pop();
        assert_eq!(q.peek_key(), Some((t(2), 2)));
        assert_eq!(q.stats().scheduled, 3);
    }

    #[test]
    fn current_time_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(t(4), ());
        assert_eq!(q.current_time(), None);
        q.pop();
        assert_eq!(q.current_time(), Some(t(4)));
    }

    #[test]
    #[should_panic(expected = "before the current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(t(10), ());
        q.pop();
        q.schedule(t(5), ());
    }

    #[test]
    #[should_panic(expected = "sequence space exhausted")]
    fn sequence_exhaustion_panics() {
        let mut q = EventQueue::new();
        q.next_seq = u32::MAX - 1;
        q.schedule(t(1), ());
        q.alloc_seq();
    }

    #[test]
    fn same_instant_as_current_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(t(10), 1);
        q.pop();
        q.schedule(t(10), 2);
        assert_eq!(q.pop(), Some((t(10), 2)));
    }

    #[test]
    fn stats_track_lifecycle() {
        let mut q = EventQueue::new();
        q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        q.schedule(t(3), 3);
        assert_eq!(q.stats().max_pending, 3);
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 3);
        assert_eq!(s.popped, 1);
        assert_eq!(s.pending, 2);
        assert_eq!(s.max_pending, 3);
    }

    /// Drives a queue through a deterministic schedule/pop workload and
    /// returns the full pop order.
    fn exercise(q: &mut EventQueue<u64>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        for i in 0..200u64 {
            q.schedule(t(((i * 2_654_435_761) % 977) as i64), i);
        }
        for _ in 0..50 {
            out.extend(q.pop());
        }
        for i in 0..64u64 {
            q.schedule(t(2000 + ((i * 37) % 61) as i64), 1000 + i);
        }
        while let Some(ev) = q.pop() {
            out.push(ev);
        }
        out
    }

    #[test]
    fn reset_replays_bit_identically_to_fresh() {
        let mut fresh = EventQueue::new();
        let baseline = exercise(&mut fresh);
        let baseline_stats = fresh.stats();

        let mut pooled = EventQueue::new();
        let _ = exercise(&mut pooled);
        let warm_capacity = pooled.capacity();
        pooled.reset();
        assert!(pooled.is_empty());
        assert_eq!(pooled.current_time(), None, "reset rewinds the clock");
        assert_eq!(
            pooled.capacity(),
            warm_capacity,
            "reset must keep the heap allocation"
        );
        // Scheduling at t=0 after a reset must work: the time bound of
        // the previous run is gone.
        pooled.schedule(t(0), 7);
        assert_eq!(pooled.pop(), Some((t(0), 7)));
        pooled.reset();
        let replay = exercise(&mut pooled);
        assert_eq!(replay, baseline, "pop order must replay exactly");
        let mut replay_stats = pooled.stats();
        // Capacity is the one stat allowed to differ (the pool keeps it).
        replay_stats.slab_capacity = baseline_stats.slab_capacity;
        assert_eq!(replay_stats, baseline_stats, "stats must replay exactly");
    }

    #[test]
    fn capacity_covers_the_high_water_mark() {
        let mut q = EventQueue::new();
        for i in 0..1024u64 {
            q.schedule(t(i as i64), i);
        }
        while q.pop().is_some() {}
        assert!(q.capacity() >= 1024);
        assert_eq!(q.stats().slab_capacity, q.capacity() as u64);
    }
}
