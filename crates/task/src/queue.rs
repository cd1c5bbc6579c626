//! EDF-ordered ready queue.

use harvest_sim::time::SimTime;

use crate::job::{Job, JobId};

/// Sentinel marking a job id as not currently queued.
const ABSENT: u32 = u32::MAX;

/// Number of children per heap node.
const ARITY: usize = 4;

/// The ready queue `Q` of the paper's scheduling loop (Fig. 4): all
/// released but unfinished jobs, ordered earliest-deadline-first with
/// FIFO tie-breaking.
///
/// Internally an indexed 4-ary min-heap on `(deadline, id)` plus a
/// position table indexed directly by job id, giving O(log n) push and
/// pop, O(1) [`contains`](Self::contains), O(log n)
/// [`remove`](Self::remove), and an allocation-free
/// [`drain_expired_into`](Self::drain_expired_into). Job ids are dense
/// release sequence numbers in the simulator, so direct indexing costs
/// O(max id) words — no hashing, no ordered-map rebalancing.
///
/// # Examples
///
/// ```
/// use harvest_task::job::{Job, JobId};
/// use harvest_task::queue::EdfQueue;
/// use harvest_sim::time::SimTime;
///
/// let mut q = EdfQueue::new();
/// q.push(Job::new(JobId(0), 0, SimTime::ZERO, SimTime::from_whole_units(16), 4.0));
/// q.push(Job::new(JobId(1), 1, SimTime::ZERO, SimTime::from_whole_units(12), 1.0));
/// // The deadline-12 job has priority.
/// assert_eq!(q.peek().unwrap().id(), JobId(1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct EdfQueue {
    /// Jobs arranged as a 4-ary min-heap on `(deadline, id)`.
    heap: Vec<Job>,
    /// `pos[id] == i` iff the job with that id sits at `heap[i]`.
    pos: Vec<u32>,
}

// Two queues are equal when they hold the same jobs — the heap's
// internal arrangement may differ between histories that queued the
// same set.
impl PartialEq for EdfQueue {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl EdfQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EdfQueue {
            heap: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Number of ready jobs.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no job is ready.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Removes every job while keeping the heap and position-table
    /// allocations, so a pooled simulation context can replay its next
    /// run without reallocating. A cleared queue behaves exactly like a
    /// fresh one (job ids restart densely from zero each run).
    pub fn clear(&mut self) {
        self.heap.clear();
        self.pos.clear();
    }

    /// Number of jobs the heap can hold without reallocating. Retained
    /// across [`clear`](Self::clear).
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Inserts a job.
    ///
    /// # Panics
    ///
    /// Panics if a job with the same id is already queued (ids are
    /// unique by construction, so this indicates a caller bug).
    pub fn push(&mut self, job: Job) {
        let id = job.id().0 as usize;
        if id >= self.pos.len() {
            self.pos.resize(id + 1, ABSENT);
        }
        assert!(
            self.pos[id] == ABSENT,
            "job re-queued while already present"
        );
        let i = self.heap.len();
        self.heap.push(job);
        self.pos[id] = i as u32;
        self.sift_up(i);
    }

    /// The highest-priority (earliest-deadline) job, if any.
    pub fn peek(&self) -> Option<&Job> {
        self.heap.first()
    }

    /// Mutable access to the highest-priority job (its deadline and id —
    /// the ordering key — are immutable, so mutation cannot corrupt the
    /// queue).
    pub fn peek_mut(&mut self) -> Option<&mut Job> {
        self.heap.first_mut()
    }

    /// `true` if a job with the given id is queued.
    pub fn contains(&self, id: JobId) -> bool {
        self.pos.get(id.0 as usize).is_some_and(|&p| p != ABSENT)
    }

    /// Removes and returns the highest-priority job.
    pub fn pop(&mut self) -> Option<Job> {
        if self.heap.is_empty() {
            None
        } else {
            Some(self.remove_at(0))
        }
    }

    /// Removes a specific job by id.
    pub fn remove(&mut self, id: JobId) -> Option<Job> {
        let &p = self.pos.get(id.0 as usize)?;
        if p == ABSENT {
            return None;
        }
        Some(self.remove_at(p as usize))
    }

    /// Iterates jobs in priority order.
    ///
    /// The heap is only partially ordered, so this sorts an index
    /// permutation first — O(n log n), meant for inspection and tests,
    /// not the scheduling hot path.
    pub fn iter(&self) -> impl Iterator<Item = &Job> {
        let mut order: Vec<usize> = (0..self.heap.len()).collect();
        order.sort_unstable_by_key(|&i| self.key(i));
        order.into_iter().map(move |i| &self.heap[i])
    }

    /// Removes every job whose absolute deadline is at or before `now`
    /// (deadline misses under the abort policy), appending them to
    /// `out` in deadline order. Allocates nothing beyond `out`'s own
    /// growth.
    pub fn drain_expired_into(&mut self, now: SimTime, out: &mut Vec<Job>) {
        while let Some(head) = self.heap.first() {
            if head.absolute_deadline() > now {
                break;
            }
            let job = self.remove_at(0);
            out.push(job);
        }
    }

    /// Convenience wrapper over
    /// [`drain_expired_into`](Self::drain_expired_into) that collects
    /// into a fresh `Vec`.
    pub fn drain_expired(&mut self, now: SimTime) -> Vec<Job> {
        let mut out = Vec::new();
        self.drain_expired_into(now, &mut out);
        out
    }

    /// Total remaining full-speed work across all ready jobs.
    pub fn total_remaining_work(&self) -> f64 {
        self.heap.iter().map(Job::remaining_work).sum()
    }

    /// Ordering key of the job at heap index `i`.
    #[inline]
    fn key(&self, i: usize) -> (SimTime, JobId) {
        let j = &self.heap[i];
        (j.absolute_deadline(), j.id())
    }

    /// Records that the job at heap index `i` now lives there.
    #[inline]
    fn set_pos(&mut self, i: usize) {
        let id = self.heap[i].id().0 as usize;
        self.pos[id] = i as u32;
    }

    /// Detaches the job at heap index `i`, filling the vacancy with the
    /// last element and sifting it to restore heap order.
    fn remove_at(&mut self, i: usize) -> Job {
        let job = self.heap.swap_remove(i);
        self.pos[job.id().0 as usize] = ABSENT;
        if i < self.heap.len() {
            self.set_pos(i);
            // The filler came from the bottom, but after an interior
            // removal it may belong either above or below `i`.
            let rest = self.sift_up(i);
            if rest == i {
                self.sift_down(i);
            }
        }
        job
    }

    /// Moves the job at `i` toward the root until its parent is no
    /// larger, returning its final position.
    fn sift_up(&mut self, mut i: usize) -> usize {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.key(parent) <= self.key(i) {
                break;
            }
            self.heap.swap(i, parent);
            self.set_pos(i);
            i = parent;
        }
        self.set_pos(i);
        i
    }

    /// Moves the job at `i` toward the leaves until no child is smaller.
    fn sift_down(&mut self, mut i: usize) {
        loop {
            let first = i * ARITY + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + ARITY).min(self.heap.len());
            let mut best = first;
            for child in first + 1..last {
                if self.key(child) < self.key(best) {
                    best = child;
                }
            }
            if self.key(i) <= self.key(best) {
                break;
            }
            self.heap.swap(i, best);
            self.set_pos(i);
            i = best;
        }
        self.set_pos(i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, deadline: i64, work: f64) -> Job {
        Job::new(
            JobId(id),
            0,
            SimTime::ZERO,
            SimTime::from_whole_units(deadline),
            work,
        )
    }

    #[test]
    fn edf_ordering() {
        let mut q = EdfQueue::new();
        q.push(job(0, 30, 1.0));
        q.push(job(1, 10, 1.0));
        q.push(job(2, 20, 1.0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id().0)).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_by_release_order() {
        let mut q = EdfQueue::new();
        q.push(job(5, 10, 1.0));
        q.push(job(3, 10, 1.0));
        assert_eq!(q.pop().unwrap().id(), JobId(3));
        assert_eq!(q.pop().unwrap().id(), JobId(5));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.0));
        assert_eq!(q.peek().unwrap().id(), JobId(0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn contains_is_exact() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.0));
        q.push(job(2, 20, 1.0));
        assert!(q.contains(JobId(0)));
        assert!(!q.contains(JobId(1)));
        assert!(q.contains(JobId(2)));
        assert!(!q.contains(JobId(99)), "out-of-range id is absent");
        q.pop();
        assert!(!q.contains(JobId(0)), "popped job is absent");
    }

    #[test]
    fn remove_by_id() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.0));
        q.push(job(1, 20, 1.0));
        let removed = q.remove(JobId(0)).unwrap();
        assert_eq!(removed.id(), JobId(0));
        assert_eq!(q.len(), 1);
        assert!(q.remove(JobId(99)).is_none());
        assert!(q.remove(JobId(0)).is_none(), "double remove is None");
    }

    #[test]
    fn remove_interior_preserves_order() {
        let mut q = EdfQueue::new();
        for i in 0..32u64 {
            q.push(job(i, 64 - i as i64, 1.0));
        }
        for i in (0..32).step_by(3) {
            assert!(q.remove(JobId(i)).is_some());
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id().0)).collect();
        // Deadlines decrease with id, so survivors pop in reverse id order.
        let expected: Vec<u64> = (0..32).rev().filter(|i| i % 3 != 0).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn drain_expired_takes_due_jobs() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.0));
        q.push(job(1, 20, 1.0));
        q.push(job(2, 30, 1.0));
        let missed = q.drain_expired(SimTime::from_whole_units(20));
        let ids: Vec<u64> = missed.iter().map(|j| j.id().0).collect();
        assert_eq!(ids, vec![0, 1]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn drained_jobs_come_back_in_deadline_order() {
        // Regression for the old double-allocation drain: push in
        // scrambled order, drain, and require (deadline, id)-sorted
        // output — reused ids and deadline ties included.
        let mut q = EdfQueue::new();
        let deadlines = [40i64, 10, 30, 10, 20, 50, 20, 10];
        for (i, &d) in deadlines.iter().enumerate() {
            q.push(job(i as u64, d, 1.0));
        }
        let mut out = Vec::new();
        q.drain_expired_into(SimTime::from_whole_units(30), &mut out);
        let keys: Vec<(SimTime, JobId)> = out
            .iter()
            .map(|j| (j.absolute_deadline(), j.id()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "drain must yield deadline order");
        assert_eq!(out.len(), 6, "deadlines 10,10,10,20,20,30 are due");
        assert_eq!(q.len(), 2);
        // A second drain into the same buffer appends after the first.
        q.drain_expired_into(SimTime::from_whole_units(100), &mut out);
        assert_eq!(out.len(), 8);
        assert!(q.is_empty());
    }

    #[test]
    fn iter_yields_priority_order() {
        let mut q = EdfQueue::new();
        q.push(job(2, 30, 1.0));
        q.push(job(0, 10, 1.0));
        q.push(job(1, 20, 1.0));
        let ids: Vec<u64> = q.iter().map(|j| j.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn equality_ignores_heap_layout() {
        // Same jobs reached through different push/pop histories.
        let mut a = EdfQueue::new();
        a.push(job(0, 10, 1.0));
        a.push(job(1, 20, 1.0));
        a.push(job(2, 30, 1.0));

        let mut b = EdfQueue::new();
        b.push(job(3, 5, 1.0));
        b.push(job(2, 30, 1.0));
        b.push(job(1, 20, 1.0));
        b.push(job(0, 10, 1.0));
        b.remove(JobId(3));

        assert_eq!(a, b);
        b.pop();
        assert_ne!(a, b);
    }

    #[test]
    fn ids_are_reusable_after_removal() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.0));
        q.pop();
        q.push(job(0, 20, 2.0));
        assert_eq!(
            q.peek().unwrap().absolute_deadline(),
            SimTime::from_whole_units(20)
        );
    }

    #[test]
    fn total_remaining_work_sums() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.5));
        q.push(job(1, 20, 2.5));
        assert_eq!(q.total_remaining_work(), 4.0);
    }

    #[test]
    fn clear_keeps_capacity_and_replays_like_fresh() {
        let mut q = EdfQueue::new();
        for i in 0..64u64 {
            q.push(job(i, (64 - i) as i64, 1.0));
        }
        let warm = q.capacity();
        assert!(warm >= 64);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.capacity(), warm, "clear keeps the heap allocation");
        assert!(!q.contains(JobId(3)), "cleared ids are absent");
        // Ids restart from zero, exactly like a fresh queue.
        q.push(job(0, 10, 1.0));
        q.push(job(1, 5, 1.0));
        assert_eq!(q.pop().unwrap().id(), JobId(1));
        assert_eq!(q.pop().unwrap().id(), JobId(0));
    }

    #[test]
    #[should_panic(expected = "re-queued")]
    fn double_push_panics() {
        let mut q = EdfQueue::new();
        q.push(job(0, 10, 1.0));
        q.push(job(0, 10, 1.0));
    }
}
