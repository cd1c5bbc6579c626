//! Model-based property tests of the event queue.
//!
//! The reference model is a naive sorted-`Vec`: schedule appends with
//! the next sequence number, `alloc_seq` consumes one without appending,
//! and pop removes the `(time, seq)` minimum. Arbitrary interleavings of
//! schedule/alloc_seq/peek/pop — including bursts of same-instant ties —
//! must produce identical `(time, seq, payload)` sequences from both
//! implementations. `alloc_seq` and `peek_key` are what the engines'
//! side-stream merges rely on, so both are checked op by op.

use harvest_sim::event::EventQueue;
use harvest_sim::time::SimTime;
use proptest::prelude::*;

fn t(units: i64) -> SimTime {
    SimTime::from_whole_units(units)
}

/// The sorted-`Vec` reference: entries are `(time_units, seq, payload)`
/// and the pending minimum is recomputed from scratch on every query.
#[derive(Default)]
struct ModelQueue {
    live: Vec<(i64, u32, u32)>,
    next_seq: u32,
}

impl ModelQueue {
    fn alloc_seq(&mut self) -> u32 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn schedule(&mut self, time: i64, payload: u32) {
        let seq = self.alloc_seq();
        self.live.push((time, seq, payload));
    }

    fn pop(&mut self) -> Option<(i64, u32, u32)> {
        let i = self
            .live
            .iter()
            .enumerate()
            .min_by_key(|&(_, &(time, seq, _))| (time, seq))
            .map(|(i, _)| i)?;
        Some(self.live.swap_remove(i))
    }

    /// The `(time, seq)` minimum, as the queue reports it.
    fn peek_key(&self) -> Option<(SimTime, u32)> {
        self.live
            .iter()
            .map(|&(time, seq, _)| (time, seq))
            .min()
            .map(|(time, seq)| (t(time), seq))
    }
}

proptest! {
    /// Arbitrary schedule/alloc_seq/peek/pop interleavings agree with
    /// the model, operation by operation.
    #[test]
    fn event_queue_matches_sorted_vec_model(
        ops in proptest::collection::vec((0u8..8, 0i64..6), 1..250),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = 0i64;
        let mut next_payload = 0u32;

        for &(op, dt) in &ops {
            match op {
                // Weight scheduling heavily so queues actually grow;
                // dt is small so same-instant ties are common.
                0..=3 => {
                    let time = now + dt;
                    q.schedule(t(time), next_payload);
                    model.schedule(time, next_payload);
                    next_payload += 1;
                }
                4 => {
                    prop_assert_eq!(q.alloc_seq(), model.alloc_seq(), "claimed seq diverged");
                }
                5 => {
                    prop_assert_eq!(q.peek_key(), model.peek_key(), "peek_key diverged");
                }
                6 => {
                    let expected = model.pop();
                    let got = q.pop();
                    match (got, expected) {
                        (None, None) => {}
                        (Some((gt, gp)), Some((et, _, ep))) => {
                            prop_assert_eq!(gt, t(et), "pop time diverged");
                            prop_assert_eq!(gp, ep, "pop payload diverged");
                            now = et;
                        }
                        (got, expected) => prop_assert!(
                            false,
                            "pop mismatch: queue {:?}, model {:?}",
                            got,
                            expected
                        ),
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek_time(), model.peek_key().map(|(time, _)| time));
                    prop_assert_eq!(q.len(), model.live.len());
                    prop_assert_eq!(q.is_empty(), model.live.is_empty());
                }
            }
        }
        prop_assert_eq!(q.stats().scheduled, model.next_seq as u64);

        // Drain both to the end: the full remaining (time, payload)
        // sequence must match, ties resolved identically.
        loop {
            match (q.pop(), model.pop()) {
                (None, None) => break,
                (Some((gt, gp)), Some((et, _, ep))) => {
                    prop_assert_eq!(gt, t(et));
                    prop_assert_eq!(gp, ep);
                }
                (got, expected) => prop_assert!(
                    false,
                    "drain mismatch: queue {:?}, model {:?}",
                    got,
                    expected
                ),
            }
        }
        prop_assert_eq!(q.stats().popped, model.next_seq as u64);
    }
}

proptest! {
    // Each case replays 20 000 operations against the O(n)-scan model,
    // so a handful of seeds already dwarfs the scripted suite above;
    // more would only slow the tier-1 run.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Long runs grow the heap to thousands of pending events and
    /// shrink it again, so sifts cross many levels and keys span wide
    /// time ranges — depths that short scripted runs never reach.
    #[test]
    fn long_runs_match_model(seed in any::<u64>()) {
        let mut rng = seed | 1;
        let mut step = move |m: u64| {
            // xorshift64*: deterministic, cheap, decorrelated draws.
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 32) % m
        };
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut model = ModelQueue::default();
        let mut now = 0i64;

        for n in 0..20_000u32 {
            match step(10) {
                // Schedule near the present; dt 0 keeps ties frequent,
                // the occasional long jump spreads keys far apart.
                0..=4 => {
                    let dt = if step(16) == 0 { step(100_000) } else { step(8) };
                    let time = now + dt as i64;
                    q.schedule(t(time), n);
                    model.schedule(time, n);
                }
                5 => {
                    prop_assert_eq!(q.alloc_seq(), model.alloc_seq());
                }
                _ => {
                    let expected = model.pop();
                    let got = q.pop();
                    prop_assert_eq!(
                        got.map(|(gt, gp)| (gt.as_ticks(), gp)),
                        expected.map(|(et, _, ep)| (t(et).as_ticks(), ep))
                    );
                    if let Some((et, _, _)) = expected {
                        now = et;
                    }
                }
            }
            prop_assert_eq!(q.peek_key(), model.peek_key());
            prop_assert_eq!(q.len(), model.live.len());
        }
        while let Some((gt, gp)) = q.pop() {
            let (et, _, ep) = model.pop().expect("model drained early");
            prop_assert_eq!((gt, gp), (t(et), ep));
        }
        prop_assert!(model.pop().is_none(), "queue drained early");
    }
}
