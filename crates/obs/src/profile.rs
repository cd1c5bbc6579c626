//! Scoped wall-clock phase timers.
//!
//! The engine loop and the system model time their phases (event dispatch,
//! policy decision, energy update) by stamping `Instant::now()` around the
//! phase body and recording the elapsed duration here. The profiler is held
//! as an `Option<_>` by its owner, so a disabled run pays one branch per
//! phase boundary and zero clock reads.

use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Aggregating profiler: a small ordered set of named phases, each with call
/// count and total/max elapsed nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct PhaseProfiler {
    phases: Vec<(&'static str, Acc)>,
}

#[derive(Debug, Clone, Copy, Default)]
struct Acc {
    calls: u64,
    total_ns: u64,
    max_ns: u64,
}

impl PhaseProfiler {
    /// Stamp the start of a phase. Pure convenience over `Instant::now()`.
    #[inline]
    pub fn start() -> Instant {
        Instant::now()
    }

    /// Record one completed phase invocation that started at `t0`.
    #[inline]
    pub fn stop(&mut self, name: &'static str, t0: Instant) {
        self.record(name, t0.elapsed());
    }

    /// Record one completed phase invocation of known duration.
    pub(crate) fn record(&mut self, name: &'static str, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
        let acc = match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, acc)) => acc,
            None => {
                self.phases.push((name, Acc::default()));
                &mut self.phases.last_mut().expect("just pushed").1
            }
        };
        acc.calls += 1;
        acc.total_ns += ns;
        if ns > acc.max_ns {
            acc.max_ns = ns;
        }
    }

    /// Merge another profiler's accumulators into this one (same-named
    /// phases add; new phases append in the other's order).
    pub fn merge(&mut self, other: &PhaseProfiler) {
        for (name, acc) in &other.phases {
            match self.phases.iter_mut().find(|(n, _)| n == name) {
                Some((_, mine)) => {
                    mine.calls += acc.calls;
                    mine.total_ns += acc.total_ns;
                    mine.max_ns = mine.max_ns.max(acc.max_ns);
                }
                None => self.phases.push((name, *acc)),
            }
        }
    }

    /// Freeze into a serializable summary, preserving first-seen order.
    pub fn summary(&self) -> PhaseProfile {
        PhaseProfile {
            phases: self
                .phases
                .iter()
                .map(|(name, acc)| PhaseStat {
                    name: (*name).to_owned(),
                    calls: acc.calls,
                    total_ns: acc.total_ns,
                    max_ns: acc.max_ns,
                })
                .collect(),
        }
    }
}

/// Aggregated timing for one named phase.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseStat {
    pub name: String,
    pub calls: u64,
    pub total_ns: u64,
    pub max_ns: u64,
}

impl PhaseStat {}

/// Serializable profile summary for a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PhaseProfile {
    pub phases: Vec<PhaseStat>,
}

impl PhaseProfile {
    pub fn get(&self, name: &str) -> Option<&PhaseStat> {
        self.phases.iter().find(|p| p.name == name)
    }

    pub fn total_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.total_ns).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_aggregates() {
        let mut p = PhaseProfiler::default();
        p.record("dispatch", Duration::from_nanos(100));
        p.record("dispatch", Duration::from_nanos(300));
        p.record("decide", Duration::from_nanos(50));
        let s = p.summary();
        assert_eq!(s.phases.len(), 2);
        let d = s.get("dispatch").unwrap();
        assert_eq!(d.calls, 2);
        assert_eq!(d.total_ns, 400);
        assert_eq!(d.max_ns, 300);
        assert_eq!(s.total_ns(), 450);
    }

    #[test]
    fn merge_adds_and_appends() {
        let mut a = PhaseProfiler::default();
        a.record("x", Duration::from_nanos(10));
        let mut b = PhaseProfiler::default();
        b.record("x", Duration::from_nanos(30));
        b.record("y", Duration::from_nanos(5));
        a.merge(&b);
        let s = a.summary();
        assert_eq!(s.get("x").unwrap().calls, 2);
        assert_eq!(s.get("x").unwrap().total_ns, 40);
        assert_eq!(s.get("y").unwrap().calls, 1);
    }

    #[test]
    fn stopwatch_measures_something() {
        let mut p = PhaseProfiler::default();
        let t0 = PhaseProfiler::start();
        std::hint::black_box((0..1000).sum::<u64>());
        p.stop("work", t0);
        let s = p.summary();
        assert_eq!(s.get("work").unwrap().calls, 1);
    }
}
