//! Static utilization-based slowdown — the classic non-harvesting DVFS
//! baseline.

use harvest_cpu::LevelIndex;

use crate::scheduler::{Decision, SchedContext, Scheduler};

/// Runs every job at the slowest level whose speed covers the task-set
/// utilization (`S_n ≥ U`), the static voltage-scaling rule of
/// Pillai & Shin (RT-DVS). Energy-oblivious: it never consults the
/// store or the predictor, so it brackets EA-DVFS from the "pure DVFS,
/// no harvesting awareness" side.
///
/// EDF with speed `S ≥ U` keeps every implicit-deadline job schedulable,
/// so the only misses this policy suffers are energy-driven.
///
/// # Examples
///
/// ```
/// use harvest_core::policies::StaticSlowdownScheduler;
/// use harvest_core::scheduler::Scheduler;
/// use harvest_cpu::presets;
///
/// let s = StaticSlowdownScheduler::new(&presets::xscale(), 0.5);
/// assert_eq!(s.name(), "static-slowdown");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StaticSlowdownScheduler {
    level: LevelIndex,
}

impl StaticSlowdownScheduler {
    /// Creates the policy for a processor and a task-set utilization.
    ///
    /// # Panics
    ///
    /// Panics if `utilization` is outside `(0, 1]`.
    pub fn new(cpu: &harvest_cpu::CpuModel, utilization: f64) -> Self {
        assert!(
            utilization > 0.0 && utilization <= 1.0,
            "utilization must lie in (0, 1]"
        );
        let level = (0..cpu.level_count())
            .find(|&n| cpu.speed(n) >= utilization)
            .unwrap_or_else(|| cpu.max_level());
        StaticSlowdownScheduler { level }
    }
}

impl Scheduler for StaticSlowdownScheduler {
    fn decide(&mut self, _ctx: &SchedContext<'_>) -> Decision {
        Decision::run(self.level)
    }

    fn name(&self) -> &str {
        "static-slowdown"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::test_util::{job, CtxFixture};
    use harvest_cpu::presets;

    #[test]
    fn picks_slowest_covering_level() {
        let cpu = presets::xscale();
        assert_eq!(StaticSlowdownScheduler::new(&cpu, 0.1).level, 0); // S=0.15
        assert_eq!(StaticSlowdownScheduler::new(&cpu, 0.4).level, 1); // S=0.4
        assert_eq!(StaticSlowdownScheduler::new(&cpu, 0.41).level, 2); // S=0.6
        assert_eq!(StaticSlowdownScheduler::new(&cpu, 1.0).level, 4);
    }

    #[test]
    fn always_runs_at_its_level() {
        let f = CtxFixture::new(presets::xscale(), 0.0, 100.0, 0.0, job(16, 4.0));
        let mut s = StaticSlowdownScheduler::new(&presets::xscale(), 0.4);
        assert_eq!(s.decide(&f.ctx()), Decision::run(1));
    }

    #[test]
    #[should_panic(expected = "utilization")]
    fn rejects_overload() {
        let _ = StaticSlowdownScheduler::new(&presets::xscale(), 1.5);
    }
}
