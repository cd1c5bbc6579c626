//! # harvest-exp — the paper's evaluation, regenerated
//!
//! Everything needed to reproduce §5 of the EA-DVFS paper:
//!
//! * [`scenario`] — the §5.1 setup (XScale CPU, eq. 13 solar source,
//!   5-task workloads, 10 000-unit horizon) behind one seeded knob.
//! * [`figures`] — one driver per paper figure/table (Figs. 5–9,
//!   Table 1) plus the robustness campaign. Each takes a
//!   [`RunPlan`] (worker threads, optional store, telemetry) and returns
//!   the figure with its execution stats; the library never reads the
//!   store from the environment itself.
//! * [`parallel`] — deterministic multi-threaded trial fan-out, with a
//!   quarantining mode that contains per-cell panics.
//! * [`cache`] — canonical trial keys, parsed back to the cell they
//!   name, and the persisted trial summary.
//! * [`store`] — the pack-file result store, the one persistence layer:
//!   segment-packed decided cells, batch probes for figure sweeps, and
//!   the resume records of kill-and-resume campaigns.
//! * [`telemetry`] — the campaign observer bundle: span tracing with
//!   Chrome-trace export and live progress streaming
//!   (`exp sweep --trace/--progress`). A failed cell is replayed from
//!   its key with `exp record --key`.
//! * [`report`] — aligned tables, ASCII plots, CSV.
//! * [`record`] — the provenance envelope of a figure's `--json` data.
//! * [`artifact`] — the JSONL run-artifact schema behind `exp record`
//!   / `exp inspect` / `exp diff`.
//!
//! The crate's one binary, `exp`, regenerates each figure and table
//! (`exp fig5` … `exp fig9`, `exp table1`), the whole evaluation
//! (`exp repro-all`) and its PASS/FAIL check (`exp validate`), and
//! records, inspects, sweeps and reports on runs and stores.
//!
//! # Examples
//!
//! ```
//! use harvest_exp::scenario::{PaperScenario, PolicyKind};
//!
//! // One seeded trial of the Fig. 8 setting (U = 0.4, C = 500).
//! let result = PaperScenario::new(0.4, 500.0).run(PolicyKind::EaDvfs, 0);
//! assert!(result.released() > 0);
//! ```
//!
//! [`RunPlan`]: figures::RunPlan

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod cache;
pub mod figures;
pub mod parallel;
pub mod record;
pub mod report;
pub mod scenario;
pub mod store;
pub mod telemetry;

/// Shared helpers for unit tests that mutate process-global state
/// (currently environment variables).
#[cfg(test)]
mod test_support {
    use std::collections::HashMap;
    use std::sync::{Mutex, MutexGuard, OnceLock};

    static ENV_LOCK: OnceLock<Mutex<()>> = OnceLock::new();

    /// Serializes every test that reads or writes process-global
    /// environment variables (`HARVEST_THREADS`, `HARVEST_SWEEP_STORE`,
    /// …). `std::env::set_var` is process-wide, so unsynchronized tests
    /// race; take this lock around *both* mutation and the code under
    /// test. Poisoning is ignored: a panicked test must not cascade.
    pub(crate) fn env_lock() -> MutexGuard<'static, ()> {
        ENV_LOCK
            .get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Runs `f` with each `(key, value)` pair applied (`None` removes
    /// the variable), holding [`env_lock`] throughout, and restores the
    /// prior values afterwards — also on panic, via a drop guard.
    pub(crate) fn with_env<R>(pairs: &[(&str, Option<&str>)], f: impl FnOnce() -> R) -> R {
        struct Restore {
            saved: HashMap<String, Option<String>>,
            _guard: MutexGuard<'static, ()>,
        }
        impl Drop for Restore {
            fn drop(&mut self) {
                for (key, value) in &self.saved {
                    match value {
                        Some(v) => std::env::set_var(key, v),
                        None => std::env::remove_var(key),
                    }
                }
            }
        }
        let restore = Restore {
            saved: pairs
                .iter()
                .map(|(k, _)| (k.to_string(), std::env::var(k).ok()))
                .collect(),
            _guard: env_lock(),
        };
        for (key, value) in pairs {
            match value {
                Some(v) => std::env::set_var(key, v),
                None => std::env::remove_var(key),
            }
        }
        let out = f();
        drop(restore);
        out
    }
}
