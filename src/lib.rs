//! # harvest-rt — energy-harvesting real-time scheduling in Rust
//!
//! A complete, production-quality reproduction of **"Energy Aware
//! Dynamic Voltage and Frequency Selection for Real-Time Systems with
//! Energy Harvesting"** (Liu, Qiu, Wu — DATE 2008): the EA-DVFS
//! scheduling policy, its LSA and EDF baselines, and every substrate the
//! paper's evaluation needs — a deterministic discrete-event kernel,
//! stochastic solar-source models, energy predictors, storage models, a
//! DVFS processor model, a periodic-workload generator, and the full
//! experiment harness regenerating Figures 5–9 and Table 1.
//!
//! This crate is a facade: it re-exports each workspace crate's public
//! items under one roof so applications can depend on `harvest-rt`
//! alone. An item of a library crate is public only when a target
//! outside that crate uses it (another crate, a binary, an example or
//! test, or the campaign benchmark); everything else is crate-private,
//! so the compiler's dead-code lint checks it.
//!
//! | Module | Backing crate | Contents |
//! |--------|---------------|----------|
//! | [`sim`] | `harvest-sim` | time, event queue, engine, piecewise functions, stats |
//! | [`energy`] | `harvest-energy` | sources, predictors, storage |
//! | [`cpu`] | `harvest-cpu` | DVFS processor models and presets |
//! | [`task`] | `harvest-task` | tasks, jobs, EDF queue, workload generator |
//! | [`core`] | `harvest-core` | EA-DVFS + baselines, the closed-loop simulator |
//! | [`obs`] | `harvest-obs` | metrics registry, phase profiling, JSONL export, timelines |
//! | [`exp`] | `harvest-exp` | figure/table reproduction harness |
//!
//! # Quickstart
//!
//! ```
//! use harvest_rt::prelude::*;
//!
//! // Build the paper's §5.1 world: XScale CPU, eq. 13 solar source,
//! // 5 periodic tasks at 40% utilization, 500-capacity storage.
//! let scenario = PaperScenario::new(0.4, 500.0);
//! let lsa = scenario.run(PolicyKind::Lsa, 0);
//! let ea = scenario.run(PolicyKind::EaDvfs, 0);
//! assert!(ea.miss_rate() <= lsa.miss_rate());
//! ```

#![warn(missing_docs)]

/// Deterministic discrete-event simulation kernel (re-export of
/// `harvest-sim`).
pub mod sim {
    pub use harvest_sim::*;
}

/// Energy-harvesting models: sources, predictors, storage (re-export of
/// `harvest-energy`).
pub mod energy {
    pub use harvest_energy::*;
}

/// DVFS processor models (re-export of `harvest-cpu`).
pub mod cpu {
    pub use harvest_cpu::*;
}

/// Real-time task model (re-export of `harvest-task`).
pub mod task {
    pub use harvest_task::*;
}

/// EA-DVFS, baselines, and the closed-loop simulator (re-export of
/// `harvest-core`).
pub mod core {
    pub use harvest_core::*;
}

/// Observability: metrics registry, phase profiling, JSONL export, run
/// timelines (re-export of `harvest-obs`).
pub mod obs {
    pub use harvest_obs::*;
}

/// Experiment harness reproducing the paper's evaluation (re-export of
/// `harvest-exp`).
pub mod exp {
    pub use harvest_exp::*;
}

/// The names most applications need.
pub mod prelude {
    pub use harvest_core::config::{MissPolicy, SystemConfig};
    pub use harvest_core::policies::{
        EaDvfsScheduler, EdfScheduler, GreedyStretchScheduler, LazyScheduler,
        StaticSlowdownScheduler,
    };
    pub use harvest_core::result::{JobOutcome, SimResult};
    pub use harvest_core::scheduler::{Decision, SchedContext, Scheduler};
    pub use harvest_core::system::simulate;
    pub use harvest_cpu::{presets, CpuModel, FrequencyLevel, PowerLaw};
    pub use harvest_energy::predictor::{
        BiasedPredictor, EnergyPredictor, EwmaSlotPredictor, MovingAveragePredictor,
        OraclePredictor, PersistencePredictor,
    };
    pub use harvest_energy::source::{sample_profile, HarvestSource};
    pub use harvest_energy::sources::{
        ConstantSource, DayNightSource, MarkovWeatherSource, SolarModel, TraceSource,
    };
    pub use harvest_energy::storage::{Storage, StorageSpec};
    pub use harvest_exp::scenario::{PaperScenario, PolicyKind, PredictorKind};
    pub use harvest_sim::piecewise::{Extension, PiecewiseConstant};
    pub use harvest_sim::time::{SimDuration, SimTime};
    pub use harvest_task::generator::WorkloadSpec;
    pub use harvest_task::task::Task;
    pub use harvest_task::taskset::TaskSet;
}
