//! `timerstudy` — the top-level experiment API of the reproduction.
//!
//! One call runs a paper workload on a simulated OS, streams its trace
//! through the analysis pipeline, and returns a [`Report`] with every
//! table and figure's data; the [`render`] module turns reports into the
//! paper's tables and ASCII figures, and [`figures`] packages one driver
//! per table/figure of the paper plus [`figures::reproduce`], the one
//! entry point the `bench` crate's `repro_all` binary calls to run them
//! all.
//!
//! ```
//! use timerstudy::{run_experiment, ExperimentSpec, Os};
//! use simtime::SimDuration;
//! use workloads::Workload;
//!
//! let result = run_experiment(ExperimentSpec::new(
//!     Os::Linux,
//!     Workload::Idle,
//!     SimDuration::from_secs(30),
//!     7,
//! ));
//! assert!(result.report.summary.accesses > 0);
//! ```
//!
//! Every experiment can additionally carry a [`FaultSpec`] — deterministic
//! trace-record drops, a mid-run network degradation burst, and/or clock
//! perturbation — via [`ExperimentSpec::with_faults`]; the fault
//! configuration is part of the cache key, and a disabled fault plane is
//! bit-identical to the clean path.

pub mod cache;
pub mod counterfactual;
pub mod experiment;
pub mod faults;
pub mod figures;
pub mod metrics;
pub mod parallel;
pub mod render;

pub use analysis::Report;
pub use cache::ExperimentCache;
pub use experiment::{
    run_experiment, run_experiments, ExperimentResult, ExperimentSpec, Os, ANALYSIS_CHUNK_EVENTS,
};
pub use faults::FaultSpec;
pub use metrics::{run_report, spec_label};
pub use parallel::{default_threads_for, run_experiments_parallel, run_experiments_parallel_with};
pub use workloads::Workload;

/// The paper's trace length: 30 minutes.
pub const PAPER_DURATION: simtime::SimDuration = simtime::SimDuration::from_secs(30 * 60);

/// The Figure 1 excerpt length: 90 seconds.
pub const FIG1_DURATION: simtime::SimDuration = simtime::SimDuration::from_secs(90);
