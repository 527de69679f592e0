//! The repository benchmark: end-to-end and per-layer measurements of the
//! default reproduction pipeline, taken from outside through its public
//! APIs. `README.md` beside this crate explains the workloads and metrics;
//! `BENCHMARK.json` at the repository root declares them.

pub mod compare;
pub mod config;
pub mod measure;
pub mod report;
pub mod stats;
pub mod traced;
pub mod workload;
