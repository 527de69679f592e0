//! Parallel and cached execution render the serial reference's artifacts
//! byte for byte: the text and CSV `repro_all` prints.
//!
//! A row of the mode matrix (`tests/matrix/mod.rs`); the matrix's pool
//! and `fresh_cache` rows check every other plane.

mod matrix;

use timerstudy::cache::ExperimentCache;
use timerstudy::parallel::run_experiments_parallel_with;
use timerstudy::{ExperimentResult, ExperimentSpec};

use matrix::mode_matrix;
use matrix::Check::*;

/// The 4-thread pool, then a fresh cache.
fn pool_then_fresh_cache(specs: &[ExperimentSpec]) -> Vec<Vec<ExperimentResult>> {
    let parallel = run_experiments_parallel_with(specs, 4);
    let cached = ExperimentCache::new().run_all(specs);
    vec![parallel, cached]
}

mode_matrix! {
    // row: base, spec transform, runner, checks;
    rendered_artifacts_identical_across_paths: Paper, |s| s, pool_then_fresh_cache, &[Artifacts];
}
