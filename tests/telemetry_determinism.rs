//! Sim-plane metrics are pure functions of an `ExperimentSpec`: they are
//! derived only from virtual time and event counts, never from
//! wall-clock time or thread scheduling. So run reports over a serial and
//! a parallel run of the same specs agree on their canonical `sim`
//! sections, even when their wall-plane inputs (mode, threads, wall time)
//! differ.
//!
//! A row of the mode matrix (`tests/matrix/mod.rs`): its Sim check builds
//! both run reports, validates them against the schema and compares the
//! canonical sections, after comparing each experiment's snapshot.

mod matrix;

use matrix::Check::*;
use matrix::{mode_matrix, pool};

mode_matrix! {
    // row: base, spec transform, runner, checks;
    run_reports_agree_on_the_canonical_sim_section: Paper, |s| s, pool::<4>, &[Sim];
}
