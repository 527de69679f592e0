//! Parallel experiment execution.
//!
//! Every experiment is a pure function of its [`ExperimentSpec`]: the
//! kernel, workload calendar, RNG, and trace sink are all constructed
//! inside [`run_experiment`] and owned exclusively by the run (sinks are
//! `Send` and never shared — see `trace::TraceSink`). Fanning specs out
//! over a scoped thread pool therefore changes wall-clock time and
//! nothing else; `tests/mode_matrix.rs` enforces bit-for-bit equality
//! against the serial path in [`crate::experiment::run_experiments`].
//!
//! Workers pull spec indices from a shared atomic counter (work
//! stealing), send `(index, result)` pairs over a channel, and the
//! caller reassembles results in spec order, so scheduling jitter can
//! never reorder the output.

use std::num::NonZeroUsize;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use crate::experiment::{run_experiment, ExperimentResult, ExperimentSpec};

/// Renders a caught panic payload for the failure report.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Picks the worker count: the `REPRO_THREADS` environment variable when
/// set (and non-zero), otherwise the machine's available parallelism,
/// never more than the number of specs.
pub fn default_threads(specs: usize) -> usize {
    let hw = std::env::var("REPRO_THREADS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1)
        });
    hw.min(specs).max(1)
}

/// [`default_threads`] for a concrete spec batch: one worker per spec at
/// most.
pub fn default_threads_for(specs: &[ExperimentSpec]) -> usize {
    default_threads(specs.len())
}

/// Runs `specs` across a scoped worker pool, returning results in spec
/// order. Bit-identical to [`run_experiments`](crate::experiment::run_experiments).
pub fn run_experiments_parallel(specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
    run_experiments_parallel_with(specs, default_threads_for(specs))
}

/// [`run_experiments_parallel`] with an explicit worker count.
pub fn run_experiments_parallel_with(
    specs: &[ExperimentSpec],
    threads: usize,
) -> Vec<ExperimentResult> {
    if specs.is_empty() {
        return Vec::new();
    }
    let threads = threads.clamp(1, specs.len());
    if threads == 1 {
        return crate::experiment::run_experiments(specs);
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<ExperimentResult, String>)>();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            scope.spawn(move |_| {
                loop {
                    let queue_wait = telemetry::span("parallel.queue_wait");
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&spec) = specs.get(index) else { break };
                    drop(queue_wait);
                    // Catch a panicking experiment so the caller can say
                    // WHICH spec failed instead of dying on a bare join
                    // error; the worker keeps draining the queue so the
                    // other results still come back.
                    let _worker_busy = telemetry::span("parallel.worker_busy");
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run_experiment(spec)))
                        .map_err(|payload| panic_message(payload.as_ref()));
                    // A send only fails if the receiver is gone, which
                    // cannot happen while the scope holds `rx` alive.
                    let _ = tx.send((index, outcome));
                }
            });
        }
    })
    .expect("experiment worker thread failed outside catch_unwind");
    drop(tx);
    let mut slots: Vec<Option<ExperimentResult>> = (0..specs.len()).map(|_| None).collect();
    let mut failures: Vec<(usize, String)> = Vec::new();
    for (index, outcome) in rx {
        match outcome {
            Ok(result) => slots[index] = Some(result),
            Err(message) => failures.push((index, message)),
        }
    }
    if !failures.is_empty() {
        failures.sort_by_key(|&(index, _)| index);
        let details: Vec<String> = failures
            .iter()
            .map(|(index, message)| format!("  spec {:?}: {message}", specs[*index]))
            .collect();
        panic!(
            "{} experiment worker(s) panicked:\n{}",
            failures.len(),
            details.join("\n")
        );
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every spec index was claimed by exactly one worker"))
        .collect()
}
