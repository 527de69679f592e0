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
//! Workers claim specs from a shared atomic counter (work stealing) in
//! descending order of `ExperimentSpec::cost_hint`, so the experiment
//! that sets the batch's critical path starts first instead of whenever
//! its position in the batch comes up. They send `(index, result)` pairs
//! over a channel, and the caller reassembles results in spec order, so
//! neither the claim order nor scheduling jitter can reorder the output.

use std::cmp::Reverse;
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
    run_pool(specs, threads, run_experiment)
}

/// Spec indices in the order the pool claims them: costliest first by
/// [`ExperimentSpec::cost_hint`], ties in spec order.
fn claim_order(specs: &[ExperimentSpec]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..specs.len()).collect();
    order.sort_by_key(|&i| Reverse(specs[i].cost_hint()));
    order
}

/// Runs `run` over `specs` on `threads` scoped workers claiming in
/// [`claim_order`], returning the results in spec order. A panicking run
/// fails the batch with a message naming every spec that panicked.
fn run_pool<R: Send>(
    specs: &[ExperimentSpec],
    threads: usize,
    run: impl Fn(ExperimentSpec) -> R + Sync,
) -> Vec<R> {
    let order = claim_order(specs);
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<R, String>)>();
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (next, order, run) = (&next, &order, &run);
            scope.spawn(move |_| {
                loop {
                    let queue_wait = telemetry::span("parallel.queue_wait");
                    let Some(&index) = order.get(next.fetch_add(1, Ordering::Relaxed)) else {
                        break;
                    };
                    drop(queue_wait);
                    // Catch a panicking experiment so the caller can say
                    // WHICH spec failed instead of dying on a bare join
                    // error; the worker keeps draining the queue so the
                    // other results still come back.
                    let _worker_busy = telemetry::span("parallel.worker_busy");
                    let outcome = panic::catch_unwind(AssertUnwindSafe(|| run(specs[index])))
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
    let mut slots: Vec<Option<R>> = (0..specs.len()).map(|_| None).collect();
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

#[cfg(test)]
mod tests {
    use std::sync::Mutex;

    use simtime::SimDuration;

    use super::*;
    use crate::experiment::Os;
    use crate::Workload;

    /// Four specs of rising cost, so the costliest is last in spec order.
    fn batch() -> Vec<ExperimentSpec> {
        let secs = SimDuration::from_secs(60);
        vec![
            ExperimentSpec::new(Os::Linux, Workload::Idle, secs, 7),
            ExperimentSpec::new(Os::Linux, Workload::Webserver, secs, 7),
            ExperimentSpec::new(Os::Vista, Workload::Skype, secs, 7),
            ExperimentSpec::new(Os::Vista, Workload::Firefox, secs, 7),
        ]
    }

    #[test]
    fn claims_costliest_first_and_returns_in_spec_order() {
        let specs = batch();
        // One worker makes the claim sequence observable exactly.
        let claimed = Mutex::new(Vec::new());
        let results = run_pool(&specs, 1, |spec| {
            claimed.lock().expect("no claim panics").push(spec);
            spec
        });
        let claimed = claimed.into_inner().expect("the pool has finished");
        assert_eq!(claimed, [specs[3], specs[2], specs[1], specs[0]]);
        assert_eq!(results, specs);
        // Several workers still hand results back in spec order.
        assert_eq!(run_pool(&specs, 3, |spec| spec), specs);
    }

    #[test]
    fn paper_batch_starts_with_vista_firefox() {
        let specs = crate::figures::paper_specs(crate::PAPER_DURATION, 7);
        let order: Vec<(Os, Workload)> = claim_order(&specs)
            .into_iter()
            .map(|i| (specs[i].os, specs[i].workload))
            .collect();
        // The order of the experiments' traced host times at full length.
        assert_eq!(
            order,
            [
                (Os::Vista, Workload::Firefox),
                (Os::Linux, Workload::Firefox),
                (Os::Vista, Workload::Skype),
                (Os::Linux, Workload::Webserver),
                (Os::Linux, Workload::Skype),
                (Os::Vista, Workload::Webserver),
                (Os::Vista, Workload::Idle),
                (Os::Vista, Workload::Outlook),
                (Os::Linux, Workload::Idle),
            ]
        );
    }

    #[test]
    fn equal_costs_keep_spec_order() {
        let spec = batch()[1];
        let specs: Vec<ExperimentSpec> = (0..4).map(|t| spec.for_trial(t)).collect();
        assert_eq!(claim_order(&specs), [0, 1, 2, 3]);
    }

    #[test]
    fn a_panicking_spec_is_named() {
        let specs = batch();
        let bad = specs[1];
        let payload = panic::catch_unwind(|| {
            run_pool(&specs, 2, |spec| {
                if spec == bad {
                    panic!("injected failure");
                }
                spec
            })
        })
        .expect_err("the batch fails");
        let message = panic_message(payload.as_ref());
        assert!(
            message.starts_with("1 experiment worker(s) panicked:"),
            "{message}"
        );
        assert!(
            message.contains(&format!("spec {bad:?}: injected failure")),
            "{message}"
        );
    }
}
