//! Cross-wheel equivalence of the `/proc/timer_list` snapshot plane.
//!
//! Every [`wheel::TimerQueue`] reports *armed expiries* from its per-timer
//! bookkeeping, so at any capture instant the pending `(expiry, id)`
//! multiset of every simulated timer queue must be identical whichever
//! wheel a spec forces.

use simtime::SimDuration;
use timerstudy::{run_experiment_with_timer_list, ExperimentSpec, Os, Workload};
use wheel::Backend;

const INSTANTS: [u64; 2] = [1_500_000_000, 3_000_000_000];

fn spec(os: Os, backend: Backend) -> ExperimentSpec {
    ExperimentSpec::new(os, Workload::Webserver, SimDuration::from_secs(4), 7).with_backend(backend)
}

/// The backend-invariant view of one run's captures: per capture, the
/// instant plus each queue's name and pending multiset.
type CaptureView = Vec<(u64, Vec<(String, Vec<(u64, u64)>)>)>;

fn capture_view(os: Os, backend: Backend) -> CaptureView {
    let (_, captures) = run_experiment_with_timer_list(spec(os, backend), &INSTANTS);
    assert_eq!(
        captures.len(),
        INSTANTS.len(),
        "{} on {} captured {} of {} requested instants",
        os.label(),
        backend.label(),
        captures.len(),
        INSTANTS.len()
    );
    captures
        .iter()
        .map(|c| {
            (
                c.at_nanos,
                c.queues
                    .iter()
                    .map(|q| (q.name.clone(), q.pending_multiset()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn all_backends_report_identical_pending_multisets() {
    let backends = [Backend::Native, Backend::Hierarchical, Backend::Hashed];
    for os in [Os::Linux, Os::Vista] {
        let baseline = capture_view(os, Backend::Native);
        assert!(
            baseline
                .iter()
                .any(|(_, queues)| queues.iter().any(|(_, pending)| !pending.is_empty())),
            "{}: baseline captures must show pending timers",
            os.label()
        );
        for backend in backends {
            let view = capture_view(os, backend);
            assert_eq!(
                baseline,
                view,
                "{} pending multisets differ between native and {}",
                os.label(),
                backend.label()
            );
        }
    }
}

#[test]
fn renders_are_deterministic_across_repeated_runs() {
    for os in [Os::Linux, Os::Vista] {
        let (_, first) = run_experiment_with_timer_list(spec(os, Backend::Native), &INSTANTS);
        let (_, second) = run_experiment_with_timer_list(spec(os, Backend::Native), &INSTANTS);
        let a: Vec<String> = first.iter().map(wheel::TimerListCapture::render).collect();
        let b: Vec<String> = second.iter().map(wheel::TimerListCapture::render).collect();
        assert_eq!(
            a,
            b,
            "{} timer-list renders must be reproducible",
            os.label()
        );
    }
}

#[test]
fn forced_wheels_render_byte_identically() {
    // Even the full renders — origins, pids, tick counts — must match.
    for os in [Os::Linux, Os::Vista] {
        let (_, hierarchical) =
            run_experiment_with_timer_list(spec(os, Backend::Hierarchical), &INSTANTS);
        let (_, hashed) = run_experiment_with_timer_list(spec(os, Backend::Hashed), &INSTANTS);
        let a: Vec<String> = hierarchical
            .iter()
            .map(wheel::TimerListCapture::render)
            .collect();
        let b: Vec<String> = hashed.iter().map(wheel::TimerListCapture::render).collect();
        assert_eq!(a, b);
    }
}
