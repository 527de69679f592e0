//! Figure-level cross-wheel oracle: forcing every simulated subsystem
//! onto either timing wheel must leave each rendered table and figure —
//! and its CSV payload — byte-identical to the native run's. This is the
//! end-to-end half of the equivalence argument; the structure-level half
//! is `crates/wheel/tests/equivalence.rs`.
//!
//! Sim metrics are deliberately *not* asserted identical: the wheels
//! agree on every observable the figures are built from, but their
//! internal-churn counter (`wheel_cascades_total`) is wheel-specific.

use adaptive::AdaptivePolicy;
use simtime::SimDuration;
use telemetry::SimCounter;
use timerstudy::figures::{reproduce_all_adaptive_with_results, Artifact};
use timerstudy::{Backend, ExperimentResult, FaultSpec};

const SECS: u64 = 12;
const SEED: u64 = 7;

/// The nine paper experiments with `backend` forced onto every subsystem.
fn reproduce(duration: SimDuration, backend: Backend) -> (Vec<ExperimentResult>, Vec<Artifact>) {
    reproduce_all_adaptive_with_results(
        duration,
        SEED,
        FaultSpec::none(),
        backend,
        AdaptivePolicy::Off,
    )
}

#[test]
fn all_backends_render_byte_identical_figures() {
    let duration = SimDuration::from_secs(SECS);
    let (native_results, native) = reproduce(duration, Backend::Native);
    let native_counter =
        |c: SimCounter| -> u64 { native_results.iter().map(|r| r.metrics.counter(c)).sum() };
    assert!(
        native_counter(SimCounter::WheelSchedules) > 0,
        "the wheel counters must be live for the matrix to mean anything"
    );

    for backend in [Backend::Hierarchical, Backend::Hashed] {
        let (results, artifacts) = reproduce(duration, backend);
        assert_eq!(
            native.len(),
            artifacts.len(),
            "backend {} produced a different artifact set",
            backend.label()
        );
        for (n, a) in native.iter().zip(&artifacts) {
            assert_eq!(
                n.title,
                a.title,
                "backend {} artifact order",
                backend.label()
            );
            assert_eq!(
                n.printable(),
                a.printable(),
                "backend {} diverged on '{}'",
                backend.label(),
                n.title
            );
            assert_eq!(
                n.csv,
                a.csv,
                "backend {} CSV diverged on '{}'",
                backend.label(),
                n.title
            );
        }

        // The externally-observable timer traffic is identical; only the
        // structure-internal churn counter may differ.
        for c in [
            SimCounter::WheelSchedules,
            SimCounter::WheelCancels,
            SimCounter::WheelExpirations,
        ] {
            let forced: u64 = results.iter().map(|r| r.metrics.counter(c)).sum();
            assert_eq!(
                native_counter(c),
                forced,
                "backend {} changed {:?}",
                backend.label(),
                c
            );
        }
    }
}

#[test]
fn forced_backend_results_carry_backend_in_spec() {
    let duration = SimDuration::from_secs(2);
    let (results, _) = reproduce(duration, Backend::Hashed);
    assert!(!results.is_empty());
    for r in &results {
        assert_eq!(r.spec.backend, Backend::Hashed);
        assert!(
            timerstudy::spec_label(&r.spec).ends_with("backend=hashed"),
            "label must name the forced backend: {}",
            timerstudy::spec_label(&r.spec)
        );
    }
}
