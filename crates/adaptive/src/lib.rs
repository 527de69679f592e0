//! Adaptive timeouts and richer timer interfaces — the paper's Section 5
//! proposals, built as a reusable library.
//!
//! The study's headline negative result is that almost no timer values
//! are derived from measurement: they are fixed, round, human numbers
//! ("30 seconds"), with TCP's retransmission timer the lone adaptive
//! example. Section 5 sketches what a better timer subsystem would offer;
//! this crate implements those sketches:
//!
//! * [`quantile`] — a streaming P² quantile estimator, the learning core;
//! * [`estimator`] — §5.1's *adaptive timeout*: "time out once the system
//!   is 99 % confident that a message will never be arriving", with
//!   level-shift detection for environment changes (LAN → WAN);
//! * [`rtt`] — the Jacobson/Karels smoother, which both kernel models'
//!   TCP stacks hold, and an estimator around it with Karn's rule: the
//!   existing adaptive timer the paper holds up as the model;
//! * [`backoff`] — capped exponential backoff, the RTT estimator's
//!   retransmit schedule;
//! * [`deps`] — §5.2's timeout provenance and dependency relations:
//!   overlap rules (a)/(b)/(c), dependency edges and provenance chains;
//! * [`timespec`] — §5.3's "better notion of time": exact instants,
//!   windows and *any time after*, and a wakeup coalescer that exploits
//!   that looseness to batch expiries (the `round_jiffies`/deferrable
//!   generalisation);
//! * [`usecase`] — §5.4's use-case-specific interfaces: RAII timeout
//!   guards (the Win32 auto-object idiom) with nested-timeout elision.
//!
//! §5.5's end-game, one dispatcher that subsumes every timer use case, is
//! not built: no run of the reproduction would call it.

pub mod backoff;
pub mod deps;
pub mod estimator;
pub mod policy;
pub mod quantile;
pub mod rtt;
pub mod timespec;
pub mod usecase;

pub use backoff::ExponentialBackoff;
pub use estimator::AdaptiveTimeout;
pub use policy::AdaptivePolicy;
pub use rtt::{RttEstimator, RttSmoother};
pub use timespec::{Coalescer, TimeSpec};
pub use usecase::TimeoutGuard;
