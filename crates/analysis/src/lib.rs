//! The trace-analysis pipeline (paper Sections 3–4).
//!
//! Everything is *streaming*: [`TraceAnalyzer::push_chunk`] is the one
//! fold, so a 30-minute, multi-million-event workload run feeds it one
//! bounded chunk at a time and memory stays bounded by the number of
//! distinct timers, origins and histogram buckets — never by trace length.
//!
//! Components, one per analysis the paper performs:
//!
//! * [`summary`] — Tables 1 and 2: allocated timers, maximum concurrency,
//!   accesses (user/kernel), set/expired/canceled counts, plus the
//!   timers-per-second series behind Figure 1;
//! * [`lifecycle`] — the one table of per-timer state, keyed by timer
//!   address: reconstructs set → (expire | cancel | re-set) episodes,
//!   the raw material for everything below, and holds each timer's
//!   countdown chain and, on Linux, its pattern cluster;
//! * [`classify`] — the usage-pattern taxonomy of §4.1.1: periodic,
//!   watchdog, delay, timeout, deferred, other, with the experimentally
//!   determined 2 ms jitter tolerance, as one cluster's state;
//! * [`values`] — the commonly-used-value histograms of §4.2 (Figures 3,
//!   5, 6, 7), fed by one pass, with the ≥ 2 % reporting rule, the
//!   X/icewm filter and the one 0.1 ms bucket rule;
//! * [`countdown`] — detection of the `select` countdown idiom and the
//!   Figure 4 dot-plot series;
//! * [`scatter`] — the set-value versus percent-of-value-at-end scatter
//!   data of Figures 8–11 (250 % cut-off, immediate-expiry exclusion);
//! * [`provenance`] — the one table of per-origin state, indexed by
//!   origin id: Table 3 (which origin sets which frequent value, and how
//!   that origin classifies) and, on Vista, the per-process pattern
//!   clusters.
//!
//! [`TraceAnalyzer`] composes all of them behind that one fold.

pub mod analyzer;
pub mod attribution;
pub mod classify;
pub mod countdown;
pub mod lifecycle;
pub mod provenance;
pub mod scatter;
pub mod summary;
pub mod values;

pub use analyzer::{AnalyzerConfig, ClusterMode, Report, TraceAnalyzer};
pub use attribution::AttributionTracker;
pub use classify::{PatternClass, PatternMix};
pub use lifecycle::{Outcome, Sample};
