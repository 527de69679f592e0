//! relayfs/ETW-style timer instrumentation.
//!
//! Section 3 of the paper is about *methodology*: how to log every timer
//! set, cancellation and expiry with enough provenance (stack, process,
//! timer address) to reconstruct usage patterns, at negligible overhead
//! (236 cycles per record, < 0.1 % CPU on Linux). This crate reproduces
//! that logging design for the simulated kernels:
//!
//! * [`event`] — the unified event model: one record per timer operation,
//!   carrying the timer's address, the requested timeout, the absolute
//!   expiry, an interned provenance (call-site) id, process/thread ids and
//!   whether the call came from user space or the kernel.
//! * [`strings`] — a string interner for provenance labels and process
//!   names, mirroring how the real traces post-process stacks into
//!   call-site clusters.
//! * [`codec`] — a fixed-size binary record encoding comparable to the
//!   relayfs record the authors used, and its one decoder, which
//!   validates length and kind.
//! * [`ring`] — a non-overwriting ring buffer (relayfs semantics: ordering
//!   guaranteed, new events are dropped — and counted — rather than
//!   overwriting old ones).
//! * [`logger`] — the [`TraceLog`] facade the simulated kernels call, and
//!   the [`TraceSink`] abstraction that lets large experiments stream
//!   events directly into analysis without materialising gigabytes.
//! * [`reader`] — decodes a ring back into events, strictly
//!   ([`reader::decode_all`] refuses a damaged ring) or record by record,
//!   so a consumer can skip and count damaged records.
//! * [`text`] — the offline binary→text converter of §3.2, for external
//!   tooling.
//! * [`faults`] — deterministic trace-plane fault injection: seeded
//!   record drops with overflow-burst semantics plus clock perturbation,
//!   wrapped around any sink with exact loss accounting.

pub mod codec;
pub mod event;
pub mod faults;
pub mod logger;
pub mod reader;
pub mod ring;
pub mod strings;
pub mod text;

pub use event::{Event, EventFlags, EventKind, OriginId, Pid, Space, Tid, TimerAddr};
pub use faults::{DropFault, FaultSink};
pub use logger::{CollectSink, CountSink, EventCounts, NullSink, RingSink, TraceLog, TraceSink};
pub use reader::RingReader;
pub use ring::RingBuffer;
pub use strings::StringTable;
