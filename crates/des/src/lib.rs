//! Discrete-event simulation engine.
//!
//! The simulated kernels and workloads are deterministic state machines
//! driven by a single time-ordered event calendar. This crate provides the
//! two shared pieces:
//!
//! * [`Calendar`] — the pending-event set: post an event for a future
//!   instant, cancel it, pop the earliest. Events at the same instant pop
//!   in posting order, so runs are exactly reproducible.
//! * [`CpuMeter`] — virtual CPU accounting: busy time, idle time, and the
//!   *wakeup count* that the paper's power discussion (Section 5.3, the
//!   dynticks/deferrable-timer changes of Section 2.1) revolves around. An
//!   otherwise idle CPU that must wake for a timer expiry pays a fixed
//!   energy cost per wakeup; batching expiries reduces the count.

pub mod calendar;
pub mod cpu;

pub use calendar::{Calendar, Token};
pub use cpu::CpuMeter;
