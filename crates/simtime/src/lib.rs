//! Virtual time substrate for the timer-usage study.
//!
//! The paper ("30 Seconds is Not Enough!", EuroSys 2008) measures timer
//! behaviour on real hardware over 30-minute wall-clock runs. Our
//! reproduction replaces wall-clock time with a deterministic virtual clock
//! so that every experiment is exactly repeatable from a seed.
//!
//! This crate provides:
//!
//! * [`SimInstant`] / [`SimDuration`] — nanosecond-resolution virtual time,
//! * [`jiffies`] — the Linux jiffy clock (HZ = 250 in the kernel the paper
//!   instrumented) and the Vista clock-interrupt period,
//! * [`rng`] — a small, fast, deterministic random number generator with
//!   forkable substreams, so adding a new random draw in one subsystem does
//!   not perturb every other subsystem,
//! * [`dist`] — the latency/interarrival distributions used by the workload
//!   and network models,
//! * [`faults`] — deterministic clock perturbation (tick jitter, coarse
//!   quantisation) for fault-injection experiments,
//! * [`fasthash`] — the one hasher every map keyed by a simulated value
//!   uses.

pub mod dist;
pub mod fasthash;
pub mod faults;
pub mod instant;
pub mod jiffies;
pub mod rng;

pub use dist::{Empirical, Exp, LogNormal, Normal, Pareto, Sample};
pub use faults::ClockFault;
pub use instant::{SimDuration, SimInstant};
pub use jiffies::{Hz, Jiffies, JiffyClock, LINUX_HZ, VISTA_TICK};
pub use rng::SimRng;
