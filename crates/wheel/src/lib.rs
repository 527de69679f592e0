//! Timer priority-queue data structures.
//!
//! Both kernels studied in the paper multiplex an unbounded set of software
//! timers onto a single hardware tick using a variant of *timing wheels*
//! (Varghese & Lauck, SOSP'87). This crate implements the two structures
//! underneath the simulated kernels, plus a reference baseline, behind one
//! [`TimerQueue`] trait:
//!
//! * [`HierarchicalWheel`] — the Linux `kernel/timer.c` design: a 256-slot
//!   base wheel (`tv1`) and four 64-slot coarser wheels (`tv2`–`tv5`) that
//!   cascade entries downwards as time advances. O(1) set/cancel, amortised
//!   O(1) per-tick processing.
//! * [`HashedWheel`] — Varghese & Lauck "scheme 6": a single wheel of `N`
//!   slots hashed by expiry tick, with entries that may need several
//!   revolutions before firing. Vista's KTIMER table and TCP wheel.
//! * [`SortedList`] — a sorted vector, the historical BSD `callout` list
//!   (O(n) set, O(1) pop): the exact reference `tests/equivalence.rs`
//!   checks both wheels against.
//!
//! All three are deterministic and share one exact firing-order contract:
//! a timer fires at its effective tick, and timers due on the same tick
//! fire in (armed expiry, insertion) order. Each simulated subsystem
//! builds its native wheel through [`Backend`].

pub mod api;
pub mod arena;
pub mod backend;
pub mod hashed;
pub mod hierarchical;
pub mod sortedlist;

pub use api::{Tick, TimerId, TimerQueue};
pub use arena::{NodeArena, NodeHandle};
pub use backend::Backend;
pub use hashed::HashedWheel;
pub use hierarchical::HierarchicalWheel;
pub use sortedlist::SortedList;
