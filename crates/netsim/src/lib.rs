//! Network environment models.
//!
//! The paper's timer phenomena that involve the network — TCP retransmit
//! adaptation, the 7200 s keepalive, ARP timers "canceled at random
//! intervals … due to activity on the LAN that is part of our test
//! environment", the httperf-driven webserver workload, and the layered
//! name-lookup failure cascade of Section 2.2.2 — all need packets to
//! exist. This crate supplies the *environment* side: links with latency,
//! jitter, loss and degradation episodes; LAN background traffic; and the
//! name-resolution / file-protocol service models used by the layering
//! experiment. The httperf client is paced by the webserver workloads
//! themselves. The kernel-side timer logic
//! (retransmission timers, ARP cache state machines) lives in `linuxsim`
//! and `vistasim` — exactly the split the real systems have.

pub mod faults;
pub mod lan;
pub mod link;
pub mod rpc;

pub use faults::NetFault;
pub use lan::LanActivity;
pub use link::Link;
pub use rpc::{LookupService, ServiceBehavior};
