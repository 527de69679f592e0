//! The paper's workload models (Section 3.5), for both simulated OSes.
//!
//! Four controlled 30-minute workloads drive the study — an idle desktop,
//! Firefox displaying a Flash-heavy page, a Skype call, and an Apache
//! webserver under httperf load — plus the lived-in desktop with Outlook
//! behind Figure 1. Each model reproduces the *coding idioms* the paper
//! traces the observed timer behaviour to:
//!
//! * **Idle** — X and icewm `select` loops with countdown re-issue
//!   (Figure 4), round-value daemon poll loops, kernel housekeeping;
//! * **Firefox** — soft-real-time Flash/JavaScript polling at 1–3 jiffy
//!   timeouts over a best-effort kernel, mostly cancelled (Linux) or
//!   mostly expiring sub-10 ms waits at ~2900 sets/s (Vista);
//! * **Skype** — the 0 / 0.4999 / 0.5 s poll mix plus adaptive TCP socket
//!   timers (Linux) and raised 1 ms timer resolution (Vista);
//! * **Webserver** — 30000 HTTP requests, 10 in parallel, 5 s per-state
//!   timeouts; kernel-dominated on Linux (per-socket timers), barely
//!   above idle on Vista (the TCP timing wheel absorbs them);
//! * **Outlook** (Vista, Figure 1) — the UI timeout-assertion idiom that
//!   wraps every upcall in a 5 s watchdog, bursting to thousands of sets
//!   per second.

pub mod driver;
pub mod linux;
pub mod pids;
pub mod vista;

pub use driver::{trial_seed, Driver, Kernel, LinuxDriver, VistaDriver, World};

use netsim::NetFault;
use simtime::SimDuration;
use trace::TraceSink;

/// The workloads of Section 3.5 (plus Figure 1's desktop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// An idle desktop system.
    Idle,
    /// Firefox displaying a Flash/JavaScript page.
    Firefox,
    /// A Skype call in progress.
    Skype,
    /// Apache under httperf load (30000 requests, 10 parallel).
    Webserver,
    /// The lived-in desktop with Outlook and a browser (Figure 1).
    Outlook,
    /// Apache scaled to ~10⁶ concurrent keep-alive connections (the
    /// timer-base stress workload).
    ApacheScale,
}

impl Workload {
    /// The paper's four Table 1/2 workloads.
    pub const TABLE_WORKLOADS: [Workload; 4] = [
        Workload::Idle,
        Workload::Skype,
        Workload::Firefox,
        Workload::Webserver,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Workload::Idle => "Idle",
            Workload::Firefox => "Firefox",
            Workload::Skype => "Skype",
            Workload::Webserver => "Webserver",
            Workload::Outlook => "Outlook",
            Workload::ApacheScale => "ApacheScale",
        }
    }
}

/// Runs a workload on the Linux model, returning the finished kernel.
pub fn run_linux(
    workload: Workload,
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
) -> linuxsim::LinuxKernel {
    run_linux_configured(
        workload,
        seed,
        duration,
        sink,
        NetFault::none(),
        wheel::Backend::Native,
        adaptive::AdaptivePolicy::Off,
    )
}

/// Runs a workload on the Linux model with a network degradation episode
/// `net` on the workload's network path (workloads without network
/// traffic, idle and the Linux Outlook stand-in, ignore it), the kernel's
/// timer queue taken from `backend` (`Native` keeps the hierarchical
/// cascading wheel) and the workload-timeout policy selected: `Off` keeps
/// every historical constant, `Learned` drives the same timers from the
/// learned distributions of §5.1.
#[allow(clippy::too_many_arguments)]
pub fn run_linux_configured(
    workload: Workload,
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
    net: NetFault,
    backend: wheel::Backend,
    policy: adaptive::AdaptivePolicy,
) -> linuxsim::LinuxKernel {
    match workload {
        Workload::Idle => linux::idle::run(seed, duration, sink, backend, policy),
        Workload::Firefox => linux::firefox::run(seed, duration, sink, net, backend, policy),
        Workload::Skype => linux::skype::run(seed, duration, sink, net, backend, policy),
        Workload::Webserver => linux::webserver::run(seed, duration, sink, net, backend, policy),
        Workload::Outlook => {
            // Figure 1 is a Vista-only measurement; on Linux it degrades
            // to the idle desktop.
            linux::idle::run(seed, duration, sink, backend, policy)
        }
        Workload::ApacheScale => linux::apache::run(seed, duration, sink, net, backend, policy),
    }
}

/// Runs a workload on the Vista model, returning the finished kernel.
pub fn run_vista(
    workload: Workload,
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
) -> vistasim::VistaKernel {
    run_vista_configured(
        workload,
        seed,
        duration,
        sink,
        NetFault::none(),
        wheel::Backend::Native,
        adaptive::AdaptivePolicy::Off,
    )
}

/// Runs a workload on the Vista model with a network degradation episode
/// `net` on the workload's network path (workloads without modelled
/// network traffic, idle, Firefox and Outlook, ignore it), the kernel's
/// timer queues taken from `backend` (`Native` keeps the hashed KTIMER
/// ring and TCP wheel) and the workload-timeout policy selected.
#[allow(clippy::too_many_arguments)]
pub fn run_vista_configured(
    workload: Workload,
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
    net: NetFault,
    backend: wheel::Backend,
    policy: adaptive::AdaptivePolicy,
) -> vistasim::VistaKernel {
    match workload {
        Workload::Idle => vista::idle::run(seed, duration, sink, backend, policy),
        Workload::Firefox => vista::firefox::run(seed, duration, sink, backend, policy),
        Workload::Skype => vista::skype::run(seed, duration, sink, net, backend, policy),
        Workload::Webserver => vista::webserver::run(seed, duration, sink, net, backend, policy),
        Workload::Outlook => vista::outlook::run(seed, duration, sink, backend, policy),
        Workload::ApacheScale => {
            // The timer-base stress workload targets the Linux model; on
            // Vista it degrades to the paper's webserver run.
            vista::webserver::run(seed, duration, sink, net, backend, policy)
        }
    }
}
