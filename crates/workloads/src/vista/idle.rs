//! The Vista idle-desktop workload.
//!
//! "A standard Vista desktop install, with a user logged in on the
//! console. No foreground applications were started, but 26 background
//! processes (in addition to the System and Idle tasks) were running"
//! (§3.5). Kernel (driver/subsystem) timers dominate; the user side is
//! the service population's Sleep loops, threadpool periodics, and the
//! tray applet's GUI timer. Almost everything expires — the Vista trace
//! signature of Table 2.

use simtime::{SimDuration, SimRng};
use trace::TraceSink;

use super::{boot_services, resume_sleep_loops};
use crate::driver::{VistaDriver, World};
use vistasim::{VistaConfig, VistaKernel, VistaNotify};

/// Idle-desktop state: the service population alone.
pub struct IdleWorld;

impl World<VistaKernel> for IdleWorld {
    fn on_notify(driver: &mut VistaDriver<Self>, notify: VistaNotify) {
        if let VistaNotify::WaitTimedOut { pid, tid } = notify {
            resume_sleep_loops(driver, pid, tid);
        }
    }
}

/// Runs the Vista idle workload.
pub fn run(
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
    backend: wheel::Backend,
    policy: adaptive::AdaptivePolicy,
) -> VistaKernel {
    let cfg = VistaConfig {
        seed,
        backend,
        policy,
        ..VistaConfig::default()
    };
    let kernel = VistaKernel::new(cfg, sink);
    let rng = SimRng::new(seed ^ 0x71d1e);
    let mut driver = VistaDriver::new(kernel, rng, IdleWorld);
    boot_services(&mut driver);
    driver.finish(duration)
}
