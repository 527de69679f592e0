//! The Vista Firefox workload.
//!
//! The paper: "the Firefox workload uses an even larger number of timers
//! (2881 timers are set per second), many well below 10 ms" (§4.3), and
//! its Table 2 column is overwhelmingly expiry-driven (5.05 M expiries vs
//! 16 k cancellations). The Flash plugin raises the timer resolution to
//! 1 ms (`timeBeginPeriod`), then the soft-real-time threads poll with
//! sub-10 ms timed waits that virtually always time out; sub-millisecond
//! requests are still delivered "at essentially random times" relative to
//! their nominal value.

use simtime::{Empirical, Sample, SimDuration, SimRng};
use trace::TraceSink;

use super::{boot_services, resume_sleep_loops};
use crate::driver::{VistaDriver, World};
use crate::pids;
use vistasim::{VistaConfig, VistaKernel, VistaNotify};

/// Firefox's soft-real-time polling threads.
const POLL_THREADS: u32 = 5;

/// Firefox state.
pub struct FirefoxWorld {
    /// Sub-10 ms wait values, weighted toward sub-millisecond.
    wait_values: Empirical,
}

impl World<VistaKernel> for FirefoxWorld {
    fn on_notify(driver: &mut VistaDriver<Self>, notify: VistaNotify) {
        match notify {
            VistaNotify::WaitTimedOut { pid, tid } if pid == pids::FIREFOX => {
                // The poll loop immediately re-waits.
                poll_wait(driver, tid);
            }
            VistaNotify::WaitTimedOut { pid, tid } => {
                resume_sleep_loops(driver, pid, tid);
            }
            VistaNotify::SelectTimedOut { pid, tid } if pid == pids::FIREFOX => {
                // A network select ran out; the fetch loop continues.
                let _ = tid;
            }
            _ => {}
        }
    }
}

/// One soft-real-time timed wait.
fn poll_wait(driver: &mut VistaDriver<FirefoxWorld>, tid: u32) {
    let secs = driver.world.wait_values.sample(&mut driver.rng);
    driver.kernel.wait_for_single_object(
        pids::FIREFOX,
        tid,
        "firefox.exe:MsgWait",
        SimDuration::from_secs_f64(secs),
    );
}

/// Periodic network fetches through Winsock select (the fresh-KTIMER
/// path), usually completed by socket readiness — the trace's small
/// cancellation count.
fn schedule_fetch(driver: &mut VistaDriver<FirefoxWorld>) {
    let gap = SimDuration::from_millis(400 + driver.rng.range_u64(0, 800));
    driver.after(gap, |d| {
        d.kernel.winsock_select(
            pids::FIREFOX,
            50,
            "firefox.exe:select",
            SimDuration::from_millis(250),
        );
        let ready = SimDuration::from_millis(20 + d.rng.range_u64(0, 180));
        d.after(ready, |d| {
            d.kernel.winsock_ready(pids::FIREFOX, 50);
        });
        schedule_fetch(d);
    });
}

/// Runs the Vista Firefox workload.
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
    let mut kernel = VistaKernel::new(cfg, sink);
    kernel.register_process(pids::FIREFOX, "firefox.exe");
    // Flash raises the clock-interrupt rate to 1 ms.
    kernel.set_timer_resolution(SimDuration::from_millis(1));
    let wait_values = Empirical::new(&[
        (0.0003, 18.0),
        (0.0005, 16.0),
        (0.001, 20.0),
        (0.002, 12.0),
        (0.003, 10.0),
        (0.005, 12.0),
        (0.010, 12.0),
    ]);
    let rng = SimRng::new(seed ^ 0x7f1e);
    let mut driver = VistaDriver::new(kernel, rng, FirefoxWorld { wait_values });
    boot_services(&mut driver);
    // GUI repaint timers.
    driver.kernel.win32_set_timer(
        pids::FIREFOX,
        1,
        "firefox.exe:SetTimer",
        SimDuration::from_millis(10),
    );
    driver.kernel.win32_set_timer(
        pids::FIREFOX,
        2,
        "firefox.exe:SetTimer",
        SimDuration::from_millis(50),
    );
    for tid in 1..=POLL_THREADS {
        poll_wait(&mut driver, tid);
    }
    schedule_fetch(&mut driver);
    driver.finish(duration)
}
