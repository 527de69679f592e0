//! The Figure 1 desktop: Outlook, a browser, system processes, kernel.
//!
//! "The kernel typically sets around a thousand timers per second, whilst
//! a typical application such as a web browser will set tens of timeouts
//! per second. Outlook uses around 70 timers per second when idle, but
//! during bursts of activity can set as many as 7000 timers in a second.
//! … this behavior was traced to a coding idiom whereby any upcall in
//! user interface code is wrapped in a form of timeout assertion which
//! catches upcalls lasting longer than 5 seconds" (§2.2.1).

use simtime::{Exp, Sample, SimDuration, SimRng};
use trace::TraceSink;

use super::{boot_services, resume_sleep_loops};
use crate::driver::{VistaDriver, World};
use crate::pids;
use vistasim::kernel::KernelLoadLevel;
use vistasim::{VistaConfig, VistaKernel, VistaNotify};

/// Desktop state.
pub struct OutlookWorld {
    /// Upcalls per second while idle.
    idle_rate: f64,
    /// Upcalls per second during a burst.
    burst_rate: f64,
    /// Whether a burst is in progress.
    bursting: bool,
}

impl World<VistaKernel> for OutlookWorld {
    fn on_notify(driver: &mut VistaDriver<Self>, notify: VistaNotify) {
        if let VistaNotify::WaitTimedOut { pid, tid } = notify {
            resume_sleep_loops(driver, pid, tid);
        }
    }
}

/// One UI upcall: arm the 5 s assertion timeout, do the (fast) work,
/// cancel it.
fn ui_upcall(driver: &mut VistaDriver<OutlookWorld>, tid: u32) {
    driver.kernel.wait_for_single_object(
        pids::OUTLOOK,
        tid,
        "outlook.exe:UpcallAssert",
        SimDuration::from_secs(5),
    );
    // Upcalls complete in microseconds to a few milliseconds.
    let work = SimDuration::from_micros(100 + driver.rng.range_u64(0, 4_000));
    driver.after(work, move |d| {
        d.kernel.signal_wait(pids::OUTLOOK, tid);
    });
}

/// The upcall arrival process: Poisson at the idle rate, with bursts.
fn schedule_upcalls(driver: &mut VistaDriver<OutlookWorld>) {
    let rate = if driver.world.bursting {
        driver.world.burst_rate
    } else {
        driver.world.idle_rate
    };
    let gap = Exp::new(1.0 / rate).sample_duration(&mut driver.rng);
    driver.after(gap.max(SimDuration::from_micros(30)), |d| {
        // Spread upcalls across a few UI threads.
        let tid = 1 + d.rng.range_u64(0, 4) as u32;
        ui_upcall(d, tid);
        schedule_upcalls(d);
    });
}

/// Activity bursts: mail sync every ~20 s drives a 1 s burst.
fn schedule_bursts(driver: &mut VistaDriver<OutlookWorld>) {
    let gap = SimDuration::from_secs(15 + driver.rng.range_u64(0, 12));
    driver.after(gap, |d| {
        d.world.bursting = true;
        d.after(SimDuration::from_millis(900), |d| {
            d.world.bursting = false;
        });
        schedule_bursts(d);
    });
}

/// The browser: tens of sets per second from GUI timers and selects.
fn browser_activity(driver: &mut VistaDriver<OutlookWorld>) {
    driver.kernel.win32_set_timer(
        pids::BROWSER,
        1,
        "iexplore.exe:SetTimer",
        SimDuration::from_millis(100),
    );
    driver.kernel.win32_set_timer(
        pids::BROWSER,
        2,
        "iexplore.exe:SetTimer",
        SimDuration::from_millis(250),
    );
    fn fetch(driver: &mut VistaDriver<OutlookWorld>) {
        let gap = SimDuration::from_millis(300 + driver.rng.range_u64(0, 900));
        driver.after(gap, |d| {
            d.kernel.winsock_select(
                pids::BROWSER,
                9,
                "iexplore.exe:select",
                SimDuration::from_millis(500),
            );
            let ready = SimDuration::from_millis(10 + d.rng.range_u64(0, 250));
            d.after(ready, |d| {
                d.kernel.winsock_ready(pids::BROWSER, 9);
            });
            fetch(d);
        });
    }
    fetch(driver);
}

/// Runs the Figure 1 desktop (typically for a 90-second excerpt).
pub fn run(
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
    backend: wheel::Backend,
    policy: adaptive::AdaptivePolicy,
) -> VistaKernel {
    let cfg = VistaConfig {
        seed,
        kernel_load: KernelLoadLevel::Desktop,
        backend,
        policy,
    };
    let mut kernel = VistaKernel::new(cfg, sink);
    kernel.register_process(pids::OUTLOOK, "outlook.exe");
    kernel.register_process(pids::BROWSER, "iexplore.exe");
    let rng = SimRng::new(seed ^ 0x07d0);
    let mut driver = VistaDriver::new(
        kernel,
        rng,
        OutlookWorld {
            idle_rate: 70.0,
            burst_rate: 6_500.0,
            bursting: false,
        },
    );
    boot_services(&mut driver);
    browser_activity(&mut driver);
    schedule_upcalls(&mut driver);
    schedule_bursts(&mut driver);
    driver.finish(duration)
}
