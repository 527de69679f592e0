//! The Linux Firefox workload.
//!
//! Firefox 2.0.0.6 displaying a page "that makes use of the Macromedia
//! Flash plugin and JavaScript" (§3.5). The paper's diagnosis: Firefox
//! and the Flash plugin attempt "to create a soft real time execution
//! environment over a best-effort system" by polling file descriptors
//! with 1–3-jiffy timeouts at enormous rates — 3.9 M timer accesses in
//! 30 minutes, 81 % of sets cancelled, cancellations spread evenly
//! between 0 % and 100 % of the timeout (§4.2, §4.3, Figure 10).

use netsim::{Link, NetFault};
use simtime::{Empirical, Sample, SimDuration, SimRng};
use trace::{Tid, TraceSink};

use super::{looper_expired, looper_start, schedule_lan, HasLoopers, SelectLooper};
use crate::driver::{LinuxDriver, World};
use crate::pids;
use linuxsim::{LinuxConfig, LinuxKernel, Notify, TimerHandle, UserKind};

/// Number of concurrently polling Firefox threads (JS, Flash instances,
/// socket transport, image decode…).
const POLL_THREADS: u32 = 12;

/// Firefox state.
pub struct FirefoxWorld {
    loopers: Vec<SelectLooper>,
    /// The short-poll value mix (seconds, weight) — Figure 5's Firefox
    /// spikes at 1, 2, 3, 5, 6, 11, 12, 13, 23, 24, 25 jiffies.
    poll_values: Empirical,
    /// Pending poll handles by thread.
    polls: Vec<Option<TimerHandle>>,
    /// The WAN path page fetches ride (can carry a degradation episode).
    link: Link,
}

impl HasLoopers for FirefoxWorld {
    fn loopers(&mut self) -> &mut Vec<SelectLooper> {
        &mut self.loopers
    }
}

impl World<LinuxKernel> for FirefoxWorld {
    fn on_notify(driver: &mut LinuxDriver<Self>, notify: Notify) {
        if let Notify::UserTimerExpired { kind, pid, tid, .. } = notify {
            match kind {
                UserKind::Select | UserKind::Poll if pid == pids::FIREFOX => {
                    // A poll expired: the soft-real-time loop immediately
                    // issues the next one.
                    poll_cycle(driver, tid);
                }
                UserKind::Select => looper_expired(driver, pid, tid),
                _ => {}
            }
        }
    }
}

/// One soft-real-time poll cycle for Firefox thread `tid`.
fn poll_cycle(driver: &mut LinuxDriver<FirefoxWorld>, tid: Tid) {
    let value = driver.world.poll_values.sample(&mut driver.rng);
    let timeout = SimDuration::from_secs_f64(value);
    let handle = driver
        .kernel
        .sys_poll(pids::FIREFOX, tid, "firefox:poll_fds", timeout);
    driver.world.polls[tid as usize] = Some(handle);
    // 81 % of Firefox sets are cancelled by fd activity, uniformly
    // distributed through the timeout's life (paper §4.3: "the
    // cancelation of timers is equally distributed between 0 % and
    // 100 %").
    if driver.rng.chance(0.81) {
        let frac = driver.rng.unit_f64();
        let delay = timeout.mul_f64(frac).max(SimDuration::from_micros(30));
        driver.after(delay, move |d| {
            if d.kernel.timer_base().is_pending(handle) {
                d.kernel.sys_poll_return(handle);
                poll_cycle(d, tid);
            }
        });
    }
    // Otherwise the expiry notification restarts the cycle.
}

/// Periodic page refresh traffic exercises the TCP stack lightly.
fn schedule_fetch(driver: &mut LinuxDriver<FirefoxWorld>) {
    let gap = SimDuration::from_secs(8 + driver.rng.range_u64(0, 8));
    driver.after(gap, |d| {
        let conn = d.kernel.tcp_open(false);
        let link = d.world.link.clone();
        let rtt = link.sample_rtt_at(d.now(), &mut d.rng);
        d.after(rtt, move |d| {
            d.kernel.tcp_established(conn);
            d.kernel.tcp_transmit(conn);
            let link = d.world.link.clone();
            let rtt2 = link.sample_rtt_at(d.now(), &mut d.rng);
            d.after(rtt2, move |d| {
                d.kernel.tcp_ack_received(conn, Some(rtt2));
                d.kernel.tcp_data_received(conn);
                d.after(SimDuration::from_millis(60), move |d| {
                    d.kernel.tcp_close(conn);
                });
            });
        });
        schedule_fetch(d);
    });
}

/// Runs the Firefox workload; `net` attaches a degradation episode to the
/// page-fetch WAN path ([`NetFault::none`] for the paper's conditions).
pub fn run(
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
    net: NetFault,
    backend: wheel::Backend,
    policy: adaptive::AdaptivePolicy,
) -> LinuxKernel {
    let cfg = LinuxConfig {
        seed,
        backend,
        policy,
        ..LinuxConfig::default()
    };
    let mut kernel = LinuxKernel::new(cfg, sink);
    kernel.register_process(pids::XORG, "Xorg");
    kernel.register_process(pids::ICEWM, "icewm");
    kernel.register_process(pids::FIREFOX, "firefox-bin");
    // The jiffy-valued poll mix: dominated by 1–3 jiffies, with the
    // longer Flash frame timers from Figure 5(b).
    let poll_values = Empirical::new(&[
        (0.004, 30.0),
        (0.008, 17.0),
        (0.012, 16.0),
        (0.020, 6.0),
        (0.024, 6.0),
        (0.044, 4.0),
        (0.048, 4.0),
        (0.052, 3.0),
        (0.092, 3.0),
        (0.096, 4.0),
        (0.100, 5.0),
        (0.248, 2.0),
    ]);
    let world = FirefoxWorld {
        loopers: vec![
            // X is much busier under a constantly redrawing Flash page.
            SelectLooper::new(
                pids::XORG,
                pids::XORG,
                "Xorg:select",
                SimDuration::from_secs(600),
                SimDuration::from_millis(12),
            ),
            SelectLooper::new(
                pids::ICEWM,
                pids::ICEWM,
                "icewm:select",
                SimDuration::from_secs(300),
                SimDuration::from_millis(120),
            ),
        ],
        poll_values,
        polls: vec![None; POLL_THREADS as usize + 1],
        link: Link::wan().with_fault(net),
    };
    let rng = SimRng::new(seed ^ 0xf1ef);
    let mut driver = LinuxDriver::new(kernel, rng, world);
    for idx in 0..driver.world.loopers.len() {
        looper_start(&mut driver, idx);
    }
    for tid in 1..=POLL_THREADS {
        // Stagger thread start-up slightly.
        let phase = SimDuration::from_micros(137 * tid as u64);
        driver.after(phase, move |d| poll_cycle(d, tid));
    }
    schedule_fetch(&mut driver);
    schedule_lan(&mut driver, netsim::LanActivity::departmental());
    driver.finish(duration)
}
