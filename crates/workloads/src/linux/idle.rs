//! The Linux idle-desktop workload.
//!
//! "The Linux idle system consists of the Debian base installation
//! running the X window system and a window manager (icewm). … stock
//! system daemons such as syslogd, inetd, atd, cron, as well as the
//! portmapper and gettys, are running. The system is connected to the
//! network, but no network accesses from the outside are happening"
//! (§3.5). Timer traffic is dominated by the X/icewm `select` countdown
//! idiom in user space and the housekeeping periodics in the kernel.

use simtime::{SimDuration, SimRng};
use trace::TraceSink;

use super::{
    daemon_poll, looper_expired, looper_start, schedule_lan, DaemonPoller, HasLoopers, SelectLooper,
};
use crate::driver::{LinuxDriver, World};
use crate::pids;
use linuxsim::{LinuxConfig, LinuxKernel, Notify, UserKind};

/// Idle-desktop state.
pub struct IdleWorld {
    loopers: Vec<SelectLooper>,
    daemons: Vec<DaemonPoller>,
}

impl HasLoopers for IdleWorld {
    fn loopers(&mut self) -> &mut Vec<SelectLooper> {
        &mut self.loopers
    }
}

impl World<LinuxKernel> for IdleWorld {
    fn on_notify(driver: &mut LinuxDriver<Self>, notify: Notify) {
        if let Notify::UserTimerExpired {
            kind: UserKind::Select | UserKind::Poll,
            pid,
            tid,
            ..
        } = notify
        {
            // A select-looper countdown ran out, or a daemon's round poll
            // expired.
            if driver.world.loopers.iter().any(|l| l.pid == pid) {
                looper_expired(driver, pid, tid);
            } else if let Some(poller) = driver.world.daemons.iter().find(|p| p.pid == pid).cloned()
            {
                daemon_poll(driver, poller);
            }
        }
    }
}

/// Runs the idle workload for `duration`.
pub fn run(
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
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
    kernel.register_process(pids::SYSLOGD, "syslogd");
    kernel.register_process(pids::CRON, "cron");
    kernel.register_process(pids::ATD, "atd");
    kernel.register_process(pids::INETD, "inetd");
    kernel.register_process(pids::PORTMAP, "portmap");
    kernel.register_process(102, "xclock");
    kernel.register_process(103, "gkrellm");
    kernel.register_process(104, "xscreensaver");
    kernel.register_process(105, "getty");
    kernel.register_process(106, "wmmon");
    kernel.register_process(107, "wmnet");
    let world = IdleWorld {
        loopers: vec![
            // X's select: a long constant timeout counted down by client
            // traffic (Figure 4 plots exactly this timer).
            SelectLooper::new(
                pids::XORG,
                pids::XORG,
                "Xorg:select",
                SimDuration::from_secs(600),
                SimDuration::from_millis(120),
            ),
            // icewm: the same idiom with its own constant.
            SelectLooper::new(
                pids::ICEWM,
                pids::ICEWM,
                "icewm:select",
                SimDuration::from_secs(300),
                SimDuration::from_millis(350),
            ),
        ],
        daemons: vec![
            DaemonPoller {
                pid: pids::CRON,
                origin: "cron:select",
                timeout: SimDuration::from_secs(60),
                activity_chance: 0.02,
            },
            DaemonPoller {
                pid: pids::ATD,
                origin: "atd:poll",
                timeout: SimDuration::from_secs(60),
                activity_chance: 0.02,
            },
            DaemonPoller {
                pid: pids::SYSLOGD,
                origin: "syslogd:select",
                timeout: SimDuration::from_secs(30),
                activity_chance: 0.15,
            },
            DaemonPoller {
                pid: pids::PORTMAP,
                origin: "portmap:select",
                timeout: SimDuration::from_secs(30),
                activity_chance: 0.02,
            },
            DaemonPoller {
                pid: pids::INETD,
                origin: "inetd:select",
                timeout: SimDuration::from_secs(10),
                activity_chance: 0.02,
            },
            // Desktop accessories poll at round sub-second values and
            // almost always expire — the human-chosen constants of
            // Figure 6 (0.5, 1, 5, 60 s).
            DaemonPoller {
                pid: 102,
                origin: "xclock:select",
                timeout: SimDuration::from_secs(1),
                activity_chance: 0.01,
            },
            DaemonPoller {
                pid: 103,
                origin: "gkrellm:select",
                timeout: SimDuration::from_millis(500),
                activity_chance: 0.01,
            },
            DaemonPoller {
                pid: 104,
                origin: "xscreensaver:select",
                timeout: SimDuration::from_secs(60),
                activity_chance: 0.05,
            },
            DaemonPoller {
                pid: 105,
                origin: "getty:select",
                timeout: SimDuration::from_secs(30),
                activity_chance: 0.01,
            },
            DaemonPoller {
                pid: 106,
                origin: "wmmon:select",
                timeout: SimDuration::from_secs(2),
                activity_chance: 0.01,
            },
            DaemonPoller {
                pid: 107,
                origin: "wmnet:select",
                timeout: SimDuration::from_secs(10),
                activity_chance: 0.01,
            },
        ],
    };
    let rng = SimRng::new(seed ^ 0x1d1e);
    let mut driver = LinuxDriver::new(kernel, rng, world);

    for idx in 0..driver.world.loopers.len() {
        looper_start(&mut driver, idx);
    }
    for poller in driver.world.daemons.clone() {
        daemon_poll(&mut driver, poller);
    }
    schedule_lan(&mut driver, netsim::LanActivity::departmental());
    schedule_syslog_writes(&mut driver);
    driver.after(SimDuration::from_secs(45), console_tick);

    driver.finish(duration)
}

/// syslog flushes its file every so often: journal + block I/O activity.
fn schedule_syslog_writes(driver: &mut LinuxDriver<IdleWorld>) {
    let gap = SimDuration::from_secs(20 + driver.rng.range_u64(0, 30));
    driver.after(gap, |d| {
        d.kernel.journal_write();
        let req = d.kernel.blk_submit();
        let io_time = SimDuration::from_millis(4 + d.rng.range_u64(0, 10));
        d.after(io_time, move |d| {
            d.kernel.blk_complete(req);
        });
        schedule_syslog_writes(d);
    });
}

/// Occasional console output defers the blank watchdog.
fn console_tick(driver: &mut LinuxDriver<IdleWorld>) {
    driver.kernel.console_activity();
    let gap = SimDuration::from_secs(30 + driver.rng.range_u64(0, 60));
    driver.after(gap, console_tick);
}
