//! Linux workload models.

pub mod apache;
pub mod firefox;
pub mod idle;
pub mod skype;
pub mod webserver;

use simtime::{Sample, SimDuration};
use trace::{Pid, Tid};

use crate::driver::{LinuxDriver, World};
use linuxsim::{LinuxKernel, TimerHandle};

/// A `select`-loop participant with the countdown idiom: a long constant
/// timeout, re-issued with the *remaining* value on every fd activity
/// (the X/icewm behaviour behind Figure 4).
#[derive(Debug, Clone)]
pub struct SelectLooper {
    /// Owning process.
    pub pid: Pid,
    /// Owning thread.
    pub tid: Tid,
    /// Provenance label.
    pub origin: &'static str,
    /// The constant full timeout the loop starts from.
    pub full: SimDuration,
    /// Mean gap between fd-activity events.
    pub activity_mean: SimDuration,
    /// The currently armed select timer.
    pub handle: Option<TimerHandle>,
}

impl SelectLooper {
    /// Creates a looper (not yet started).
    pub fn new(
        pid: Pid,
        tid: Tid,
        origin: &'static str,
        full: SimDuration,
        activity_mean: SimDuration,
    ) -> Self {
        SelectLooper {
            pid,
            tid,
            origin,
            full,
            activity_mean,
            handle: None,
        }
    }
}

/// Operations a world must expose for the shared select-loop helpers.
pub trait HasLoopers: World<LinuxKernel> {
    /// The select-loop participants.
    fn loopers(&mut self) -> &mut Vec<SelectLooper>;
}

/// Starts looper `idx`: issues the full select and schedules activity.
pub fn looper_start<W: HasLoopers + 'static>(driver: &mut LinuxDriver<W>, idx: usize) {
    let (pid, tid, origin, full) = {
        let l = &driver.world.loopers()[idx];
        (l.pid, l.tid, l.origin, l.full)
    };
    let handle = driver.kernel.sys_select(pid, tid, origin, full);
    driver.world.loopers()[idx].handle = Some(handle);
    looper_schedule_activity(driver, idx);
}

/// Schedules the next fd-activity event for looper `idx`.
pub fn looper_schedule_activity<W: HasLoopers + 'static>(driver: &mut LinuxDriver<W>, idx: usize) {
    let mean = driver.world.loopers()[idx].activity_mean;
    let gap = simtime::Exp::new(mean.as_secs_f64()).sample_duration(&mut driver.rng);
    driver.after(gap.max(SimDuration::from_micros(100)), move |d| {
        looper_activity(d, idx);
    });
}

/// An fd became ready: select returns early; re-issue the remaining time
/// (the countdown), or the full value if the countdown ran out.
fn looper_activity<W: HasLoopers + 'static>(driver: &mut LinuxDriver<W>, idx: usize) {
    let (pid, tid, origin, full, handle) = {
        let l = &driver.world.loopers()[idx];
        (l.pid, l.tid, l.origin, l.full, l.handle)
    };
    if let Some(h) = handle {
        if driver.kernel.timer_base().is_pending(h) {
            let remaining = driver.kernel.sys_select_return(h);
            let value = if remaining > SimDuration::from_millis(4) {
                remaining
            } else {
                full
            };
            let new_handle = driver.kernel.sys_select(pid, tid, origin, value);
            driver.world.loopers()[idx].handle = Some(new_handle);
        }
    }
    looper_schedule_activity(driver, idx);
}

/// The select loop's timer expired (countdown reached zero): restart with
/// the full value.
pub fn looper_expired<W: HasLoopers + 'static>(driver: &mut LinuxDriver<W>, pid: Pid, tid: Tid) {
    let idx = {
        let loopers = driver.world.loopers();
        loopers.iter().position(|l| l.pid == pid && l.tid == tid)
    };
    if let Some(idx) = idx {
        let (lpid, ltid, origin, full) = {
            let l = &driver.world.loopers()[idx];
            (l.pid, l.tid, l.origin, l.full)
        };
        let handle = driver.kernel.sys_select(lpid, ltid, origin, full);
        driver.world.loopers()[idx].handle = Some(handle);
    }
}

/// A daemon that blocks in `select`/`poll` with a round-number timeout
/// that usually expires (cron waking each minute, etc.).
#[derive(Debug, Clone)]
pub struct DaemonPoller {
    /// Owning process.
    pub pid: Pid,
    /// Provenance label.
    pub origin: &'static str,
    /// The round timeout.
    pub timeout: SimDuration,
    /// Probability that a cycle is cut short by real work instead of
    /// expiring.
    pub activity_chance: f64,
}

/// Issues one daemon poll cycle and schedules its early-cancel, if drawn.
pub fn daemon_poll<W: World<LinuxKernel> + 'static>(
    driver: &mut LinuxDriver<W>,
    poller: DaemonPoller,
) {
    let handle = driver
        .kernel
        .sys_select(poller.pid, poller.pid, poller.origin, poller.timeout);
    if driver.rng.chance(poller.activity_chance) {
        // Work arrives part-way through: cancel and immediately re-issue.
        let frac = 0.05 + 0.9 * driver.rng.unit_f64();
        let delay = poller.timeout.mul_f64(frac);
        driver.after(delay, move |d| {
            if d.kernel.timer_base().is_pending(handle) {
                d.kernel.sys_select_return(handle);
                daemon_poll(d, poller);
            }
        });
    }
    // Expiry restarts are handled by the world's notification dispatch.
}

/// Ambient LAN traffic: schedules the next ARP-relevant packet.
pub fn schedule_lan<W: World<LinuxKernel> + 'static>(
    driver: &mut LinuxDriver<W>,
    lan: netsim::LanActivity,
) {
    let gap = lan.next_gap(&mut driver.rng);
    driver.after(gap, move |d| {
        let host = d.rng.range_u64(0, 6) as u32;
        d.kernel.arp_lan_packet(host);
        schedule_lan(d, lan);
    });
}
