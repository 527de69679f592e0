//! The Linux Skype workload.
//!
//! Skype 1.4.0.99 making a call (§3.5). The traces show "a number of
//! short, irregular timeouts using poll and select … dominated by
//! constant timeouts of 0, 0.4999 and 0.5" (§4.2, Figure 6), plus the
//! adaptive TCP socket timers that form "the large cluster of points
//! below 1 second … characteristic of adaptive timers" (§4.3).

use netsim::{Link, NetFault};
use simtime::{Empirical, Sample, SimDuration, SimRng};
use trace::TraceSink;

use super::{looper_expired, looper_start, schedule_lan, HasLoopers, SelectLooper};
use crate::driver::{LinuxDriver, World};
use crate::pids;
use linuxsim::{ConnId, LinuxConfig, LinuxKernel, Notify, UserKind};

/// Skype state.
pub struct SkypeWorld {
    loopers: Vec<SelectLooper>,
    /// The poll value mix: 0, 0.4999, 0.5 constants plus irregular short
    /// values (0.044–0.1 s).
    poll_values: Empirical,
    /// The call's control connection.
    conn: Option<ConnId>,
    /// The Internet path of the call (can carry a degradation episode).
    link: Link,
}

impl HasLoopers for SkypeWorld {
    fn loopers(&mut self) -> &mut Vec<SelectLooper> {
        &mut self.loopers
    }
}

impl World<LinuxKernel> for SkypeWorld {
    fn on_notify(driver: &mut LinuxDriver<Self>, notify: Notify) {
        match notify {
            Notify::UserTimerExpired { kind, pid, tid, .. } => match kind {
                // The main loop (select on tid 1) restarts on expiry; the
                // audio engine's zero polls are fire-and-forget (the next
                // frame issues fresh ones).
                UserKind::Select if pid == pids::SKYPE => main_poll_cycle(driver, tid),
                UserKind::Poll if pid == pids::SKYPE => {}
                UserKind::Select => looper_expired(driver, pid, tid),
                _ => {}
            },
            Notify::TcpRetransmit { conn } => {
                // The retransmitted segment's ACK comes back a link RTT
                // later (if not lost again).
                let link = driver.world.link.clone();
                if let Some(rtt) = link.send_segment_at(driver.now(), &mut driver.rng) {
                    driver.after(rtt, move |d| {
                        // Karn's rule: no sample for retransmits.
                        d.kernel.tcp_ack_received(conn, None);
                    });
                }
            }
            _ => {}
        }
    }
}

/// The audio engine: every 20 ms frame it does non-blocking (zero
/// timeout) polls of its sockets.
fn audio_frame(driver: &mut LinuxDriver<SkypeWorld>) {
    // A non-blocking (zero timeout) poll every few frames.
    if driver.rng.chance(0.35) {
        driver
            .kernel
            .sys_poll(pids::SKYPE, 2, "skype:poll_audio", SimDuration::ZERO);
    }
    // Voice data rides the connection periodically.
    if driver.rng.chance(0.12) {
        if let Some(conn) = driver.world.conn {
            driver.kernel.tcp_transmit(conn);
            let link = driver.world.link.clone();
            if let Some(rtt) = link.send_segment_at(driver.now(), &mut driver.rng) {
                driver.after(rtt, move |d| {
                    d.kernel.tcp_ack_received(conn, Some(rtt));
                });
            }
        }
    }
    driver.after(SimDuration::from_millis(20), audio_frame);
}

/// The main event loop: 0.5 s-class waits, mostly cut short by traffic.
fn main_poll_cycle(driver: &mut LinuxDriver<SkypeWorld>, tid: u32) {
    let value = driver.world.poll_values.sample(&mut driver.rng);
    let timeout = SimDuration::from_secs_f64(value);
    let handle = driver
        .kernel
        .sys_select(pids::SKYPE, tid, "skype:select_main", timeout);
    if !timeout.is_zero() && driver.rng.chance(0.74) {
        let frac = driver.rng.unit_f64();
        let delay = timeout.mul_f64(frac).max(SimDuration::from_micros(50));
        driver.after(delay, move |d| {
            if d.kernel.timer_base().is_pending(handle) {
                d.kernel.sys_select_return(handle);
                main_poll_cycle(d, tid);
            }
        });
    }
}

/// Inbound voice/control data arrives continuously.
fn schedule_inbound(driver: &mut LinuxDriver<SkypeWorld>) {
    let gap = simtime::Exp::new(0.35).sample_duration(&mut driver.rng);
    driver.after(gap.max(SimDuration::from_millis(1)), |d| {
        if let Some(conn) = d.world.conn {
            d.kernel.tcp_data_received(conn);
            // Roughly half the time Skype replies promptly, piggybacking
            // the ACK (cancelling the delayed-ACK timer); otherwise the
            // 40 ms delack expires.
            if d.rng.chance(0.55) {
                let reply_delay = SimDuration::from_millis(2 + d.rng.range_u64(0, 15));
                d.after(reply_delay, move |d| {
                    d.kernel.tcp_transmit(conn);
                    let link = d.world.link.clone();
                    if let Some(rtt) = link.send_segment_at(d.now(), &mut d.rng) {
                        d.after(rtt, move |d| {
                            d.kernel.tcp_ack_received(conn, Some(rtt));
                        });
                    }
                });
            }
        }
        schedule_inbound(d);
    });
}

/// Runs the Skype workload; `net` attaches a degradation episode to the
/// call's Internet path ([`NetFault::none`] for the paper's conditions).
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
    kernel.register_process(pids::SKYPE, "skype");
    let poll_values = Empirical::new(&[
        (0.0, 18.0),
        (0.4999, 7.0),
        (0.5, 11.0),
        (0.044, 13.0),
        (0.048, 11.0),
        (0.052, 13.0),
        (0.1, 11.0),
        (0.024, 8.0),
        (0.092, 5.0),
        (0.2, 3.0),
    ]);
    let world = SkypeWorld {
        loopers: vec![
            SelectLooper::new(
                pids::XORG,
                pids::XORG,
                "Xorg:select",
                SimDuration::from_secs(600),
                SimDuration::from_millis(80),
            ),
            SelectLooper::new(
                pids::ICEWM,
                pids::ICEWM,
                "icewm:select",
                SimDuration::from_secs(300),
                SimDuration::from_millis(200),
            ),
        ],
        poll_values,
        conn: None,
        link: Link::internet_lossy().with_fault(net),
    };
    let rng = SimRng::new(seed ^ 0x5c1e);
    let mut driver = LinuxDriver::new(kernel, rng, world);
    // Establish the call's connection (with keepalive, like a long-lived
    // control channel — the 7200 s timer in Figure 3).
    let conn = driver.kernel.tcp_open(true);
    let link = driver.world.link.clone();
    let rtt = link.sample_rtt_at(driver.now(), &mut driver.rng);
    driver.after(rtt, move |d| {
        d.kernel.tcp_established(conn);
        d.world.conn = Some(conn);
        schedule_inbound(d);
    });
    for idx in 0..driver.world.loopers.len() {
        looper_start(&mut driver, idx);
    }
    driver.after(SimDuration::from_millis(5), audio_frame);
    // Several event-loop threads share the short-select pattern.
    for tid in [1u32, 3, 4, 5, 6] {
        let phase = SimDuration::from_millis(7 + 3 * tid as u64);
        driver.after(phase, move |d| main_poll_cycle(d, tid));
    }
    schedule_lan(&mut driver, netsim::LanActivity::departmental());
    driver.finish(duration)
}
