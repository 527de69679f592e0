//! The Vista Skype workload.
//!
//! A call in progress: the audio engine raises the timer resolution to
//! 1 ms and sleeps one millisecond per frame slot (the multimedia-timer
//! idiom), the main loop polls at 0.5 s-class values, and the call's
//! connection lives in the TCP timing wheel. Expiry-dominated like every
//! Vista trace, with a modest cancellation count from satisfied waits.

use netsim::{Link, NetFault};
use simtime::{Empirical, Sample, SimDuration, SimRng};
use trace::TraceSink;

use super::{boot_services, resume_sleep_loops};
use crate::driver::{VistaDriver, World};
use crate::pids;
use vistasim::{VistaConfig, VistaKernel, VistaNotify};

/// Skype state.
pub struct SkypeWorld {
    /// Main-loop wait values (0.5 s class, Figure 7's 0.5/0.5156).
    wait_values: Empirical,
    /// The call's wheel-managed connection.
    conn: Option<u32>,
    /// The Internet path of the call (can carry a degradation episode).
    link: Link,
}

/// The audio thread's tid.
const AUDIO_TID: u32 = 1;
/// The main loop's tid.
const MAIN_TID: u32 = 2;

impl World<VistaKernel> for SkypeWorld {
    fn on_notify(driver: &mut VistaDriver<Self>, notify: VistaNotify) {
        match notify {
            VistaNotify::WaitTimedOut { pid, tid } if pid == pids::SKYPE => match tid {
                AUDIO_TID => {
                    // Next 1 ms frame slot.
                    driver.kernel.sleep(
                        pids::SKYPE,
                        AUDIO_TID,
                        "skype.exe:Sleep_audio",
                        SimDuration::from_millis(1),
                    );
                }
                MAIN_TID => main_wait(driver),
                _ => {}
            },
            VistaNotify::WaitTimedOut { pid, tid } => {
                resume_sleep_loops(driver, pid, tid);
            }
            VistaNotify::VtcpRetransmit { conn } => {
                // The resent voice segment is ACKed an RTT later.
                let link = driver.world.link.clone();
                if let Some(rtt) = link.send_segment_at(driver.now(), &mut driver.rng) {
                    driver.after(rtt, move |d| d.kernel.vtcp_ack(conn, None));
                }
            }
            _ => {}
        }
    }
}

/// The main loop's 0.5 s-class wait, often satisfied early by call
/// events (the WaitSatisfied cancellations of Table 2).
fn main_wait(driver: &mut VistaDriver<SkypeWorld>) {
    let secs = driver.world.wait_values.sample(&mut driver.rng);
    let timeout = SimDuration::from_secs_f64(secs);
    driver
        .kernel
        .wait_for_single_object(pids::SKYPE, MAIN_TID, "skype.exe:WaitMain", timeout);
    if driver.rng.chance(0.4) {
        let frac = driver.rng.unit_f64();
        let delay = timeout.mul_f64(frac).max(SimDuration::from_millis(1));
        driver.after(delay, |d| {
            if d.kernel.signal_wait(pids::SKYPE, MAIN_TID) {
                main_wait(d);
            }
        });
    }
}

/// The network thread: selects usually completed by arriving packets.
fn net_select(driver: &mut VistaDriver<SkypeWorld>) {
    driver.kernel.winsock_select(
        pids::SKYPE,
        7,
        "skype.exe:select",
        SimDuration::from_millis(100),
    );
    let ready = SimDuration::from_millis(5 + driver.rng.range_u64(0, 60));
    driver.after(ready, |d| {
        d.kernel.winsock_ready(pids::SKYPE, 7);
        net_select(d);
    });
}

/// Voice traffic on the wheel-managed connection.
fn schedule_voice(driver: &mut VistaDriver<SkypeWorld>) {
    let gap = SimDuration::from_millis(60 + driver.rng.range_u64(0, 120));
    driver.after(gap, |d| {
        if let Some(conn) = d.world.conn {
            d.kernel.vtcp_transmit(conn);
            let link = d.world.link.clone();
            if let Some(rtt) = link.send_segment_at(d.now(), &mut d.rng) {
                d.after(rtt, move |d| d.kernel.vtcp_ack(conn, Some(rtt)));
            }
            if d.rng.chance(0.5) {
                d.kernel.vtcp_data_received(conn);
            }
        }
        schedule_voice(d);
    });
}

/// Runs the Vista Skype workload; `net` attaches a degradation episode to
/// the call's Internet path ([`NetFault::none`] for the paper's conditions).
pub fn run(
    seed: u64,
    duration: SimDuration,
    sink: Box<dyn TraceSink>,
    net: NetFault,
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
    kernel.register_process(pids::SKYPE, "Skype.exe");
    kernel.set_timer_resolution(SimDuration::from_millis(1));
    let wait_values = Empirical::new(&[
        (0.5, 30.0),
        (0.5156, 12.0),
        (0.25, 10.0),
        (0.1, 14.0),
        (0.05, 12.0),
        (0.02, 12.0),
        (0.001, 10.0),
    ]);
    let rng = SimRng::new(seed ^ 0x5cfe);
    let mut driver = VistaDriver::new(
        kernel,
        rng,
        SkypeWorld {
            wait_values,
            conn: None,
            link: Link::internet_lossy().with_fault(net),
        },
    );
    boot_services(&mut driver);
    let conn = driver.kernel.vtcp_connect(pids::SKYPE);
    driver.world.conn = Some(conn);
    let link = driver.world.link.clone();
    let rtt = link.sample_rtt_at(driver.now(), &mut driver.rng);
    driver.after(rtt, move |d| d.kernel.vtcp_established(conn));
    driver.kernel.sleep(
        pids::SKYPE,
        AUDIO_TID,
        "skype.exe:Sleep_audio",
        SimDuration::from_millis(1),
    );
    driver.after(SimDuration::from_millis(3), main_wait);
    // A GUI refresh timer.
    driver.kernel.win32_set_timer(
        pids::SKYPE,
        1,
        "skype.exe:SetTimer",
        SimDuration::from_millis(100),
    );
    schedule_voice(&mut driver);
    driver.after(SimDuration::from_millis(11), net_select);
    driver.finish(duration)
}
