//! The Vista webserver workload.
//!
//! Apache 2.2.3 on Vista behind a 100 Mb switch, driven by the same
//! httperf profile (§3.5). The striking Table 2 result: the webserver's
//! kernel timer activity (203 k accesses) is barely above *idle* (215 k)
//! despite 30000 connections — because the re-architected TCP/IP stack
//! parks per-connection timeouts in its per-CPU timing wheel, and only
//! the wheel's driving tick touches the KTIMER ring. The user side is
//! Apache's per-request timed waits.

use netsim::NetFault;
use simtime::{Exp, Sample, SimDuration, SimRng};
use trace::TraceSink;

use super::{boot_services, resume_sleep_loops};
use crate::driver::{VistaDriver, World};
use crate::pids;
use vistasim::{VistaConfig, VistaKernel, VistaNotify};

/// Apache worker threads.
const WORKERS: u32 = 8;

/// Webserver state.
pub struct WebWorld {
    remaining: u64,
    inflight: u32,
    parallel: u32,
    link: netsim::Link,
    interarrival: Exp,
}

impl World<VistaKernel> for WebWorld {
    fn on_notify(driver: &mut VistaDriver<Self>, notify: VistaNotify) {
        match notify {
            VistaNotify::WaitTimedOut { pid, tid } if pid == pids::APACHE => {
                // An idle worker's 15 s keep-waiting timeout lapsed;
                // re-wait.
                worker_wait(driver, tid);
            }
            VistaNotify::WaitTimedOut { pid, tid } => {
                resume_sleep_loops(driver, pid, tid);
            }
            VistaNotify::VtcpRetransmit { conn } => {
                let link = driver.world.link.clone();
                if let Some(rtt) = link.send_segment_at(driver.now(), &mut driver.rng) {
                    driver.after(rtt, move |d| d.kernel.vtcp_ack(conn, None));
                }
            }
            _ => {}
        }
    }
}

/// A worker blocks waiting for a connection with a 15 s timeout.
fn worker_wait(driver: &mut VistaDriver<WebWorld>, tid: u32) {
    driver.kernel.wait_for_single_object(
        pids::APACHE,
        tid,
        "httpd.exe:WaitForConnection",
        SimDuration::from_secs(15),
    );
}

fn maybe_issue(driver: &mut VistaDriver<WebWorld>) {
    if driver.world.remaining == 0 || driver.world.inflight >= driver.world.parallel {
        return;
    }
    driver.world.remaining -= 1;
    driver.world.inflight += 1;
    let tid = 1 + driver.rng.range_u64(0, WORKERS as u64) as u32;
    serve_request(driver, tid);
}

fn schedule_arrivals(driver: &mut VistaDriver<WebWorld>) {
    let gap = driver.world.interarrival.sample_duration(&mut driver.rng);
    driver.after(gap.max(SimDuration::from_micros(200)), |d| {
        maybe_issue(d);
        if d.world.remaining > 0 {
            schedule_arrivals(d);
        }
    });
}

fn serve_request(driver: &mut VistaDriver<WebWorld>, tid: u32) {
    // SYN: the connection enters the TCP wheel (no KTIMER traffic).
    let conn = driver.kernel.vtcp_connect(pids::APACHE);
    // The worker's wait is satisfied by the new connection.
    driver.kernel.signal_wait(pids::APACHE, tid);
    let link = driver.world.link.clone();
    let rtt = link.sample_rtt_at(driver.now(), &mut driver.rng);
    driver.after(rtt, move |d| {
        d.kernel.vtcp_established(conn);
        d.kernel.vtcp_data_received(conn);
        let service = simtime::LogNormal::from_median(0.0015, 0.6)
            .sample_duration(&mut d.rng)
            .max(SimDuration::from_micros(300));
        d.after(service, move |d| {
            d.kernel.vtcp_transmit(conn);
            let link = d.world.link.clone();
            let rtt2 = link.sample_rtt_at(d.now(), &mut d.rng);
            d.after(rtt2, move |d| {
                d.kernel.vtcp_ack(conn, Some(rtt2));
                d.kernel.vtcp_close(conn);
                d.world.inflight -= 1;
                maybe_issue(d);
                worker_wait(d, tid);
            });
        });
    });
}

/// Runs the Vista webserver workload; `net` attaches a degradation
/// episode to the switch path ([`NetFault::none`] for the paper's
/// conditions).
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
    kernel.register_process(pids::APACHE, "httpd.exe");
    // The paper's 30000 requests over its 30-minute trace; shorter runs
    // keep the same request density.
    let total_requests = ((30_000.0 * duration.as_secs_f64() / 1_800.0) as u64).max(100);
    let mean_gap = duration.as_secs_f64() / total_requests as f64;
    let rng = SimRng::new(seed ^ 0x3eb5);
    let mut driver = VistaDriver::new(
        kernel,
        rng,
        WebWorld {
            remaining: total_requests,
            inflight: 0,
            parallel: 10,
            link: netsim::Link::lan_100mb().with_fault(net),
            interarrival: Exp::new(mean_gap.max(1e-4)),
        },
    );
    boot_services(&mut driver);
    for tid in 1..=WORKERS {
        worker_wait(&mut driver, tid);
    }
    schedule_arrivals(&mut driver);
    driver.finish(duration)
}
