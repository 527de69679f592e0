//! The Linux webserver workload.
//!
//! Stock Apache 2.2.3 driven by httperf from another machine on the
//! gigabit LAN: 30000 HTTP requests, 10 in parallel, each in its own
//! connection (§3.5). X is not running. The trace is *kernel*-dominated
//! (206 k of 284 k accesses): every connection exercises the socket
//! timers — the 3 s SYN-ACK retransmit, the 40 ms delayed ACK, the
//! adaptive RTO — while Apache contributes its 15 s socket poll (Table 3)
//! and 1 s event-loop timeout, and logging drives the journal's ~5 s
//! mostly-cancelled commit timer (Figure 11's 80–100 % cluster).

use adaptive::{AdaptivePolicy, AdaptiveTimeout};
use netsim::NetFault;
use simtime::{Exp, Sample, SimDuration, SimInstant, SimRng};
use trace::{Pid, TraceSink};

use super::schedule_lan;
use crate::driver::{LinuxDriver, World};
use crate::pids;
use linuxsim::{ConnId, LinuxConfig, LinuxKernel, Notify, TimerHandle, UserKind};

/// Number of Apache worker processes.
const WORKERS: u32 = 8;

/// Webserver state.
pub struct WebWorld {
    /// Remaining requests the load generator will issue.
    remaining: u64,
    /// In-flight requests (the httperf parallelism).
    inflight: u32,
    /// Maximum parallel requests.
    parallel: u32,
    /// Requests that arrived while the window was full, awaiting a slot.
    queued: u64,
    /// Per-worker idle event-loop select handle.
    loop_handles: Vec<Option<TimerHandle>>,
    /// The LAN between client and server.
    link: netsim::Link,
    /// Mean request interarrival (paces 30000 requests over the run).
    interarrival: Exp,
    /// Workload-timeout policy for Apache's own userland constants.
    policy: AdaptivePolicy,
    /// Learned distribution of per-request service times — drives the
    /// 15 s socket-poll watchdog when the policy is `Learned`.
    poll_est: AdaptiveTimeout,
    /// Learned distribution of per-worker request interarrival gaps —
    /// stretches the 1 s event-loop timeout when the policy is `Learned`.
    loop_est: AdaptiveTimeout,
    /// Instant of each worker's previous request arrival (gap sampling).
    last_arrival: Vec<Option<SimInstant>>,
    /// Connections whose response was lost, awaiting RTO-driven recovery
    /// (conn → serving worker).
    pending_retx: std::collections::BTreeMap<ConnId, Pid>,
}

/// Resolves one userland timeout decision under the policy (the same
/// contract as the kernels' helper: learned values only replace the
/// constant once the estimator is warm, clamped to at most the constant).
fn decide(policy: AdaptivePolicy, est: &AdaptiveTimeout, fixed: SimDuration) -> SimDuration {
    if policy.is_learned() && est.is_warm() {
        telemetry::sim::add(telemetry::SimCounter::AdaptiveLearnedArms, 1);
        est.timeout().min(fixed)
    } else {
        fixed
    }
}

/// The poll-loop variant of [`decide`]: a pure periodic poll gains
/// nothing from firing *sooner* — each expiry is exactly the spurious
/// wakeup §2.1 charges against battery life — so the learned value only
/// ever **stretches** the timeout (the §5.2 observation that apps pick
/// round 1 s values out of habit, not need). The historical constant
/// becomes the floor and the estimator's ceiling the cap; any work that
/// arrives still cancels the poll early, so latency is unaffected.
///
/// Unlike [`decide`] this consults the estimator even before it is warm:
/// a run of expired polls feeds `observe_timeout`, whose level-shift
/// backoff multiplies the initial constant — that is what lets an idle
/// worker's 1 s loop decay toward the ceiling instead of waking forever
/// (Figure 4's countdown idiom, learned instead of hand-coded).
fn decide_stretch(
    policy: AdaptivePolicy,
    est: &AdaptiveTimeout,
    fixed: SimDuration,
) -> SimDuration {
    if !policy.is_learned() {
        return fixed;
    }
    let timeout = est.timeout().max(fixed);
    if timeout != fixed {
        telemetry::sim::add(telemetry::SimCounter::AdaptiveLearnedArms, 1);
    }
    timeout
}

impl World<LinuxKernel> for WebWorld {
    fn on_notify(driver: &mut LinuxDriver<Self>, notify: Notify) {
        match notify {
            Notify::UserTimerExpired { kind, pid, tid, .. }
                if kind == UserKind::Select && pid_is_worker(pid) =>
            {
                // The worker's 1 s event-loop timeout expired with no
                // work: re-issue (Table 3's "Apache event loop"). The
                // expiry is by definition spurious — nothing arrived —
                // so it feeds the estimator's level-shift detector,
                // which backs the re-issued timeout off toward the
                // ceiling under the learned policy.
                driver.world.loop_est.observe_timeout();
                worker_loop_wait(driver, pid, tid);
            }
            Notify::TcpRetransmit { conn } => {
                // The RTO fired and the segment goes out again; if it
                // survives the link this time, its ACK completes the
                // request the loss had stalled. If it is lost too, the
                // backed-off RTO re-fires and we try once more.
                let link = driver.world.link.clone();
                if let Some(rtt) = link.send_segment_at(driver.now(), &mut driver.rng) {
                    driver.after(rtt, move |d| {
                        // Karn's rule: no RTT sample for retransmits.
                        d.kernel.tcp_ack_received(conn, None);
                        if let Some(worker) = d.world.pending_retx.remove(&conn) {
                            d.kernel.tcp_close(conn);
                            d.world.inflight -= 1;
                            admit_queued(d);
                            worker_loop_wait(d, worker, worker);
                        }
                    });
                }
            }
            _ => {}
        }
    }
}

fn pid_is_worker(pid: Pid) -> bool {
    (pids::APACHE..pids::APACHE + WORKERS).contains(&pid)
}

/// A worker waits in its event loop with the 1 s timeout (or, under the
/// learned policy, the stretched tail of its observed arrival gaps).
fn worker_loop_wait(driver: &mut LinuxDriver<WebWorld>, pid: Pid, tid: u32) {
    let timeout = decide_stretch(
        driver.world.policy,
        &driver.world.loop_est,
        SimDuration::from_secs(1),
    );
    let handle = driver
        .kernel
        .sys_select(pid, tid, "apache2:event_loop", timeout);
    driver.world.loop_handles[(pid - pids::APACHE) as usize] = Some(handle);
}

/// Dispatches one request to a worker (window slot already claimed).
fn issue_now(driver: &mut LinuxDriver<WebWorld>) {
    driver.world.inflight += 1;
    let worker = pids::APACHE + (driver.rng.range_u64(0, WORKERS as u64) as u32);
    // The gap since this worker's previous request is what its event-loop
    // timeout actually covers; learn it in every mode, consult it under
    // `Learned`.
    let now = driver.now();
    let slot = (worker - pids::APACHE) as usize;
    if let Some(prev) = driver.world.last_arrival[slot] {
        driver.world.loop_est.observe_success(now - prev);
    }
    driver.world.last_arrival[slot] = Some(now);
    request_arrives(driver, worker);
}

/// Pacing tick: one httperf request arrives. httperf holds its rate
/// regardless of outstanding replies; a full parallel window just queues
/// the request client-side until a slot frees up.
fn arrival_tick(driver: &mut LinuxDriver<WebWorld>) {
    if driver.world.remaining == 0 {
        return;
    }
    driver.world.remaining -= 1;
    if driver.world.inflight >= driver.world.parallel {
        driver.world.queued += 1;
        return;
    }
    issue_now(driver);
}

/// Completion path: a response finished, freeing a window slot; only a
/// request the pacer already queued may take it. (Issuing a *new* request
/// here would let the closed loop outrun the arrival process and compress
/// the whole request budget into the first seconds of the trace.)
fn admit_queued(driver: &mut LinuxDriver<WebWorld>) {
    if driver.world.queued > 0 && driver.world.inflight < driver.world.parallel {
        driver.world.queued -= 1;
        issue_now(driver);
    }
}

/// Schedules the paced arrival process.
fn schedule_arrivals(driver: &mut LinuxDriver<WebWorld>) {
    let gap = driver.world.interarrival.sample_duration(&mut driver.rng);
    driver.after(gap.max(SimDuration::from_micros(200)), |d| {
        arrival_tick(d);
        if d.world.remaining > 0 {
            schedule_arrivals(d);
        }
    });
}

/// One full request/connection lifecycle on the server side.
fn request_arrives(driver: &mut LinuxDriver<WebWorld>, worker: Pid) {
    let link = driver.world.link.clone();
    // SYN arrives: passive open arms the 3 s SYN-ACK retransmit timer.
    // Apache sets SO_KEEPALIVE, so the socket carries the 7200 s
    // keepalive the paper sees on Linux but not on Vista's wheel.
    let conn = driver.kernel.tcp_open(true);
    // The worker that will serve it cancels its idle loop timeout.
    let slot = (worker - pids::APACHE) as usize;
    if let Some(h) = driver.world.loop_handles[slot].take() {
        if driver.kernel.timer_base().is_pending(h) {
            driver.kernel.sys_select_return(h);
        }
    }
    let rtt = link.sample_rtt_at(driver.now(), &mut driver.rng);
    driver.after(rtt, move |d| {
        // Handshake done; the worker polls the connection with Apache's
        // 15 s socket timeout (Table 3: "apache2 socket poll") — or the
        // learned service-time tail under the adaptive policy.
        d.kernel.tcp_established(conn);
        let poll_timeout = decide(
            d.world.policy,
            &d.world.poll_est,
            SimDuration::from_secs(15),
        );
        let poll_armed_at = d.now();
        let poll = d
            .kernel
            .sys_poll(worker, worker, "apache2:socket_poll", poll_timeout);
        let link2 = d.world.link.clone();
        let req_in = link2.sample_rtt_at(d.now(), &mut d.rng) / 2;
        d.after(req_in, move |d| {
            // Request headers arrive: delayed ACK armed; the watchdog
            // poll is re-armed (not cancelled) while the request body
            // trickles in — Apache's connection-watchdog idiom.
            d.kernel.tcp_data_received(conn);
            let chunks = 1 + d.rng.range_u64(0, 3);
            for c in 1..chunks {
                let at = SimDuration::from_micros(300 * c);
                d.after(at, move |d| {
                    if d.kernel.timer_base().is_pending(poll) {
                        let t = decide(
                            d.world.policy,
                            &d.world.poll_est,
                            SimDuration::from_secs(15),
                        );
                        d.kernel.sys_poll(worker, worker, "apache2:socket_poll", t);
                    }
                });
            }
            let done = SimDuration::from_micros(300 * chunks + 50);
            d.after(done, move |d| {
                if d.kernel.timer_base().is_pending(poll) {
                    // The poll completed with work: its elapsed wait is a
                    // service-time sample for the watchdog distribution.
                    d.world.poll_est.observe_success(d.now() - poll_armed_at);
                    d.kernel.sys_poll_return(poll);
                }
            });
            let mut service =
                simtime::LogNormal::from_median(0.0012, 0.6).sample_duration(&mut d.rng);
            if d.rng.chance(0.22) {
                // A slow CGI-ish request outlives the 40 ms delayed-ACK
                // window, letting the delack timer expire.
                service += SimDuration::from_millis(45 + d.rng.range_u64(0, 40));
            }
            d.after(service.max(SimDuration::from_micros(500)), move |d| {
                serve_response(d, conn, worker);
            });
        });
    });
}

/// The worker writes its log and sends the response.
fn serve_response(driver: &mut LinuxDriver<WebWorld>, conn: ConnId, worker: Pid) {
    // Access log write: journal + block I/O.
    driver.kernel.journal_write();
    let req = driver.kernel.blk_submit();
    let io_time = SimDuration::from_millis(2 + driver.rng.range_u64(0, 8));
    driver.after(io_time, move |d| d.kernel.blk_complete(req));
    // Response transmission piggybacks the ACK (cancelling delack) and
    // arms the RTO.
    driver.kernel.tcp_transmit(conn);
    let link = driver.world.link.clone();
    match link.send_segment_at(driver.now(), &mut driver.rng) {
        Some(rtt) => {
            driver.after(rtt, move |d| {
                d.kernel.tcp_ack_received(conn, Some(rtt));
                d.kernel.tcp_close(conn);
                d.world.inflight -= 1;
                // A freed slot admits a queued request, if the pacer
                // left one waiting.
                admit_queued(d);
                // The worker goes back to its event loop.
                worker_loop_wait(d, worker, worker);
            });
        }
        None => {
            // Lost response: recovery is the RTO's job. The connection
            // (and its window slot, and the worker) stays busy until the
            // retransmitted response is ACKed — the armed wait before
            // that retransmit is precisely the recovery latency the
            // fixed-vs-learned §5.1 figures compare.
            driver.world.pending_retx.insert(conn, worker);
        }
    }
}

/// Runs the webserver workload; `net` attaches a degradation episode to
/// the client/server LAN ([`NetFault::none`] for the paper's conditions).
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
    for w in 0..WORKERS {
        kernel.register_process(pids::APACHE + w, "apache2");
    }
    // Pace 30000 requests across the run (the paper's total), with the
    // 10-parallel closed-loop window as the cap.
    // The paper's 30000 requests over its 30-minute trace; shorter runs
    // keep the same request density.
    let total_requests = ((30_000.0 * duration.as_secs_f64() / 1_800.0) as u64).max(100);
    let mean_gap = duration.as_secs_f64() / total_requests as f64;
    let world = WebWorld {
        remaining: total_requests,
        inflight: 0,
        parallel: 10,
        queued: 0,
        loop_handles: vec![None; WORKERS as usize],
        link: netsim::Link::lan().with_fault(net),
        interarrival: Exp::new(mean_gap.max(1e-4)),
        policy,
        poll_est: AdaptiveTimeout::new(0.999, SimDuration::from_secs(15))
            .with_safety(2.0)
            .with_bounds(SimDuration::from_millis(100), SimDuration::from_secs(15))
            .with_warmup(32),
        loop_est: AdaptiveTimeout::new(0.999, SimDuration::from_secs(1))
            .with_safety(2.0)
            .with_bounds(SimDuration::from_millis(50), SimDuration::from_secs(8))
            .with_warmup(32),
        last_arrival: vec![None; WORKERS as usize],
        pending_retx: std::collections::BTreeMap::new(),
    };
    let rng = SimRng::new(seed ^ 0x3eb5);
    let mut driver = LinuxDriver::new(kernel, rng, world);
    for w in 0..WORKERS {
        worker_loop_wait(&mut driver, pids::APACHE + w, pids::APACHE + w);
    }
    schedule_arrivals(&mut driver);
    schedule_lan(&mut driver, netsim::LanActivity::departmental());
    driver.finish(duration)
}
