//! The scaled Apache workload: ~10⁶ concurrent keep-alive connections.
//!
//! The paper's httperf run holds ~10 connections in flight; this model
//! scales the same per-connection timer pattern — a 15 s application
//! watchdog endlessly re-set by activity, plus one kernel retransmit
//! timer — to a million concurrent connections, the load a modern
//! front-end webserver actually carries: two live timers per connection,
//! a working set far beyond the caches.
//!
//! Everything is deterministic: wave membership and loss selection come
//! from the connection's position and the wave number, never the RNG.

use netsim::NetFault;
use simtime::{SimDuration, SimInstant, SimRng};
use trace::TraceSink;

use super::schedule_lan;
use crate::driver::{LinuxDriver, World};
use crate::pids;
use linuxsim::{LinuxConfig, LinuxKernel, MassId, Notify};

/// Connections opened per second of run length (500 s reaches the full
/// million).
pub const CONNS_PER_SECOND: u64 = 2_000;
/// Ceiling: the titular million connections.
pub const MAX_CONNS: u64 = 1_000_000;
/// Floor for very short runs.
pub const MIN_CONNS: u64 = 1_000;
/// Gap between activity waves; must stay under the 15 s watchdog.
const WAVE_GAP: SimDuration = SimDuration::from_secs(10);
/// Ramp batches (connections open over the first 40 % of the run).
const RAMP_BATCHES: u64 = 50;

/// The connection count a run of `duration` builds up to.
pub fn connection_target(duration: SimDuration) -> u64 {
    ((duration.as_secs_f64() * CONNS_PER_SECOND as f64) as u64).clamp(MIN_CONNS, MAX_CONNS)
}

/// Workload state: the open connection set.
pub struct MassWorld {
    /// Every opened connection.
    conns: Vec<MassId>,
    target: u64,
    /// Activity-wave sequence number.
    wave: u64,
}

impl World<LinuxKernel> for MassWorld {
    fn on_notify(_driver: &mut LinuxDriver<Self>, _notify: Notify) {
        // The mass table needs no driver-side reaction: watchdog and
        // retransmit expiries are handled inside the kernel model.
    }
}

/// Opens one ramp batch of connections.
fn open_batch(driver: &mut LinuxDriver<MassWorld>, count: u64) {
    for _ in 0..count {
        if driver.world.conns.len() as u64 >= driver.world.target {
            return;
        }
        let id = driver.kernel.mass_open(pids::APACHE);
        driver.world.conns.push(id);
    }
}

/// One activity wave: every open connection refreshes its watchdog and
/// either goes idle acknowledged or, for a rotating ~1 % subset,
/// retransmits into loss so its RTO genuinely fires.
fn run_wave(driver: &mut LinuxDriver<MassWorld>) {
    driver.world.wave += 1;
    let wave = driver.world.wave;
    let conns = std::mem::take(&mut driver.world.conns);
    for (idx, &id) in conns.iter().enumerate() {
        driver.kernel.mass_activity(id);
        if (idx as u64).wrapping_add(wave).is_multiple_of(101) {
            driver.kernel.mass_transmit(id);
        } else {
            driver.kernel.mass_ack(id);
        }
    }
    driver.world.conns = conns;
}

/// Schedules the recurring activity waves until `close_at`.
fn schedule_waves(driver: &mut LinuxDriver<MassWorld>, close_at: SimInstant) {
    driver.after(WAVE_GAP, move |d| {
        // A due wave always runs (skipping it would open a gap longer
        // than the 15 s watchdog); only waves landing at or past the
        // close are dropped.
        if d.now() >= close_at {
            return;
        }
        run_wave(d);
        schedule_waves(d, close_at);
    });
}

/// Closes every open connection (the end-of-run drain: zero leaked
/// timers is part of the acceptance for this workload).
fn close_all(driver: &mut LinuxDriver<MassWorld>) {
    let conns = std::mem::take(&mut driver.world.conns);
    for &id in &conns {
        driver.kernel.mass_close(id);
    }
    driver.world.conns = conns;
}

/// Runs the scaled Apache workload; `net` attaches a degradation episode
/// to the background LAN (the mass table itself models loss
/// deterministically).
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
    kernel.register_process(pids::APACHE, "apache2");
    let target = connection_target(duration);
    let world = MassWorld {
        conns: Vec::with_capacity(target as usize),
        target,
        wave: 0,
    };
    let rng = SimRng::new(seed ^ 0xa9ac);
    let mut driver = LinuxDriver::new(kernel, rng, world);

    // Ramp: open the population in batches across the first 40 % of the
    // run, then hold it steady with activity waves, then drain.
    let ramp_span = duration * 2 / 5;
    let batch_gap = ramp_span / RAMP_BATCHES;
    let per_batch = target.div_ceil(RAMP_BATCHES);
    for b in 0..RAMP_BATCHES {
        let delay = SimDuration::from_nanos(batch_gap.as_nanos() * b + 1);
        driver.after(delay, move |d| open_batch(d, per_batch));
    }
    let close_margin = SimDuration::from_secs(2).min(duration / 4);
    let close_at = SimInstant::BOOT + (duration - close_margin);
    schedule_waves(&mut driver, close_at);
    driver.after(duration - close_margin, close_all);
    schedule_lan(&mut driver, netsim::LanActivity::departmental());
    let _ = net; // Background LAN only; mass loss is deterministic.
    driver.finish(duration)
}
