//! The mass-connection table: the scaled httperf/Apache workload.
//!
//! The paper's webserver trace tops out at ~84 concurrent timers; this
//! table scales the same per-connection timer pattern to ~10⁶ concurrent
//! connections, each owning exactly two timers — an application-level
//! keepalive watchdog (Apache's 15 s `KeepAliveTimeout`, endlessly re-set
//! by activity: the canonical *watchdog* pattern) and a kernel TCP
//! retransmit timer (3 s initial, exponential backoff: the *timeout*
//! pattern). It exercises the timer base and the streaming analysis at a
//! population far beyond the paper's traces.
//!
//! Unlike [`TcpTable`](crate::subsys::tcp::TcpTable) — which models the
//! full Jacobson RTO machinery for table-fidelity — entries here are a
//! flat slab indexed by [`MassId`], because a million `HashMap` entries
//! with four timers each would dominate the run's memory for no extra
//! fidelity.

use simtime::{SimDuration, SimInstant};
use trace::{EventFlags, Pid, Space};

use crate::ids::MassId;
use crate::kernel::LinuxKernel;
use crate::subsys::tcp::{RTO_MAX, TCP_TIMEOUT_INIT};
use crate::timers::{Callback, TimerHandle};

/// Apache's default `KeepAliveTimeout`: the per-connection watchdog.
pub const MASS_WATCHDOG_TIMEOUT: SimDuration = SimDuration::from_secs(15);
/// Retransmit backoffs before the connection gives up (`tcp_retries`-ish;
/// kept small so abandoned connections drain within a short run).
pub const MASS_RTO_RETRIES: u8 = 5;
/// Retransmit arm on an idle acknowledged connection (zero-window-probe
/// territory: pending but rarely expiring, like most of the paper's
/// timeout-pattern timers).
pub const MASS_RTO_IDLE: SimDuration = SimDuration::from_secs(60);

/// One connection's slab entry.
#[derive(Debug, Clone, Copy)]
struct MassEntry {
    watchdog: TimerHandle,
    rto: TimerHandle,
    /// Consecutive RTO backoffs since the last ACK.
    backoff: u8,
    open: bool,
    /// Duration the currently armed retransmit timer was set for.
    rto_armed: SimDuration,
    /// Base the exponential backoff doubles from (the historical 3 s, or
    /// the learned RTT tail when the policy is `Learned`).
    rto_base: SimDuration,
    /// Last activity instant, for learning the keepalive gap distribution.
    last_activity: SimInstant,
    /// Last transmit instant, for deriving ACK round-trip samples.
    last_transmit: SimInstant,
}

/// The mass-connection slab with free-list timer reuse.
#[derive(Debug, Default)]
pub struct MassTable {
    entries: Vec<MassEntry>,
    free: Vec<u32>,
    open: u64,
    opened_total: u64,
    watchdog_closes: u64,
    rto_giveups: u64,
}

impl MassTable {
    /// Currently open connections.
    pub fn open_count(&self) -> u64 {
        self.open
    }

    /// Connections ever opened.
    pub fn opened_total(&self) -> u64 {
        self.opened_total
    }

    /// Connections closed by their watchdog expiring (went idle).
    pub fn watchdog_closes(&self) -> u64 {
        self.watchdog_closes
    }

    /// Connections abandoned after exhausting RTO retries.
    pub fn rto_giveups(&self) -> u64 {
        self.rto_giveups
    }
}

impl LinuxKernel {
    /// Opens a mass connection: allocates (or recycles) its two timers
    /// and arms both — the watchdog at 15 s, the retransmit timer at the
    /// 3 s initial timeout.
    pub fn mass_open(&mut self, pid: Pid) -> MassId {
        let idx = match self.mass.free.pop() {
            Some(idx) => idx,
            None => {
                let idx = self.mass.entries.len() as u32;
                let id = MassId(idx);
                let watchdog = self.base.init_timer(
                    &mut self.log,
                    self.now,
                    "mass:keepalive_watchdog",
                    Callback::MassWatchdog(id),
                    pid,
                    pid,
                    Space::User,
                );
                let rto = self.base.init_timer(
                    &mut self.log,
                    self.now,
                    "mass:retransmit",
                    Callback::MassRto(id),
                    0,
                    0,
                    Space::Kernel,
                );
                self.mass.entries.push(MassEntry {
                    watchdog,
                    rto,
                    backoff: 0,
                    open: false,
                    rto_armed: TCP_TIMEOUT_INIT,
                    rto_base: TCP_TIMEOUT_INIT,
                    last_activity: self.now,
                    last_transmit: self.now,
                });
                idx
            }
        };
        let id = MassId(idx);
        let watchdog_timeout =
            LinuxKernel::decide_timeout(self.cfg.policy, &self.mass_gap, MASS_WATCHDOG_TIMEOUT);
        let rto_init =
            LinuxKernel::decide_timeout(self.cfg.policy, &self.rtt_prior, TCP_TIMEOUT_INIT);
        let entry = &mut self.mass.entries[idx as usize];
        entry.backoff = 0;
        entry.open = true;
        entry.rto_armed = rto_init;
        entry.rto_base = rto_init;
        entry.last_activity = self.now;
        entry.last_transmit = self.now;
        let (watchdog, rto) = (entry.watchdog, entry.rto);
        self.mass.open += 1;
        self.mass.opened_total += 1;
        self.charge_call(self.now);
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            watchdog,
            watchdog_timeout,
            SimDuration::ZERO,
            EventFlags::default(),
        );
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            rto,
            rto_init,
            jitter,
            EventFlags::default(),
        );
        id
    }

    /// Connection activity: re-sets the watchdog to its full timeout (the
    /// watchdog pattern).
    pub fn mass_activity(&mut self, id: MassId) {
        let Some(entry) = self.mass.entries.get_mut(id.0 as usize) else {
            return;
        };
        if !entry.open {
            return;
        }
        let watchdog = entry.watchdog;
        // The gap between consecutive activity bursts is exactly the
        // distribution the keepalive watchdog should cover (§5.1): feed it
        // in every mode, consult it only under `Learned`.
        let gap = self.now - entry.last_activity;
        entry.last_activity = self.now;
        self.mass_gap.observe_success(gap);
        let timeout =
            LinuxKernel::decide_timeout(self.cfg.policy, &self.mass_gap, MASS_WATCHDOG_TIMEOUT);
        self.charge_call(self.now);
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            watchdog,
            timeout,
            SimDuration::ZERO,
            EventFlags::default(),
        );
    }

    /// An ACK arrived and the connection went idle: reset the backoff and
    /// re-arm the retransmit timer far out — pending (the connection still
    /// owns its two timers) but rarely expiring.
    pub fn mass_ack(&mut self, id: MassId) {
        // The transmit→ACK delay is a round-trip sample for the shared
        // RTT prior (fed in every mode, like `tcp_ack_received`).
        if let Some(entry) = self.mass.entries.get(id.0 as usize) {
            if entry.open {
                let rtt = self.now - entry.last_transmit;
                self.rtt_prior.observe_success(rtt);
            }
        }
        let base = LinuxKernel::decide_timeout(self.cfg.policy, &self.rtt_prior, TCP_TIMEOUT_INIT);
        self.mass_rearm_rto(id, MASS_RTO_IDLE, base);
    }

    /// Data went out (and its ACK will be lost): the retransmit timer
    /// arms at the initial timeout and will actually fire.
    pub fn mass_transmit(&mut self, id: MassId) {
        if let Some(entry) = self.mass.entries.get_mut(id.0 as usize) {
            entry.last_transmit = self.now;
        }
        let init = LinuxKernel::decide_timeout(self.cfg.policy, &self.rtt_prior, TCP_TIMEOUT_INIT);
        self.mass_rearm_rto(id, init, init);
    }

    /// Re-arms the retransmit timer at `timeout`; `base` is what the
    /// exponential backoff doubles from — the *initial* RTO decision,
    /// never the idle-probe interval, matching the fixed `3 s << n`.
    fn mass_rearm_rto(&mut self, id: MassId, timeout: SimDuration, base: SimDuration) {
        let Some(entry) = self.mass.entries.get_mut(id.0 as usize) else {
            return;
        };
        if !entry.open {
            return;
        }
        entry.backoff = 0;
        entry.rto_armed = timeout;
        entry.rto_base = base;
        let rto = entry.rto;
        self.charge_call(self.now);
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            rto,
            timeout,
            jitter,
            EventFlags::default(),
        );
    }

    /// Closes a mass connection: cancels both timers, returns the entry to
    /// the free list.
    pub fn mass_close(&mut self, id: MassId) {
        let Some(entry) = self.mass.entries.get_mut(id.0 as usize) else {
            return;
        };
        if !entry.open {
            return;
        }
        entry.open = false;
        let (watchdog, rto) = (entry.watchdog, entry.rto);
        self.charge_call(self.now);
        self.base.del_timer(&mut self.log, self.now, watchdog);
        self.base.del_timer(&mut self.log, self.now, rto);
        self.mass.open -= 1;
        self.mass.free.push(id.0);
    }

    /// Read access to the mass-connection table.
    pub fn mass_table(&self) -> &MassTable {
        &self.mass
    }

    /// The watchdog fired: the connection went idle past its keepalive
    /// timeout, so it closes (the retransmit timer is cancelled with it).
    pub(crate) fn mass_watchdog_expired(&mut self, id: MassId, at: simtime::SimInstant) {
        let Some(entry) = self.mass.entries.get_mut(id.0 as usize) else {
            return;
        };
        if !entry.open {
            return;
        }
        entry.open = false;
        let rto = entry.rto;
        self.charge_call(at);
        self.base.del_timer(&mut self.log, at, rto);
        self.mass.open -= 1;
        self.mass.watchdog_closes += 1;
        self.mass.free.push(id.0);
    }

    /// The retransmit timer fired: back off exponentially; past the retry
    /// limit the connection is abandoned (watchdog cancelled too).
    pub(crate) fn mass_rto_expired(&mut self, id: MassId, at: simtime::SimInstant) {
        let Some(entry) = self.mass.entries.get_mut(id.0 as usize) else {
            return;
        };
        if !entry.open {
            return;
        }
        // Recovery-latency accounting for the fixed-vs-adaptive figures:
        // this expiry waited exactly the armed duration.
        telemetry::sim::add(telemetry::SimCounter::AdaptiveRtoExpirations, 1);
        telemetry::sim::add(
            telemetry::SimCounter::AdaptiveRtoWaitNs,
            entry.rto_armed.as_nanos(),
        );
        if entry.backoff >= MASS_RTO_RETRIES {
            entry.open = false;
            let watchdog = entry.watchdog;
            self.charge_call(at);
            self.base.del_timer(&mut self.log, at, watchdog);
            self.mass.open -= 1;
            self.mass.rto_giveups += 1;
            self.mass.free.push(id.0);
            return;
        }
        entry.backoff += 1;
        let backoff = entry.backoff;
        let rto_handle = entry.rto;
        // Doubled timeout, capped at RTO_MAX; re-armed with no CPU context
        // (softirq context: the timer stays where its base fired it unless
        // the home hash says otherwise).
        let nanos = entry
            .rto_base
            .as_nanos()
            .saturating_mul(1 << backoff.min(8))
            .min(RTO_MAX.as_nanos());
        entry.rto_armed = SimDuration::from_nanos(nanos);
        self.charge_call(at);
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            at,
            rto_handle,
            SimDuration::from_nanos(nanos),
            jitter,
            EventFlags::default(),
        );
    }
}
