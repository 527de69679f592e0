//! The TCP timer machinery.
//!
//! TCP is the paper's canonical *adaptive* timer user (§5.1): the
//! retransmission timeout tracks the mean and variance of measured
//! round-trip times (Jacobson/Karels) with exponential backoff on loss,
//! while the rest of the socket timers are constants that Table 3 surfaces
//! directly: the 40 ms delayed-ACK timer, the 3 s initial SYN retransmit,
//! and the famous 7200 s keepalive.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventFlags, Space, TraceLog};

use crate::ids::ConnId;
use crate::kernel::{LinuxKernel, Notify};
use crate::timers::{Callback, TimerBase, TimerHandle};

/// Floor of the retransmission timeout.
///
/// `TCP_RTO_MIN` is HZ/5 = 200 ms; the kernel's conversion chain arms the
/// timer one jiffy later, which is why the paper's traces show the value
/// as 0.204 s (51 jiffies). We arm with the observed constant.
pub const RTO_MIN: SimDuration = SimDuration::from_millis(204);
/// Ceiling of the retransmission timeout (`TCP_RTO_MAX`, 120 s).
pub const RTO_MAX: SimDuration = SimDuration::from_secs(120);
/// Initial retransmission/SYN timeout before any RTT sample
/// (`TCP_TIMEOUT_INIT`, 3 s — Table 3's "Sockets / 3 s / Timeout").
pub const TCP_TIMEOUT_INIT: SimDuration = SimDuration::from_secs(3);
/// Delayed-ACK timeout (`TCP_DELACK_MAX`, HZ/25 = 40 ms — Table 3's
/// "Sockets / 0.04 / Timeout").
pub const DELACK: SimDuration = SimDuration::from_millis(40);
/// Keepalive idle time (`TCP_KEEPALIVE_TIME`, 7200 s).
pub const KEEPALIVE: SimDuration = SimDuration::from_secs(7200);
/// SYN retry limit (`tcp_syn_retries` default 5).
pub const SYN_RETRIES: u32 = 5;

/// The four timers every socket owns (as one reusable slab object).
#[derive(Debug, Clone, Copy)]
pub struct SockTimers {
    rto: TimerHandle,
    delack: TimerHandle,
    keepalive: TimerHandle,
    synretry: TimerHandle,
}

/// Per-connection TCP state.
#[derive(Debug)]
pub struct TcpConn {
    timers: SockTimers,
    /// Jacobson/Karels round-trip state.
    rtt: adaptive::RttSmoother,
    /// Current retransmission timeout.
    rto: SimDuration,
    /// Initial SYN-retransmit timeout chosen at open (the historical 3 s,
    /// or the learned RTT tail); each retry doubles from this base.
    syn_init: SimDuration,
    /// Duration the currently armed SYN-retransmit timer was set for.
    syn_armed: SimDuration,
    syn_retries: u32,
    established: bool,
    keepalive_enabled: bool,
}

impl TcpConn {
    /// The connection's current RTO.
    pub fn rto(&self) -> SimDuration {
        self.rto
    }
}

/// The connection table with slab-style timer reuse.
///
/// Closed sockets return their timer quad to a free pool so the next
/// accept reuses the same `struct timer_list` addresses — the reuse
/// behaviour that keeps the paper's Table 1 "timers" counts near 100 even
/// for a 30000-connection webserver run.
#[derive(Debug, Default)]
pub struct TcpTable {
    conns: FoldMap<ConnId, TcpConn>,
    pool: Vec<SockTimers>,
    next_id: u32,
}

impl TcpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of open connections.
    pub fn open_count(&self) -> usize {
        self.conns.len()
    }

    fn alloc_timers(
        &mut self,
        base: &mut TimerBase,
        log: &mut TraceLog,
        now: SimInstant,
    ) -> SockTimers {
        if let Some(t) = self.pool.pop() {
            return t;
        }
        SockTimers {
            rto: base.init_timer(
                log,
                now,
                "tcp:retransmit",
                Callback::TcpRto(ConnId(0)),
                0,
                0,
                Space::Kernel,
            ),
            delack: base.init_timer(
                log,
                now,
                "tcp:delack",
                Callback::TcpDelack(ConnId(0)),
                0,
                0,
                Space::Kernel,
            ),
            keepalive: base.init_timer(
                log,
                now,
                "tcp:keepalive",
                Callback::TcpKeepalive(ConnId(0)),
                0,
                0,
                Space::Kernel,
            ),
            synretry: base.init_timer(
                log,
                now,
                "tcp:syn_retransmit",
                Callback::TcpSynRetry(ConnId(0)),
                0,
                0,
                Space::Kernel,
            ),
        }
    }
}

impl LinuxKernel {
    /// Opens a TCP socket: active (client SYN sent) or passive (SYN
    /// received, SYN-ACK sent). Both arm the 3 s connection-establishment
    /// retransmit timer.
    pub fn tcp_open(&mut self, keepalive: bool) -> ConnId {
        let id = ConnId(self.tcp.next_id);
        self.tcp.next_id += 1;
        let timers = self
            .tcp
            .alloc_timers(&mut self.base, &mut self.log, self.now);
        // Retarget the reused slots at this connection.
        self.retarget(timers, id);
        // Under the learned policy a warm RTT prior replaces the blind 3 s
        // initial timeout (§5.1: the first RTO should come from the
        // learned distribution, not a round constant).
        let init = LinuxKernel::decide_timeout(self.cfg.policy, &self.rtt_prior, TCP_TIMEOUT_INIT);
        let conn = TcpConn {
            timers,
            rtt: adaptive::RttSmoother::default(),
            rto: init,
            syn_init: init,
            syn_armed: init,
            syn_retries: 0,
            established: false,
            keepalive_enabled: keepalive,
        };
        self.tcp.conns.insert(id, conn);
        self.charge_call(self.now);
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            timers.synretry,
            init,
            jitter,
            EventFlags::default(),
        );
        id
    }

    /// Points a (possibly recycled) timer quad at connection `id`.
    fn retarget(&mut self, timers: SockTimers, id: ConnId) {
        self.base
            .retarget_callback(timers.rto, Callback::TcpRto(id));
        self.base
            .retarget_callback(timers.delack, Callback::TcpDelack(id));
        self.base
            .retarget_callback(timers.keepalive, Callback::TcpKeepalive(id));
        self.base
            .retarget_callback(timers.synretry, Callback::TcpSynRetry(id));
    }

    /// Handshake completed: cancel the SYN timer, start keepalive.
    pub fn tcp_established(&mut self, id: ConnId) {
        let Some(conn) = self.tcp.conns.get(&id) else {
            return;
        };
        let timers = conn.timers;
        let keepalive = conn.keepalive_enabled;
        self.charge_call(self.now);
        self.base
            .del_timer(&mut self.log, self.now, timers.synretry);
        if let Some(c) = self.tcp.conns.get_mut(&id) {
            c.established = true;
        }
        if keepalive {
            let jitter = self.sample_set_jitter();
            self.base.mod_timer_in(
                &mut self.log,
                self.now,
                timers.keepalive,
                KEEPALIVE,
                jitter,
                EventFlags::default(),
            );
        }
    }

    /// Data (re)transmitted: arm the RTO if not already pending, and
    /// piggyback any pending delayed ACK.
    pub fn tcp_transmit(&mut self, id: ConnId) {
        let Some(conn) = self.tcp.conns.get(&id) else {
            return;
        };
        let timers = conn.timers;
        let rto = conn.rto;
        self.charge_call(self.now);
        if self.base.is_pending(timers.delack) {
            // Outgoing data carries the ACK: the delack timer is cancelled
            // shortly after being set, the canonical short *timeout*.
            self.base.del_timer(&mut self.log, self.now, timers.delack);
        }
        if !self.base.is_pending(timers.rto) {
            let jitter = self.sample_set_jitter();
            self.base.mod_timer_in(
                &mut self.log,
                self.now,
                timers.rto,
                rto,
                jitter,
                EventFlags::default(),
            );
        }
    }

    /// An ACK for outstanding data arrived, optionally with an RTT sample
    /// (Karn's rule: no sample for retransmitted segments).
    pub fn tcp_ack_received(&mut self, id: ConnId, sample: Option<SimDuration>) {
        let Some(conn) = self.tcp.conns.get_mut(&id) else {
            return;
        };
        if let Some(rtt) = sample {
            // Feed the kernel-wide RTT prior in every mode (a workload
            // observation, not queue state, so it never perturbs replay).
            self.rtt_prior.observe_success(rtt);
            conn.rto = conn.rtt.update(rtt, RTO_MIN, RTO_MAX);
        }
        let timers = conn.timers;
        self.charge_call(self.now);
        self.base.del_timer(&mut self.log, self.now, timers.rto);
        // The keepalive timer is *not* re-armed per segment: it fires
        // after 7200 s and checks connection idleness then, which is why
        // the 7200 s value appears once per connection in the traces.
    }

    /// Data received with nothing to send back yet: arm the 40 ms delayed
    /// ACK.
    pub fn tcp_data_received(&mut self, id: ConnId) {
        let Some(conn) = self.tcp.conns.get(&id) else {
            return;
        };
        let timers = conn.timers;
        self.charge_call(self.now);
        if !self.base.is_pending(timers.delack) {
            let jitter = self.sample_set_jitter();
            self.base.mod_timer_in(
                &mut self.log,
                self.now,
                timers.delack,
                DELACK,
                jitter,
                EventFlags::default(),
            );
        }
    }

    /// Closes a socket: cancel all pending timers, recycle the quad.
    pub fn tcp_close(&mut self, id: ConnId) {
        let Some(conn) = self.tcp.conns.remove(&id) else {
            return;
        };
        self.charge_call(self.now);
        for h in [
            conn.timers.rto,
            conn.timers.delack,
            conn.timers.keepalive,
            conn.timers.synretry,
        ] {
            self.base.del_timer(&mut self.log, self.now, h);
        }
        self.tcp.pool.push(conn.timers);
    }

    /// Read access to a connection's adaptive state.
    pub fn tcp_conn(&self, id: ConnId) -> Option<&TcpConn> {
        self.tcp.conns.get(&id)
    }

    // ------------------------------------------------------------------
    // Expiry callbacks (dispatched from the kernel tick loop).
    // ------------------------------------------------------------------

    pub(crate) fn tcp_rto_expired(&mut self, id: ConnId, at: SimInstant) {
        let Some(conn) = self.tcp.conns.get_mut(&id) else {
            return;
        };
        // Account the recovery latency this expiry paid (the armed wait)
        // before backing off — the fixed-vs-adaptive figures compare this.
        telemetry::sim::add(telemetry::SimCounter::AdaptiveRtoExpirations, 1);
        telemetry::sim::add(
            telemetry::SimCounter::AdaptiveRtoWaitNs,
            conn.rto.as_nanos(),
        );
        // Exponential backoff, capped at RTO_MAX.
        conn.rto = conn.rto.mul_f64(2.0).min(RTO_MAX);
        let rto = conn.rto;
        let timers = conn.timers;
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            at,
            timers.rto,
            rto,
            jitter,
            EventFlags::default(),
        );
        telemetry::sim::add(telemetry::SimCounter::NetRetransmits, 1);
        self.notifications.push(Notify::TcpRetransmit { conn: id });
    }

    pub(crate) fn tcp_delack_expired(&mut self, _id: ConnId, at: SimInstant) {
        // A pure ACK goes out; no timer is re-armed until more data lands.
        self.charge_call(at);
    }

    pub(crate) fn tcp_keepalive_expired(&mut self, id: ConnId, at: SimInstant) {
        let Some(conn) = self.tcp.conns.get(&id) else {
            return;
        };
        let timers = conn.timers;
        // Probe the peer and re-arm (probe interval elided: the 30-minute
        // traces never reach a second keepalive anyway).
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            at,
            timers.keepalive,
            KEEPALIVE,
            jitter,
            EventFlags::default(),
        );
        self.notifications
            .push(Notify::TcpKeepaliveProbe { conn: id });
    }

    pub(crate) fn tcp_syn_retry_expired(&mut self, id: ConnId, at: SimInstant) {
        let Some(conn) = self.tcp.conns.get_mut(&id) else {
            return;
        };
        telemetry::sim::add(telemetry::SimCounter::AdaptiveRtoExpirations, 1);
        telemetry::sim::add(
            telemetry::SimCounter::AdaptiveRtoWaitNs,
            conn.syn_armed.as_nanos(),
        );
        conn.syn_retries += 1;
        if conn.syn_retries >= SYN_RETRIES {
            self.notifications
                .push(Notify::TcpConnectFailed { conn: id });
            return;
        }
        // Double from the connection's initial SYN timeout. With the
        // historical 3 s base this reproduces `3 << retries` exactly; a
        // learned base backs off on the same schedule from its own start.
        let shift = conn.syn_retries.min(6);
        let backoff_ns = (conn.syn_init.as_nanos() as u128) << shift;
        let backoff =
            SimDuration::from_nanos(u64::try_from(backoff_ns).unwrap_or(u64::MAX)).min(RTO_MAX);
        conn.syn_armed = backoff;
        let timers = conn.timers;
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            at,
            timers.synretry,
            backoff,
            jitter,
            EventFlags::default(),
        );
        telemetry::sim::add(telemetry::SimCounter::NetRetransmits, 1);
        self.notifications.push(Notify::TcpRetransmit { conn: id });
    }
}
