//! The re-architected Vista TCP/IP timer wheel.
//!
//! "The Windows Vista TCP/IP stack was recently completely re-architected
//! to use per-CPU timing wheels for TCP-related timeouts" (§1) because
//! per-connection KTIMERs caused significant CPU overhead. The
//! consequence visible in the paper's data: the Vista *webserver* trace's
//! kernel timer activity is barely above idle (Table 2: 203 k vs 215 k)
//! even while serving 30000 connections — connection timers live in the
//! wheel, and only the wheel's periodic tick touches the KTIMER ring.
//!
//! This module models exactly that: a [`wheel::HashedWheel`] of
//! per-connection entries (retransmit, delayed ACK, keepalive…) advanced
//! by a single 100 ms KTIMER tick per CPU.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{Pid, Space};
use wheel::{Backend, TimerQueue};

use crate::kernel::{VistaKernel, VistaNotify};
use crate::ktimer::KtAction;

/// The wheel's tick quantum (entries round up to 10 ms).
pub const WHEEL_QUANTUM: SimDuration = SimDuration::from_millis(10);
/// The period of the KTIMER driving wheel processing.
pub const WHEEL_TICK: SimDuration = SimDuration::from_millis(100);
/// Initial retransmission timeout (Windows default 3 s).
pub const INITIAL_RTO: SimDuration = SimDuration::from_secs(3);
/// Minimum retransmission timeout.
pub const MIN_RTO: SimDuration = SimDuration::from_millis(300);

/// Kinds of per-connection wheel entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EntryKind {
    Retransmit,
    DelayedAck,
    Keepalive,
}

/// One connection's state in the wheel-based stack.
#[derive(Debug)]
struct VConn {
    /// Wheel ids of the connection's entries, when armed.
    rto_id: u64,
    delack_id: u64,
    keepalive_id: u64,
    rtt: adaptive::RttSmoother,
    rto: SimDuration,
}

/// The per-CPU TCP timing wheel.
#[derive(Debug)]
pub struct VistaTcp {
    wheel: Box<dyn TimerQueue>,
    entries: FoldMap<u64, (u32, EntryKind)>,
    conns: FoldMap<u32, VConn>,
    next_conn: u32,
    next_entry: u64,
    /// Timer operations absorbed by the wheel (never reaching KTIMER).
    pub masked_ops: u64,
    booted: bool,
}

impl Default for VistaTcp {
    fn default() -> Self {
        Self::with_backend(Backend::Native)
    }
}

impl VistaTcp {
    /// Creates the stack on `backend`; `Native` selects the re-architected
    /// 512-slot per-CPU hashed wheel.
    pub fn with_backend(backend: Backend) -> Self {
        VistaTcp {
            wheel: backend.build(Backend::Hashed, 512),
            entries: FoldMap::default(),
            conns: FoldMap::default(),
            next_conn: 1,
            next_entry: 1,
            masked_ops: 0,
            booted: false,
        }
    }

    fn quantum_of(&self, now: SimInstant, rel: SimDuration) -> u64 {
        (now + rel).as_nanos().div_ceil(WHEEL_QUANTUM.as_nanos())
    }
}

impl VistaKernel {
    /// Starts the wheel's driving tick on first use.
    fn tcp_wheel_boot(&mut self) {
        if self.vtcp.booted {
            return;
        }
        self.vtcp.booted = true;
        let h = self.kt.allocate(
            &mut self.log,
            self.now,
            "tcpip:wheel_tick",
            KtAction::TcpWheelTick,
            0,
            0,
            Space::Kernel,
        );
        self.kt.ke_set_timer(&mut self.log, self.now, h, WHEEL_TICK);
    }

    /// Opens a wheel-managed TCP connection.
    pub fn vtcp_connect(&mut self, _pid: Pid) -> u32 {
        self.tcp_wheel_boot();
        let id = self.vtcp.next_conn;
        self.vtcp.next_conn += 1;
        // Under the learned policy a warm RTT prior replaces the blind 3 s
        // initial timeout, clamped to [MIN_RTO, INITIAL_RTO].
        let init = Self::decide_timeout(self.cfg.policy, &self.rtt_prior, INITIAL_RTO);
        self.vtcp.conns.insert(
            id,
            VConn {
                rto_id: 0,
                delack_id: 0,
                keepalive_id: 0,
                rtt: adaptive::RttSmoother::default(),
                rto: init,
            },
        );
        // The SYN retransmit entry goes into the wheel, not the ring.
        self.vtcp_arm(id, EntryKind::Retransmit, init);
        id
    }

    /// Resolves one timeout decision under the configured policy (mirrors
    /// `linuxsim`'s helper): the historical constant unless the policy is
    /// `Learned` and the estimator is warm.
    pub(crate) fn decide_timeout(
        policy: adaptive::AdaptivePolicy,
        est: &adaptive::AdaptiveTimeout,
        fixed: SimDuration,
    ) -> SimDuration {
        if policy.is_learned() && est.is_warm() {
            telemetry::sim::add(telemetry::SimCounter::AdaptiveLearnedArms, 1);
            est.timeout().min(fixed)
        } else {
            fixed
        }
    }

    fn vtcp_arm(&mut self, conn: u32, kind: EntryKind, rel: SimDuration) {
        let quantum = self.vtcp.quantum_of(self.now, rel);
        let entry = self.vtcp.next_entry;
        self.vtcp.next_entry += 1;
        let Some(c) = self.vtcp.conns.get_mut(&conn) else {
            return;
        };
        let slot = match kind {
            EntryKind::Retransmit => &mut c.rto_id,
            EntryKind::DelayedAck => &mut c.delack_id,
            EntryKind::Keepalive => &mut c.keepalive_id,
        };
        if *slot != 0 {
            self.vtcp.wheel.cancel(*slot);
            self.vtcp.entries.remove(&*slot);
            self.vtcp.masked_ops += 1;
        }
        *slot = entry;
        self.vtcp.entries.insert(entry, (conn, kind));
        self.vtcp.wheel.schedule(entry, quantum);
        self.vtcp.masked_ops += 1;
    }

    fn vtcp_disarm(&mut self, conn: u32, kind: EntryKind) {
        let Some(c) = self.vtcp.conns.get_mut(&conn) else {
            return;
        };
        let slot = match kind {
            EntryKind::Retransmit => &mut c.rto_id,
            EntryKind::DelayedAck => &mut c.delack_id,
            EntryKind::Keepalive => &mut c.keepalive_id,
        };
        if *slot != 0 {
            self.vtcp.wheel.cancel(*slot);
            self.vtcp.entries.remove(&*slot);
            *slot = 0;
            self.vtcp.masked_ops += 1;
        }
    }

    /// Handshake complete: swap the SYN entry for a keepalive.
    pub fn vtcp_established(&mut self, conn: u32) {
        self.vtcp_disarm(conn, EntryKind::Retransmit);
        self.vtcp_arm(conn, EntryKind::Keepalive, SimDuration::from_secs(7200));
    }

    /// Data sent: arm the retransmit entry.
    pub fn vtcp_transmit(&mut self, conn: u32) {
        let rto = match self.vtcp.conns.get(&conn) {
            Some(c) => c.rto,
            None => return,
        };
        self.vtcp_arm(conn, EntryKind::Retransmit, rto);
    }

    /// ACK received (with optional RTT sample): disarm + adapt.
    pub fn vtcp_ack(&mut self, conn: u32, sample: Option<SimDuration>) {
        self.vtcp_disarm(conn, EntryKind::Retransmit);
        let Some(c) = self.vtcp.conns.get_mut(&conn) else {
            return;
        };
        if let Some(rtt) = sample {
            // Feed the kernel-wide RTT prior in every mode (workload
            // observation only — replay stays backend-invariant).
            self.rtt_prior.observe_success(rtt);
            c.rto = c.rtt.update(rtt, MIN_RTO, SimDuration::from_secs(120));
        }
    }

    /// Data received: arm the delayed-ACK entry (200 ms on Windows).
    pub fn vtcp_data_received(&mut self, conn: u32) {
        self.vtcp_arm(conn, EntryKind::DelayedAck, SimDuration::from_millis(200));
    }

    /// Connection closed: every entry leaves the wheel.
    pub fn vtcp_close(&mut self, conn: u32) {
        self.vtcp_disarm(conn, EntryKind::Retransmit);
        self.vtcp_disarm(conn, EntryKind::DelayedAck);
        self.vtcp_disarm(conn, EntryKind::Keepalive);
        self.vtcp.conns.remove(&conn);
    }

    /// Wheel operations that never touched the KTIMER ring.
    pub fn vtcp_masked_ops(&self) -> u64 {
        self.vtcp.masked_ops
    }

    /// Expiry path: the wheel tick fired — advance the wheel, process due
    /// entries, re-arm the tick.
    pub(crate) fn tcp_wheel_tick_fired(&mut self, handle: crate::ktimer::KtHandle, at: SimInstant) {
        let target = at.as_nanos() / WHEEL_QUANTUM.as_nanos();
        let mut due = Vec::new();
        let entries = &self.vtcp.entries;
        self.vtcp.wheel.advance_to(target, &mut |id, _| {
            if let Some(&(conn, kind)) = entries.get(&id) {
                due.push((id, conn, kind));
            }
        });
        for (id, conn, kind) in due {
            self.vtcp.entries.remove(&id);
            match kind {
                EntryKind::Retransmit => {
                    if let Some(c) = self.vtcp.conns.get_mut(&conn) {
                        c.rto_id = 0;
                        // The expiry waited the pre-backoff RTO; account it
                        // for the fixed-vs-adaptive latency figures.
                        telemetry::sim::add(telemetry::SimCounter::AdaptiveRtoExpirations, 1);
                        telemetry::sim::add(
                            telemetry::SimCounter::AdaptiveRtoWaitNs,
                            c.rto.as_nanos(),
                        );
                        c.rto = c.rto.mul_f64(2.0).min(SimDuration::from_secs(120));
                        let rto = c.rto;
                        self.vtcp_arm(conn, EntryKind::Retransmit, rto);
                        telemetry::sim::add(telemetry::SimCounter::NetRetransmits, 1);
                        self.notifications
                            .push(VistaNotify::VtcpRetransmit { conn });
                    }
                }
                EntryKind::DelayedAck => {
                    if let Some(c) = self.vtcp.conns.get_mut(&conn) {
                        c.delack_id = 0;
                    }
                }
                EntryKind::Keepalive => {
                    if let Some(c) = self.vtcp.conns.get_mut(&conn) {
                        c.keepalive_id = 0;
                        self.vtcp_arm(conn, EntryKind::Keepalive, SimDuration::from_secs(7200));
                    }
                }
            }
        }
        // Re-arm the driving tick.
        self.kt.ke_set_timer(&mut self.log, at, handle, WHEEL_TICK);
    }
}
