//! The simulated Linux kernel: tick loop, dispatch, and driver API.

use des::CpuMeter;
use simtime::{Jiffies, SimDuration, SimInstant, SimRng};
use trace::{EventFlags, Pid, Space, Tid, TraceLog, TraceSink};

use crate::hrtimer::HrTimerBase;
use crate::ids::ConnId;
use crate::subsys::arp::ArpTable;
use crate::subsys::blockio::BlockLayer;
use crate::subsys::journal::Journal;
use crate::subsys::mass::MassTable;
use crate::subsys::tcp::TcpTable;
use crate::syscalls::SyscallTimers;
use crate::timers::{Callback, Fired, HkKind, TimerBase, TimerHandle, UserKind};

/// CPU cost of one timer-interrupt tick.
const TICK_COST: SimDuration = SimDuration::from_micros(2);
/// CPU cost of one expired-timer callback.
const CALLBACK_COST: SimDuration = SimDuration::from_micros(2);
/// CPU cost of one timer set/cancel call.
const CALL_COST: SimDuration = SimDuration::from_nanos(300);
/// Maximum stale-now jitter on kernel-space sets (paper §3.1: 2 ms).
const SET_JITTER_MAX: SimDuration = SimDuration::from_millis(2);

/// Configuration of a simulated Linux kernel.
#[derive(Debug, Clone)]
pub struct LinuxConfig {
    /// RNG seed for all kernel-internal stochastic choices.
    pub seed: u64,
    /// Enable the 2.6.21 dynticks feature: no periodic tick while idle.
    pub dynticks: bool,
    /// Apply `round_jiffies` to every housekeeping periodic (the paper's
    /// §5.3 batching ablation; the real kernel used it in only 40 of 1464
    /// sets, which is the default here: only the writeback timer rounds).
    pub round_all_periodics: bool,
    /// Mark housekeeping periodics deferrable (ablation; default: only the
    /// clocksource watchdog, mirroring the flag's 3 uses in 2.6.23.9).
    pub defer_all_periodics: bool,
    /// Timer-queue structure for the standard timer base; `Native` is the
    /// kernel's hierarchical cascading wheel.
    pub backend: wheel::Backend,
    /// Whether workload timeouts (initial RTO, SYN retransmit, mass-table
    /// watchdog/RTO) keep their historical constants or follow the learned
    /// distributions of §5.1.
    pub policy: adaptive::AdaptivePolicy,
}

impl Default for LinuxConfig {
    fn default() -> Self {
        LinuxConfig {
            seed: 1,
            dynticks: false,
            round_all_periodics: false,
            defer_all_periodics: false,
            backend: wheel::Backend::Native,
            policy: adaptive::AdaptivePolicy::Off,
        }
    }
}

/// Notifications surfaced to the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Notify {
    /// A user-space timer (select/poll/alarm/...) expired.
    UserTimerExpired {
        /// The backing timer.
        handle: TimerHandle,
        /// What kind of wait it backed.
        kind: UserKind,
        /// Owning process.
        pid: Pid,
        /// Owning thread.
        tid: Tid,
    },
    /// A TCP retransmission fired; the driver should model the resent
    /// segment (and call `tcp_ack` when its ACK would arrive).
    TcpRetransmit {
        /// The connection that retransmitted.
        conn: ConnId,
    },
    /// A TCP connection attempt gave up (SYN retries exhausted).
    TcpConnectFailed {
        /// The failed connection.
        conn: ConnId,
    },
    /// A TCP keepalive probe was sent on an idle connection.
    TcpKeepaliveProbe {
        /// The probed connection.
        conn: ConnId,
    },
    /// A `nanosleep` completed (hrtimer base).
    NanosleepExpired {
        /// The backing hrtimer.
        handle: crate::hrtimer::HrHandle,
        /// Owning process.
        pid: Pid,
        /// Owning thread.
        tid: Tid,
    },
}

/// The simulated kernel.
pub struct LinuxKernel {
    pub(crate) now: SimInstant,
    pub(crate) base: TimerBase,
    pub(crate) hr: HrTimerBase,
    pub(crate) log: TraceLog,
    pub(crate) cpu: CpuMeter,
    pub(crate) rng: SimRng,
    pub(crate) cfg: LinuxConfig,
    pub(crate) idle: bool,
    pub(crate) notifications: Vec<Notify>,
    /// Deferrable timers held back while idle under dynticks.
    pub(crate) deferred: Vec<Fired>,
    pub(crate) tcp: TcpTable,
    pub(crate) mass: MassTable,
    pub(crate) arp: ArpTable,
    pub(crate) blk: BlockLayer,
    pub(crate) journal: Journal,
    /// Per-task syscall timer registry.
    pub(crate) syscall_timers: SyscallTimers,
    /// The console blank watchdog handle.
    console_blank: Option<TimerHandle>,
    /// Last processed jiffy (tick loop cursor).
    last_jiffy: Jiffies,
    /// Learned distribution of connection round-trip times; seeds the
    /// initial RTO / SYN-retransmit timeout when the policy is `Learned`.
    pub(crate) rtt_prior: adaptive::AdaptiveTimeout,
    /// Learned distribution of mass-table activity gaps; drives the
    /// per-connection keepalive watchdog when the policy is `Learned`.
    pub(crate) mass_gap: adaptive::AdaptiveTimeout,
}

impl std::fmt::Debug for LinuxKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LinuxKernel")
            .field("now", &self.now)
            .field("pending", &self.base.pending_count())
            .finish()
    }
}

impl LinuxKernel {
    /// Boots a kernel: allocates and arms every housekeeping timer.
    pub fn new(cfg: LinuxConfig, sink: Box<dyn TraceSink>) -> Self {
        let mut rng = SimRng::new(cfg.seed);
        let mut log = TraceLog::new(sink);
        log.register_process(0, "kernel");
        let mut kernel = LinuxKernel {
            now: SimInstant::BOOT,
            base: TimerBase::with_backend(cfg.backend),
            hr: HrTimerBase::new(),
            log,
            cpu: CpuMeter::new(),
            rng: rng.fork("kernel"),
            cfg,
            idle: false,
            notifications: Vec::new(),
            deferred: Vec::new(),
            tcp: TcpTable::new(),
            mass: MassTable::default(),
            arp: ArpTable::new(),
            blk: BlockLayer::new(),
            journal: Journal::new(),
            syscall_timers: SyscallTimers::default(),
            console_blank: None,
            last_jiffy: Jiffies::ZERO,
            rtt_prior: adaptive::AdaptiveTimeout::new(0.99, crate::subsys::tcp::TCP_TIMEOUT_INIT)
                .with_safety(2.0)
                .with_bounds(
                    crate::subsys::tcp::RTO_MIN,
                    crate::subsys::tcp::TCP_TIMEOUT_INIT,
                )
                .with_warmup(8),
            mass_gap: adaptive::AdaptiveTimeout::new(
                0.999,
                crate::subsys::mass::MASS_WATCHDOG_TIMEOUT,
            )
            .with_safety(2.0)
            .with_bounds(
                SimDuration::from_secs(1),
                crate::subsys::mass::MASS_WATCHDOG_TIMEOUT,
            )
            .with_warmup(64),
        };
        kernel.boot_housekeeping();
        kernel
            .arp
            .boot(&mut kernel.base, &mut kernel.log, kernel.now);
        kernel
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Current jiffy count.
    pub fn jiffies(&self) -> Jiffies {
        self.base.clock().jiffies_at(self.now)
    }

    /// Marks the system idle (enables dynticks sleeping and deferrable
    /// hold-back) or busy.
    pub fn set_idle(&mut self, idle: bool) {
        if self.idle && !idle {
            // Leaving idle: deliver any held-back deferrable expiries.
            self.flush_deferred();
        }
        self.idle = idle;
    }

    /// Drains pending notifications for the driver.
    pub fn take_notifications(&mut self) -> Vec<Notify> {
        std::mem::take(&mut self.notifications)
    }

    /// The trace log (string table, counters, process names).
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Mutable trace log access (process registration).
    pub fn log_mut(&mut self) -> &mut TraceLog {
        &mut self.log
    }

    /// Registers a user process name.
    pub fn register_process(&mut self, pid: Pid, name: &str) {
        self.log.register_process(pid, name);
    }

    /// CPU accounting.
    pub fn cpu(&self) -> &CpuMeter {
        &self.cpu
    }

    /// The standard timer base (for tests and analysis helpers).
    pub fn timer_base(&self) -> &TimerBase {
        &self.base
    }

    /// The next instant at which any timer (standard or high-resolution)
    /// can fire — drivers advance to this to react promptly.
    ///
    /// A wheel timer whose expiry jiffy has already passed fires at the
    /// *next processed tick*, so the result is clamped to strictly after
    /// `now` for wheel timers, and to `now` for hrtimers (which fire on
    /// the spot).
    pub fn next_wakeup(&self) -> Option<SimInstant> {
        let clock = self.base.clock();
        let tick_floor = clock.instant_of(clock.jiffies_at(self.now) + 1);
        let base_next = self.base.next_expiry(false).map(|t| t.max(tick_floor));
        let hr_next = self.hr.next_expiry().map(|t| t.max(self.now));
        match (base_next, hr_next) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Advances simulated time to `target`, processing every jiffy tick,
    /// expiring timers, and running their callbacks. A `target` already
    /// passed is a no-op.
    pub fn advance_to(&mut self, target: SimInstant) {
        // Callback delivery latency can push `now` slightly past a
        // previously requested target; treat an already-passed target as
        // a no-op rather than a programming error.
        let target = target.max(self.now);
        let entered_at = self.now;
        let clock = self.base.clock();
        let target_jiffy = clock.jiffies_at(target);
        while self.last_jiffy < target_jiffy {
            // With dynticks and an idle system, sleep straight to the next
            // non-deferrable expiry instead of ticking every jiffy.
            let next_jiffy = if self.cfg.dynticks && self.idle {
                match self.base.next_expiry(true) {
                    Some(exp) => {
                        let j = clock.jiffies_at(exp).max(self.last_jiffy + 1);
                        if j > target_jiffy {
                            // Nothing due before the target: sleep through.
                            self.last_jiffy = target_jiffy;
                            break;
                        }
                        j
                    }
                    None => {
                        self.last_jiffy = target_jiffy;
                        break;
                    }
                }
            } else {
                self.last_jiffy + 1
            };
            self.process_jiffy(next_jiffy);
            self.last_jiffy = next_jiffy;
        }
        if target > self.now {
            self.now = target;
        }
        self.run_hrtimers(self.now);
        telemetry::sim::add(
            telemetry::SimCounter::SimTimeAdvancedNs,
            self.now.as_nanos().saturating_sub(entered_at.as_nanos()),
        );
    }

    /// Processes one jiffy tick: charge the tick, fire due timers, run
    /// callbacks slightly later (bottom-half latency), dispatch.
    fn process_jiffy(&mut self, jiffy: Jiffies) {
        let tick_instant = self.base.clock().instant_of(jiffy);
        if tick_instant > self.now {
            self.now = tick_instant;
        }
        self.cpu.on_work(tick_instant, TICK_COST);
        let mut fired = self.base.run_timers(tick_instant);
        if fired.is_empty() && self.deferred.is_empty() {
            return;
        }
        // Under dynticks + idle, hold back deferrable timers so they do
        // not wake the CPU on their own; they run piggybacked on the next
        // real wakeup instead.
        if self.cfg.dynticks && self.idle {
            let (defer, run): (Vec<Fired>, Vec<Fired>) = fired
                .into_iter()
                .partition(|f| self.base.slot(f.handle).deferrable);
            self.deferred.extend(defer);
            fired = run;
            if fired.is_empty() {
                return;
            }
        }
        if !self.deferred.is_empty() {
            let mut held = std::mem::take(&mut self.deferred);
            held.extend(fired);
            fired = held;
        }
        // Bottom-half (softirq) delivery latency: base latency plus a per
        // callback serialisation cost. Busy systems occasionally see
        // multi-millisecond latencies; idle ones stay tight. This is what
        // produces the paper's >100 % points and the hyperbolic curve for
        // sub-10 ms timeouts in Figures 8–11.
        let base_latency = if self.idle {
            SimDuration::from_micros(10 + self.rng.range_u64(0, 140))
        } else if self.rng.chance(0.08) {
            SimDuration::from_micros(500 + self.rng.range_u64(0, 3_000))
        } else {
            SimDuration::from_micros(20 + self.rng.range_u64(0, 400))
        };
        let mut delivered_at = tick_instant + base_latency;
        for f in fired {
            self.cpu.on_work(delivered_at, CALLBACK_COST);
            self.base.log_expiry(&mut self.log, delivered_at, &f);
            self.now = delivered_at;
            self.dispatch(f, delivered_at);
            delivered_at += CALLBACK_COST;
        }
    }

    /// Delivers any held-back deferrable expiries (wakeup piggyback).
    fn flush_deferred(&mut self) {
        if self.deferred.is_empty() {
            return;
        }
        let at = self.now;
        let held = std::mem::take(&mut self.deferred);
        for f in held {
            self.cpu.on_work(at, CALLBACK_COST);
            self.base.log_expiry(&mut self.log, at, &f);
            self.dispatch(f, at);
        }
    }

    /// Runs the callback of a fired timer.
    fn dispatch(&mut self, fired: Fired, at: SimInstant) {
        match self.base.slot(fired.handle).callback {
            Callback::Housekeeping(kind) => self.housekeeping_expired(fired.handle, kind, at),
            Callback::TcpRto(conn) => self.tcp_rto_expired(conn, at),
            Callback::TcpDelack(conn) => self.tcp_delack_expired(conn, at),
            Callback::TcpKeepalive(conn) => self.tcp_keepalive_expired(conn, at),
            Callback::TcpSynRetry(conn) => self.tcp_syn_retry_expired(conn, at),
            Callback::ArpGc => self.arp_gc_expired(fired.handle, at),
            Callback::ArpPeriodic(table) => self.arp_periodic_expired(fired.handle, table, at),
            Callback::ArpNeighTimeout(neigh) => self.arp_neigh_expired(neigh, at),
            Callback::BlockUnplug => self.blk_unplug_expired(at),
            Callback::IdeTimeout(req) => self.ide_timeout_expired(req, at),
            Callback::JournalCommit => self.journal_commit_expired(at),
            Callback::ConsoleBlank => {
                // Screen blanks; the watchdog is not re-armed until there
                // is console activity again.
            }
            Callback::MassWatchdog(id) => self.mass_watchdog_expired(id, at),
            Callback::MassRto(id) => self.mass_rto_expired(id, at),
            Callback::User(kind) => {
                let slot = self.base.slot(fired.handle);
                self.notifications.push(Notify::UserTimerExpired {
                    handle: fired.handle,
                    kind,
                    pid: slot.pid,
                    tid: slot.tid,
                });
                if kind == UserKind::PosixTimer {
                    // `it_interval` auto-repeat happens in the kernel's
                    // signal-delivery path.
                    self.posix_interval_rearm(fired.handle, at);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Housekeeping periodics.
    // ------------------------------------------------------------------

    /// Allocates and arms the boot-time housekeeping timers.
    fn boot_housekeeping(&mut self) {
        use HkKind::*;
        let kinds: [(HkKind, &str); 8] = [
            (Workqueue1s, "kernel:workqueue_1s"),
            (Workqueue2s, "kernel:workqueue_2s"),
            (Writeback, "mm:writeback"),
            (ClocksourceWatchdog, "time:clocksource_watchdog"),
            (UsbHubPoll, "usb:hub_status_poll"),
            (PacketSched, "net:pkt_sched"),
            (E1000Watchdog, "e1000:watchdog"),
            (InitChildPoll, "init:child_poll"),
        ];
        for (kind, origin) in kinds {
            let h = self.base.init_timer(
                &mut self.log,
                self.now,
                origin,
                Callback::Housekeeping(kind),
                0,
                0,
                Space::Kernel,
            );
            if self.cfg.defer_all_periodics || matches!(kind, HkKind::ClocksourceWatchdog) {
                // The clocksource watchdog is one of the three deferrable
                // users in 2.6.23.9.
                self.base.set_deferrable(h);
            }
            // Stagger initial phases so periodics do not all align at boot.
            let phase = self
                .rng
                .duration_between(SimDuration::from_millis(4), Self::hk_period(kind));
            let flags = self.hk_flags(kind);
            let jitter = self.sample_set_jitter();
            self.base
                .mod_timer_in(&mut self.log, self.now, h, phase, jitter, flags);
        }
        // The console blank watchdog (10 minutes, deferred by activity).
        let h = self.base.init_timer(
            &mut self.log,
            self.now,
            "console:blank",
            Callback::ConsoleBlank,
            0,
            0,
            Space::Kernel,
        );
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            h,
            SimDuration::from_secs(600),
            jitter,
            EventFlags::default(),
        );
        self.console_blank = Some(h);
        self.journal.boot(&mut self.base, &mut self.log, self.now);
        self.blk.boot(&mut self.base, &mut self.log, self.now);
    }

    /// The period of a housekeeping timer (Table 3 values).
    pub(crate) fn hk_period(kind: HkKind) -> SimDuration {
        match kind {
            HkKind::Workqueue1s => SimDuration::from_secs(1),
            HkKind::Workqueue2s => SimDuration::from_secs(2),
            HkKind::Writeback => SimDuration::from_secs(5),
            HkKind::ClocksourceWatchdog => SimDuration::from_millis(500),
            HkKind::UsbHubPoll => SimDuration::from_millis(248),
            HkKind::PacketSched => SimDuration::from_secs(5),
            HkKind::E1000Watchdog => SimDuration::from_secs(2),
            HkKind::InitChildPoll => SimDuration::from_secs(5),
        }
    }

    /// Event flags for a housekeeping set.
    fn hk_flags(&self, _kind: HkKind) -> EventFlags {
        EventFlags {
            rounded: self.cfg.round_all_periodics,
            periodic_rearm: true,
            ..EventFlags::default()
        }
    }

    /// A housekeeping periodic fired: charge its work and re-arm with the
    /// same constant period — the canonical *periodic* pattern.
    fn housekeeping_expired(&mut self, handle: TimerHandle, kind: HkKind, at: SimInstant) {
        let flags = self.hk_flags(kind);
        let jitter = self.sample_set_jitter();
        self.cpu.on_work(at, CALL_COST);
        self.base.mod_timer_in(
            &mut self.log,
            at,
            handle,
            Self::hk_period(kind),
            jitter,
            flags,
        );
    }

    // ------------------------------------------------------------------
    // Shared helpers for subsystem modules.
    // ------------------------------------------------------------------

    /// Samples the stale-now jitter for a kernel-space set.
    ///
    /// The gap between kernel code computing `jiffies + delta` and
    /// `__mod_timer` logging it is usually sub-microsecond (the same code
    /// path); occasionally interrupts or preemption stretch it toward the
    /// paper's 2 ms bound (§3.1). The mixture below makes the observed
    /// jiffy value flip low only a few percent of the time.
    pub(crate) fn sample_set_jitter(&mut self) -> SimDuration {
        let u = self.rng.unit_f64();
        let ns = if u < 0.90 {
            // The common case: a few hundred nanoseconds of code path.
            self.rng.range_u64(100, 2_000)
        } else if u < 0.99 {
            // An interrupt in between.
            self.rng.range_u64(2_000, 300_000)
        } else {
            // Preempted: up to the experimental 2 ms bound.
            self.rng.range_u64(300_000, SET_JITTER_MAX.as_nanos())
        };
        SimDuration::from_nanos(ns)
    }

    /// Charges one timer API call to the CPU.
    pub(crate) fn charge_call(&mut self, at: SimInstant) {
        self.cpu.on_work(at, CALL_COST);
    }

    /// Resolves one timeout decision under the configured policy: the
    /// historical constant, unless the policy is `Learned` and the
    /// estimator has warmed up, in which case the learned value (clamped
    /// between the estimator floor and the constant) replaces it. Decided
    /// purely from workload-level samples, so the choice is identical
    /// whichever wheel the timer base runs.
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

    /// Console activity defers the blank watchdog (the *watchdog* pattern:
    /// endlessly re-set to the same relative value before it can expire).
    pub fn console_activity(&mut self) {
        if let Some(h) = self.console_blank {
            let jitter = self.sample_set_jitter();
            self.charge_call(self.now);
            self.base.mod_timer_in(
                &mut self.log,
                self.now,
                h,
                SimDuration::from_secs(600),
                jitter,
                EventFlags::default(),
            );
        }
    }
}
