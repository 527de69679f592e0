//! The simulated Vista kernel: clock interrupts, DPC dispatch, layering.

use des::CpuMeter;
use simtime::{SimDuration, SimInstant, SimRng, VISTA_TICK};
use trace::{Pid, Tid, TraceLog, TraceSink};

use crate::ktimer::{KTimerTable, KtAction, KtFired};
use crate::ntapi::NtTimers;
use crate::registry::RegistryLazyClose;
use crate::services::KernelLoad;
use crate::tcpip::VistaTcp;
use crate::threadpool::Threadpools;
use crate::waits::WaitTable;
use crate::win32::Win32Timers;
use crate::winsock::AfdSelects;

/// Per-interrupt CPU cost.
const INTERRUPT_COST: SimDuration = SimDuration::from_micros(3);
/// Per-DPC CPU cost.
const DPC_COST: SimDuration = SimDuration::from_micros(4);
/// Per timer set/cancel CPU cost.
const CALL_COST: SimDuration = SimDuration::from_nanos(400);

/// Configuration of a simulated Vista kernel.
#[derive(Debug, Clone)]
pub struct VistaConfig {
    /// RNG seed.
    pub seed: u64,
    /// Kernel background timer population intensity (sets/second order of
    /// magnitude; see [`KernelLoad`]).
    pub kernel_load: KernelLoadLevel,
    /// Timer-queue structure for the KTIMER ring and the TCP wheel;
    /// `Native` keeps both on their historical hashed rings.
    pub backend: wheel::Backend,
    /// Whether TCP wheel timeouts keep their historical constants or
    /// follow the learned distributions of §5.1.
    pub policy: adaptive::AdaptivePolicy,
}

/// How busy the kernel's own (driver/subsystem) timer population is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelLoadLevel {
    /// A controlled idle system (Table 2 scale, ~100 kernel sets/s).
    Idle,
    /// A lived-in desktop (Figure 1 scale, ~1000 kernel sets/s).
    Desktop,
}

impl Default for VistaConfig {
    fn default() -> Self {
        VistaConfig {
            seed: 1,
            kernel_load: KernelLoadLevel::Idle,
            backend: wheel::Backend::Native,
            policy: adaptive::AdaptivePolicy::Off,
        }
    }
}

/// Events surfaced to the workload driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VistaNotify {
    /// A `WaitForSingleObject`/`Sleep` timeout elapsed.
    WaitTimedOut {
        /// The unblocked process.
        pid: Pid,
        /// The unblocked thread.
        tid: Tid,
    },
    /// A Win32 `WM_TIMER` message was posted.
    WmTimer {
        /// Owning process.
        pid: Pid,
        /// Timer id passed to `SetTimer`.
        id: u32,
    },
    /// A threadpool timer callback ran.
    TpCallback {
        /// Owning process.
        pid: Pid,
        /// Threadpool timer id.
        id: u32,
    },
    /// A Winsock `select` timed out.
    SelectTimedOut {
        /// Waiting process.
        pid: Pid,
        /// Waiting thread.
        tid: Tid,
    },
    /// An NT timer APC was delivered.
    NtTimerExpired {
        /// Owning process.
        pid: Pid,
        /// NT handle slot.
        handle: u32,
    },
    /// A wheel-managed TCP connection retransmitted.
    VtcpRetransmit {
        /// The connection id.
        conn: u32,
    },
}

/// The simulated Vista kernel.
pub struct VistaKernel {
    pub(crate) now: SimInstant,
    pub(crate) kt: KTimerTable,
    pub(crate) log: TraceLog,
    pub(crate) cpu: CpuMeter,
    pub(crate) rng: SimRng,
    pub(crate) cfg: VistaConfig,
    pub(crate) notifications: Vec<VistaNotify>,
    pub(crate) waits: WaitTable,
    pub(crate) pools: Threadpools,
    pub(crate) win32: Win32Timers,
    pub(crate) afd: AfdSelects,
    pub(crate) nt: NtTimers,
    pub(crate) vtcp: VistaTcp,
    pub(crate) registry: RegistryLazyClose,
    pub(crate) kernel_load: KernelLoad,
    /// Current clock-interrupt period (changed by
    /// [`VistaKernel::set_timer_resolution`]).
    resolution: SimDuration,
    /// The next clock-interrupt instant.
    next_interrupt: SimInstant,
    /// Learned distribution of connection round-trip times; seeds the
    /// initial RTO when the policy is `Learned`.
    pub(crate) rtt_prior: adaptive::AdaptiveTimeout,
}

impl std::fmt::Debug for VistaKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VistaKernel")
            .field("now", &self.now)
            .field("pending", &self.kt.pending_count())
            .field("resolution", &self.resolution)
            .finish()
    }
}

impl VistaKernel {
    /// Boots a kernel with its background timer population.
    pub fn new(cfg: VistaConfig, sink: Box<dyn TraceSink>) -> Self {
        let mut rng = SimRng::new(cfg.seed ^ 0x5157_0000);
        let mut log = TraceLog::new(sink);
        log.register_process(0, "System");
        log.register_process(4, "Idle");
        let backend = cfg.backend;
        let mut kernel = VistaKernel {
            now: SimInstant::BOOT,
            kt: KTimerTable::with_backend(backend),
            log,
            cpu: CpuMeter::new(),
            rng: rng.fork("vista"),
            cfg,
            notifications: Vec::new(),
            waits: WaitTable::default(),
            pools: Threadpools::default(),
            win32: Win32Timers::default(),
            afd: AfdSelects::default(),
            nt: NtTimers::default(),
            vtcp: VistaTcp::with_backend(backend),
            registry: RegistryLazyClose::default(),
            kernel_load: KernelLoad::default(),
            resolution: VISTA_TICK,
            next_interrupt: SimInstant::BOOT + VISTA_TICK,
            rtt_prior: adaptive::AdaptiveTimeout::new(0.99, crate::tcpip::INITIAL_RTO)
                .with_safety(2.0)
                .with_bounds(crate::tcpip::MIN_RTO, crate::tcpip::INITIAL_RTO)
                .with_warmup(8),
        };
        kernel.boot_kernel_load();
        kernel
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// The current clock-interrupt period.
    pub fn resolution(&self) -> SimDuration {
        self.resolution
    }

    /// Raises (or restores) the clock-interrupt rate, like
    /// `timeBeginPeriod`: multimedia applications request 1 ms.
    pub fn set_timer_resolution(&mut self, period: SimDuration) {
        let period = period.max(SimDuration::from_millis(1)).min(VISTA_TICK);
        self.resolution = period;
        self.next_interrupt = self.now + period;
    }

    /// Drains driver notifications.
    pub fn take_notifications(&mut self) -> Vec<VistaNotify> {
        std::mem::take(&mut self.notifications)
    }

    /// The trace log.
    pub fn log(&self) -> &TraceLog {
        &self.log
    }

    /// Mutable trace log access.
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

    /// The KTIMER table (tests, analysis).
    pub fn ktimers(&self) -> &KTimerTable {
        &self.kt
    }

    /// The instant of the clock interrupt that will deliver the earliest
    /// pending timer, if any — drivers advance to this to react promptly.
    pub fn next_wakeup(&self) -> Option<SimInstant> {
        let due = self.kt.next_due()?;
        if due <= self.next_interrupt {
            return Some(self.next_interrupt);
        }
        let gap = due.duration_since(self.next_interrupt).as_nanos();
        let steps = gap.div_ceil(self.resolution.as_nanos());
        Some(self.next_interrupt + self.resolution * steps)
    }

    /// Charges one API call.
    pub(crate) fn charge_call(&mut self, at: SimInstant) {
        self.cpu.on_work(at, CALL_COST);
    }

    /// Advances to `target`, processing clock interrupts as they occur. A
    /// `target` already passed is a no-op.
    pub fn advance_to(&mut self, target: SimInstant) {
        // Callback delivery latency can push `now` slightly past a
        // previously requested target; treat an already-passed target as
        // a no-op rather than a programming error.
        let target = target.max(self.now);
        let entered_at = self.now;
        while self.next_interrupt <= target {
            let at = self.next_interrupt;
            self.now = at;
            self.cpu.on_work(at, INTERRUPT_COST);
            let fired = self.kt.process_ring(at);
            if !fired.is_empty() {
                self.run_dpcs(at, fired);
            }
            self.next_interrupt = at + self.resolution;
        }
        if target > self.now {
            self.now = target;
        }
        telemetry::sim::add(
            telemetry::SimCounter::SimTimeAdvancedNs,
            self.now.as_nanos().saturating_sub(entered_at.as_nanos()),
        );
    }

    /// Runs expiry DPCs for fired timers, in queue order, with per-DPC
    /// serialisation latency.
    fn run_dpcs(&mut self, interrupt_at: SimInstant, fired: Vec<KtFired>) {
        // DPC queue drain starts after the interrupt's own work.
        let mut delivered = interrupt_at + SimDuration::from_micros(2 + self.rng.range_u64(0, 25));
        for f in fired {
            self.cpu.on_work(delivered, DPC_COST);
            // Log the expiry at its delivery time (what ETW records when
            // the expiration DPC fires the timeout).
            let t = f.timer;
            self.log.log(
                trace::Event::new(delivered, expiry_kind(t.action), t.addr, t.origin)
                    .with_expires(t.due)
                    .with_task(t.pid, t.tid, t.space),
            );
            self.now = delivered;
            self.dispatch(f, delivered);
            delivered += DPC_COST;
        }
    }

    /// Routes a fired KTIMER to its layer.
    fn dispatch(&mut self, fired: KtFired, at: SimInstant) {
        match fired.timer.action {
            KtAction::WaitTimeout { pid, tid } => self.wait_timeout_fired(pid, tid, at),
            KtAction::ThreadpoolRing { pid } => self.threadpool_ring_fired(pid, at),
            KtAction::WmTimer { pid, id } => self.wm_timer_fired(pid, id, at),
            KtAction::AfdSelect { pid, tid } => self.afd_select_fired(fired.handle, pid, tid, at),
            KtAction::NtApc { pid, handle } => self.nt_apc_fired(pid, handle, at),
            KtAction::TcpWheelTick => self.tcp_wheel_tick_fired(fired.handle, at),
            KtAction::RegistryLazyClose { pid } => self.registry_lazy_close_fired(pid, at),
            KtAction::KernelDpc => self.kernel_load_fired(fired.handle, at),
        }
    }
}

/// The event kind an expiry logs: waits record "timed out", everything
/// else records a plain expiry.
fn expiry_kind(action: KtAction) -> trace::EventKind {
    match action {
        KtAction::WaitTimeout { .. } | KtAction::AfdSelect { .. } => trace::EventKind::WaitTimedOut,
        _ => trace::EventKind::Expire,
    }
}
