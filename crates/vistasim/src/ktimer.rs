//! The NT kernel's base KTIMER objects and the clock-interrupt timer ring.
//!
//! Kernel timers can be set for absolute times or relative delays via
//! `KeSetTimer`, cancelled with `KeCancelTimer`, and are added to a timer
//! ring processed on clock interrupt expiry (§2.2). Due times carry 100 ns
//! resolution — there is no Linux-style quantisation of the *requested*
//! value, only delivery rounding to the next clock interrupt, which the
//! paper sees as sub-millisecond timers "delivered at essentially random
//! times".
//!
//! Unlike Linux, most KTIMER-bearing structures are allocated on the fly
//! and not reused, so timer addresses recur only coincidentally (via
//! allocator recycling) — this is the property that forces the Vista
//! analysis to cluster by call-site instead of address (§3.3).

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, OriginId, Pid, Space, Tid, TimerAddr, TraceLog};
use wheel::{Backend, TimerQueue};

/// Resolution quantum of the ring placement (the wheel's tick).
pub const RING_QUANTUM: SimDuration = SimDuration::from_millis(1);

/// Handle to a live KTIMER object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KtHandle(pub u64);

/// What a KTIMER does on expiry, dispatched by the Vista kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KtAction {
    /// Unblock a waiting thread (wait timed out).
    WaitTimeout {
        /// Blocked process.
        pid: Pid,
        /// Blocked thread.
        tid: Tid,
    },
    /// Run the NTDLL threadpool ring of process `pid`.
    ThreadpoolRing {
        /// Owning process.
        pid: Pid,
    },
    /// Post a `WM_TIMER` for a Win32 `SetTimer` (auto-repeating).
    WmTimer {
        /// Owning process.
        pid: Pid,
        /// The Win32 timer id.
        id: u32,
    },
    /// Complete a Winsock `select` ioctl (fresh per-call timer).
    AfdSelect {
        /// Waiting process.
        pid: Pid,
        /// Waiting thread.
        tid: Tid,
    },
    /// Deliver an APC for an NT timer handle.
    NtApc {
        /// Owning process.
        pid: Pid,
        /// The NT handle slot.
        handle: u32,
    },
    /// The per-CPU TCP timing wheel's driving tick.
    TcpWheelTick,
    /// Lazy close of a process's cached registry handles (the *deferred*
    /// pattern of 4.1.1).
    RegistryLazyClose {
        /// Owning process.
        pid: Pid,
    },
    /// A kernel-internal (driver/subsystem) DPC; handled silently.
    KernelDpc,
}

/// One live KTIMER.
#[derive(Debug, Clone, Copy)]
pub struct KTimer {
    /// Pool address of the containing structure.
    pub addr: TimerAddr,
    /// Interned provenance.
    pub origin: OriginId,
    /// Expiry action.
    pub action: KtAction,
    /// Logging identity.
    pub pid: Pid,
    /// Logging identity.
    pub tid: Tid,
    /// User or kernel attribution (by call stack in the real traces).
    pub space: Space,
    /// The absolute due time requested (100 ns resolution, un-quantised).
    pub due: SimInstant,
    /// The relative delay requested, when the caller passed one.
    pub rel: Option<SimDuration>,
}

/// A fired KTIMER, as surfaced by ring processing.
#[derive(Debug, Clone, Copy)]
pub struct KtFired {
    /// The handle that fired.
    pub handle: KtHandle,
    /// The timer's state at expiry.
    pub timer: KTimer,
}

/// The KTIMER table plus the hashed timer ring.
#[derive(Debug)]
pub struct KTimerTable {
    timers: FoldMap<u64, KTimer>,
    ring: Box<dyn TimerQueue>,
    next_handle: u64,
    /// Pool-allocator address recycling: freed addresses are reused LIFO,
    /// mimicking lookaside lists.
    free_addrs: Vec<TimerAddr>,
    next_addr: TimerAddr,
}

impl Default for KTimerTable {
    fn default() -> Self {
        Self::new()
    }
}

impl KTimerTable {
    /// Creates an empty table on the native (256-slot hashed ring)
    /// structure — the NT kernel's timer ring.
    pub fn new() -> Self {
        Self::with_backend(Backend::Native)
    }

    /// Creates a table whose ring comes from `backend`; `Native` selects
    /// the NT kernel's 256-slot hashed ring.
    pub fn with_backend(backend: Backend) -> Self {
        KTimerTable {
            timers: FoldMap::default(),
            ring: backend.build(Backend::Hashed, 256),
            next_handle: 1,
            free_addrs: Vec::new(),
            next_addr: 0x8a00_0000_0000,
        }
    }

    /// Allocates a fresh KTIMER object (dynamic allocation — the common
    /// Vista case).
    #[allow(clippy::too_many_arguments)]
    pub fn allocate(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        origin: &str,
        action: KtAction,
        pid: Pid,
        tid: Tid,
        space: Space,
    ) -> KtHandle {
        let addr = self.free_addrs.pop().unwrap_or_else(|| {
            let a = self.next_addr;
            self.next_addr += 0x98;
            a
        });
        let origin_id = log.intern(origin);
        let handle = KtHandle(self.next_handle);
        self.next_handle += 1;
        self.timers.insert(
            handle.0,
            KTimer {
                addr,
                origin: origin_id,
                action,
                pid,
                tid,
                space,
                due: now,
                rel: None,
            },
        );
        handle
    }

    /// Frees a KTIMER object, recycling its address.
    pub fn free(&mut self, handle: KtHandle) {
        if let Some(t) = self.timers.remove(&handle.0) {
            self.ring.cancel(handle.0);
            self.free_addrs.push(t.addr);
        }
    }

    /// `KeSetTimer`: arms the timer for `now + rel` and logs the set.
    pub fn ke_set_timer(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: KtHandle,
        rel: SimDuration,
    ) {
        let Some(t) = self.timers.get_mut(&handle.0) else {
            return;
        };
        let due = now + rel;
        t.due = due;
        t.rel = Some(rel);
        log.log(
            Event::new(now, EventKind::Set, t.addr, t.origin)
                .with_timeout(rel)
                .with_expires(due)
                .with_task(t.pid, t.tid, t.space),
        );
        // Ring placement at millisecond quanta; a due time inside the
        // current quantum still waits for the next interrupt.
        let tick = due.as_nanos().div_ceil(RING_QUANTUM.as_nanos());
        self.ring.schedule(handle.0, tick);
    }

    /// `KeCancelTimer`: disarms; returns whether it was pending.
    ///
    /// `kind` distinguishes an explicit cancel from a satisfied wait (the
    /// instrumentation's thread-unblock event with `satisfied = true`).
    pub fn ke_cancel_timer(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: KtHandle,
        kind: EventKind,
    ) -> bool {
        let was_pending = self.ring.cancel(handle.0);
        if was_pending {
            if let Some(t) = self.timers.get(&handle.0) {
                log.log(Event::new(now, kind, t.addr, t.origin).with_task(t.pid, t.tid, t.space));
            }
        }
        was_pending
    }

    /// Returns `true` if the timer is armed.
    pub fn is_pending(&self, handle: KtHandle) -> bool {
        self.ring.is_pending(handle.0)
    }

    /// The timer's current state.
    pub fn get(&self, handle: KtHandle) -> Option<&KTimer> {
        self.timers.get(&handle.0)
    }

    /// Earliest pending due quantum, as an instant.
    pub fn next_due(&self) -> Option<SimInstant> {
        self.ring
            .next_expiry()
            .map(|t| SimInstant::from_nanos(t * RING_QUANTUM.as_nanos()))
    }

    /// Processes the ring at a clock interrupt: fires everything due.
    pub fn process_ring(&mut self, now: SimInstant) -> Vec<KtFired> {
        let tick = now.as_nanos() / RING_QUANTUM.as_nanos();
        let mut fired = Vec::new();
        let timers = &self.timers;
        self.ring.advance_to(tick, &mut |id, _| {
            if let Some(&timer) = timers.get(&id) {
                fired.push(KtFired {
                    handle: KtHandle(id),
                    timer,
                });
            }
        });
        fired
    }

    /// Number of live KTIMER objects.
    pub fn live_count(&self) -> usize {
        self.timers.len()
    }

    /// Number of armed timers.
    pub fn pending_count(&self) -> usize {
        self.ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_millis(ms)
    }

    #[test]
    fn set_fire_lifecycle() {
        let mut table = KTimerTable::new();
        let mut log = TraceLog::collecting();
        let h = table.allocate(
            &mut log,
            t(0),
            "test:sleep",
            KtAction::WaitTimeout { pid: 1, tid: 1 },
            1,
            1,
            Space::User,
        );
        table.ke_set_timer(&mut log, t(0), h, SimDuration::from_millis(20));
        assert!(table.is_pending(h));
        assert!(table.process_ring(t(19)).is_empty());
        let fired = table.process_ring(t(20));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].handle, h);
        assert!(!table.is_pending(h));
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut table = KTimerTable::new();
        let mut log = TraceLog::collecting();
        let h = table.allocate(
            &mut log,
            t(0),
            "test",
            KtAction::KernelDpc,
            0,
            0,
            Space::Kernel,
        );
        table.ke_set_timer(&mut log, t(0), h, SimDuration::from_millis(5));
        assert!(table.ke_cancel_timer(&mut log, t(1), h, EventKind::Cancel));
        assert!(!table.ke_cancel_timer(&mut log, t(1), h, EventKind::Cancel));
        assert!(table.process_ring(t(100)).is_empty());
    }

    #[test]
    fn addresses_recycle_lifo() {
        let mut table = KTimerTable::new();
        let mut log = TraceLog::collecting();
        let h1 = table.allocate(
            &mut log,
            t(0),
            "a",
            KtAction::KernelDpc,
            0,
            0,
            Space::Kernel,
        );
        let addr1 = table.get(h1).unwrap().addr;
        table.free(h1);
        let h2 = table.allocate(
            &mut log,
            t(0),
            "b",
            KtAction::KernelDpc,
            0,
            0,
            Space::Kernel,
        );
        // Fresh handle, recycled address — the coincidental identity reuse
        // the paper describes.
        assert_ne!(h1, h2);
        assert_eq!(table.get(h2).unwrap().addr, addr1);
    }

    #[test]
    fn sub_quantum_timer_waits_for_interrupt() {
        let mut table = KTimerTable::new();
        let mut log = TraceLog::collecting();
        let h = table.allocate(
            &mut log,
            t(0),
            "a",
            KtAction::KernelDpc,
            0,
            0,
            Space::Kernel,
        );
        table.ke_set_timer(&mut log, t(0), h, SimDuration::from_micros(300));
        // Due at 0.3 ms: not fired before the 1 ms quantum boundary.
        assert!(table
            .process_ring(SimInstant::BOOT + SimDuration::from_micros(900))
            .is_empty());
        assert_eq!(table.process_ring(t(1)).len(), 1);
    }

    #[test]
    fn requested_values_are_not_quantised() {
        let mut table = KTimerTable::new();
        let mut log = TraceLog::collecting();
        let h = table.allocate(&mut log, t(0), "a", KtAction::KernelDpc, 1, 1, Space::User);
        let odd = SimDuration::from_micros(3_141);
        table.ke_set_timer(&mut log, t(0), h, odd);
        let events = log.take_collected_events().unwrap();
        let set = events.iter().find(|e| e.kind == EventKind::Set).unwrap();
        // The *logged request* keeps full resolution (no jiffy rounding).
        assert_eq!(set.timeout, Some(odd));
    }
}
