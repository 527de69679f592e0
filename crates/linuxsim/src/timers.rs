//! The standard timer interface: timer slots, callbacks and the wheel base.
//!
//! Names intentionally mirror the kernel functions the paper instruments:
//! [`TimerBase::init_timer`], [`TimerBase::mod_timer`] (covering the
//! paper's `__mod_timer`), [`TimerBase::del_timer`] (covering
//! `del_timer`/`del_timer_sync`), and per-tick processing corresponding to
//! `__run_timers`.

use simtime::{Jiffies, JiffyClock, SimDuration, SimInstant, LINUX_HZ};
use trace::{Event, EventFlags, EventKind, Pid, Space, Tid, TimerAddr, TraceLog};
use wheel::{Backend, TimerQueue};

use crate::ids::{ConnId, MassId, NeighId, ReqId};

/// Handle to a timer slot (the identity of a `struct timer_list`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub u32);

/// Kernel housekeeping timers that re-arm themselves periodically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HkKind {
    /// Kernel workqueue timer, 1 s period (Table 3).
    Workqueue1s,
    /// Kernel workqueue, 2 s period (Table 3).
    Workqueue2s,
    /// Dirty memory page write-back, 5 s period (Table 3).
    Writeback,
    /// High-res timers clocksource watchdog, 0.5 s period (Table 3).
    ClocksourceWatchdog,
    /// USB host controller status poll, 0.248 s = 62 jiffies (Table 3).
    UsbHubPoll,
    /// Packet scheduler, 5 s period (Table 3).
    PacketSched,
    /// e1000 driver watchdog timer, 2 s period (Table 3).
    E1000Watchdog,
    /// init polling its children, 5 s period (Table 3).
    InitChildPoll,
}

/// The kind of user-space wait a timer backs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UserKind {
    /// `select` (with the kernel's countdown-on-return semantics).
    Select,
    /// `poll`.
    Poll,
    /// `alarm`.
    Alarm,
    /// POSIX `timer_settime`.
    PosixTimer,
    /// `nanosleep` (delivered via the hrtimer base).
    Nanosleep,
}

/// What a timer does when it fires — the callback function pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Callback {
    /// Self-re-arming housekeeping periodics.
    Housekeeping(HkKind),
    /// TCP retransmission timer (adaptive RTO).
    TcpRto(ConnId),
    /// TCP delayed-ACK timer (40 ms).
    TcpDelack(ConnId),
    /// TCP keepalive (7200 s).
    TcpKeepalive(ConnId),
    /// TCP SYN/SYN-ACK retransmit (3 s initial).
    TcpSynRetry(ConnId),
    /// ARP cache flush, 8 s periodic.
    ArpGc,
    /// ARP table periodic work (two tables: 2 s and 4 s).
    ArpPeriodic(u8),
    /// Per-neighbour 5 s timeout, cancelled by LAN reachability traffic.
    ArpNeighTimeout(NeighId),
    /// Block I/O scheduler unplug timer (1 jiffy).
    BlockUnplug,
    /// IDE command timeout (30 s watchdog per request).
    IdeTimeout(ReqId),
    /// Filesystem journal commit timer (~5 s, usually cancelled).
    JournalCommit,
    /// Console blank watchdog (10 min, deferred by console activity).
    ConsoleBlank,
    /// A user-space wait; surfaced to the workload driver on expiry.
    User(UserKind),
    /// Per-connection application watchdog in the mass-connection table
    /// (the scaled httperf/Apache workload; see `subsys::mass`).
    MassWatchdog(MassId),
    /// Per-connection TCP retransmit timer in the mass-connection table.
    MassRto(MassId),
}

/// One `struct timer_list`: statically allocated and reused, as is
/// idiomatic in the Linux kernel (Section 2.1).
#[derive(Debug, Clone)]
pub struct TimerSlot {
    /// Synthesised stable address of the struct.
    pub addr: TimerAddr,
    /// Interned provenance label.
    pub origin: trace::OriginId,
    /// The callback invoked on expiry.
    pub callback: Callback,
    /// Owning process (0 for the kernel).
    pub pid: Pid,
    /// Owning thread.
    pub tid: Tid,
    /// User or kernel provenance.
    pub space: Space,
    /// Linux 2.6.22 deferrable flag.
    pub deferrable: bool,
}

/// A timer that fired, as reported by per-tick processing.
#[derive(Debug, Clone, Copy)]
pub struct Fired {
    /// The slot that fired.
    pub handle: TimerHandle,
    /// The jiffy it was armed for.
    pub expires: Jiffies,
}

/// The standard (jiffy-resolution) timer base.
#[derive(Debug)]
pub struct TimerBase {
    clock: JiffyClock,
    wheel: Box<dyn TimerQueue>,
    slots: Vec<TimerSlot>,
}

impl TimerBase {
    /// Creates an empty base at HZ = 250 on the native (hierarchical
    /// cascading wheel) structure — what 2.6.23.9's `kernel/timer.c` ships.
    pub fn new() -> Self {
        Self::with_backend(Backend::Native)
    }

    /// Creates a base whose timer queue comes from `backend`; `Native`
    /// selects the kernel's hierarchical cascading wheel.
    pub fn with_backend(backend: Backend) -> Self {
        TimerBase {
            clock: JiffyClock::new(LINUX_HZ),
            wheel: backend.build(Backend::Hierarchical, 256),
            slots: Vec::new(),
        }
    }

    /// The jiffy clock.
    pub fn clock(&self) -> JiffyClock {
        self.clock
    }

    /// `init_timer`: allocates and initialises a timer slot.
    #[allow(clippy::too_many_arguments)]
    pub fn init_timer(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        origin: &str,
        callback: Callback,
        pid: Pid,
        tid: Tid,
        space: Space,
    ) -> TimerHandle {
        let idx = self.slots.len() as u32;
        // Synthesised stable kernel virtual address; `struct timer_list`
        // is 0x28 bytes on 32-bit, spaced here for readability.
        let addr = 0xC100_0000u64 + (idx as u64) * 0x40;
        let origin_id = log.intern(origin);
        self.slots.push(TimerSlot {
            addr,
            origin: origin_id,
            callback,
            pid,
            tid,
            space,
            deferrable: false,
        });
        log.log(Event::new(now, EventKind::Init, addr, origin_id).with_task(pid, tid, space));
        TimerHandle(idx)
    }

    /// Marks a timer deferrable (the 2.6.22 flag; used 3 times in the real
    /// kernel, and equally sparsely here).
    pub fn set_deferrable(&mut self, handle: TimerHandle) {
        self.slots[handle.0 as usize].deferrable = true;
    }

    /// Re-points a (recycled) slot's callback at a new target, mirroring
    /// slab reuse of embedded `struct timer_list` objects.
    pub fn retarget_callback(&mut self, handle: TimerHandle, callback: Callback) {
        self.slots[handle.0 as usize].callback = callback;
    }

    /// Read access to a slot.
    pub fn slot(&self, handle: TimerHandle) -> &TimerSlot {
        &self.slots[handle.0 as usize]
    }

    /// Number of allocated timer slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of currently pending timers.
    pub fn pending_count(&self) -> usize {
        self.wheel.len()
    }

    /// Returns `true` if the timer is armed.
    pub fn is_pending(&self, handle: TimerHandle) -> bool {
        self.wheel.is_pending(handle.0 as u64)
    }

    /// `mod_timer` with an absolute jiffy expiry.
    ///
    /// Logs a `Set` record carrying both the absolute expiry and the
    /// relative value as *observed* at the instrumentation point (which
    /// for kernel callers includes the stale-now jitter already baked into
    /// `expires` by [`TimerBase::mod_timer_in`]).
    pub fn mod_timer(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: TimerHandle,
        expires: Jiffies,
        flags: EventFlags,
    ) {
        // The instrumentation reads `expires` (an absolute jiffy count)
        // and subtracts the current jiffy counter, so kernel-space
        // observed timeouts are whole jiffies — the quantisation visible
        // in every Linux figure of the paper. Stale-now jitter can still
        // shift the result by a jiffy, which is what the classifier's
        // 2 ms tolerance absorbs.
        let observed_jiffies = expires.saturating_sub(self.clock.jiffies_at(now));
        let observed = self.clock.jiffies_to_duration(observed_jiffies.as_u64());
        self.log_set(log, now, handle, observed, expires, flags);
        self.wheel.schedule(handle.0 as u64, expires.as_u64());
    }

    /// Logs one `Set` record.
    fn log_set(
        &self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: TimerHandle,
        timeout: SimDuration,
        expires: Jiffies,
        flags: EventFlags,
    ) {
        let slot = &self.slots[handle.0 as usize];
        log.log(
            Event::new(now, EventKind::Set, slot.addr, slot.origin)
                .with_timeout(timeout)
                .with_expires(self.clock.instant_of(expires))
                .with_task(slot.pid, slot.tid, slot.space)
                .with_flags(flags),
        );
    }

    /// `mod_timer` with a relative timeout computed by kernel code.
    ///
    /// The kernel computes `jiffies + delta` some (stale) moment before
    /// `__mod_timer` runs; `jitter` (sampled by the caller, below the
    /// kernel's 2 ms bound) models that gap, shifting the absolute expiry
    /// *earlier* relative to the instrumentation timestamp, exactly the
    /// effect Section 3.1 compensates for with its 2 ms variance.
    pub fn mod_timer_in(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: TimerHandle,
        rel: SimDuration,
        jitter: SimDuration,
        flags: EventFlags,
    ) -> Jiffies {
        let computed_at = SimInstant::from_nanos(now.as_nanos().saturating_sub(jitter.as_nanos()));
        let base = self.clock.jiffies_at(computed_at);
        let delta = self.clock.duration_to_jiffies(rel);
        let mut expires = base + delta;
        if flags.rounded {
            expires = expires.round_to_second(self.clock.hz());
        }
        if self.slots[handle.0 as usize].space == Space::User {
            // User sleeps are guaranteed a *minimum* wait: the kernel adds
            // a guard jiffy on top of the rounded-up conversion, so a
            // 1-jiffy select sleeps 4-8 ms. This is what pushes the
            // paper's short-timeout expiries to 100-200 % of their value
            // (the hyperbolic curve of Figures 8-11).
            expires += 1;
            // User-space values are measured directly at the system call
            // (paper 3.1): log the requested relative value exactly.
            self.log_set(log, now, handle, rel, expires, flags);
            self.wheel.schedule(handle.0 as u64, expires.as_u64());
        } else {
            self.mod_timer(log, now, handle, expires, flags);
        }
        expires
    }

    /// `del_timer`: cancels a pending timer, logging only real
    /// deactivations (repeated deletes of an inactive timer are no-ops, a
    /// pattern the paper notes is common in the kernel).
    pub fn del_timer(&mut self, log: &mut TraceLog, now: SimInstant, handle: TimerHandle) -> bool {
        let was_pending = self.wheel.cancel(handle.0 as u64);
        if was_pending {
            let slot = &self.slots[handle.0 as usize];
            log.log(
                Event::new(now, EventKind::Cancel, slot.addr, slot.origin)
                    .with_task(slot.pid, slot.tid, slot.space),
            );
        }
        was_pending
    }

    /// Processes all jiffies up to the one containing `now`, returning the
    /// timers that fired in firing order (the body of `__run_timers`).
    pub fn run_timers(&mut self, now: SimInstant) -> Vec<Fired> {
        let target = self.clock.jiffies_at(now);
        let mut fired = Vec::new();
        self.wheel.advance_to(target.as_u64(), &mut |id, expires| {
            fired.push(Fired {
                handle: TimerHandle(id as u32),
                expires: Jiffies(expires),
            });
        });
        fired
    }

    /// Logs the expiry record for a fired timer at its delivery time.
    pub fn log_expiry(&self, log: &mut TraceLog, delivered_at: SimInstant, fired: &Fired) {
        let slot = &self.slots[fired.handle.0 as usize];
        log.log(
            Event::new(delivered_at, EventKind::Expire, slot.addr, slot.origin)
                .with_expires(self.clock.instant_of(fired.expires))
                .with_task(slot.pid, slot.tid, slot.space),
        );
    }

    /// Earliest pending expiry as an instant, optionally skipping
    /// deferrable timers (the dynticks idle path: `next_timer_interrupt`
    /// ignores deferrable timers so they cannot wake an idle CPU).
    ///
    /// The wheel is the one record of what is armed; it answers both
    /// cases with one scan of its node slab.
    pub fn next_expiry(&self, skip_deferrable: bool) -> Option<SimInstant> {
        let next = if skip_deferrable {
            self.wheel
                .next_expiry_where(&|id| !self.slots[id as usize].deferrable)
        } else {
            self.wheel.next_expiry()
        };
        next.map(|j| self.clock.instant_of(Jiffies(j)))
    }

    /// The armed expiry of a pending timer.
    pub fn expiry_of(&self, handle: TimerHandle) -> Option<Jiffies> {
        self.wheel.expiry_of(handle.0 as u64).map(Jiffies)
    }
}

impl Default for TimerBase {
    fn default() -> Self {
        Self::new()
    }
}
