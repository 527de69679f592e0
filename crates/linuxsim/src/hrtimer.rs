//! The high-resolution timer base (Linux ≥ 2.6.16, `hrtimers`).
//!
//! Unlike the jiffy wheel, hrtimers are kept in a time-ordered tree with
//! nanosecond-resolution expiries driven from CPU counters. The kernel the
//! paper studied uses them for `nanosleep`, POSIX interval timers with
//! high-resolution clocks and the scheduler tick; our workloads exercise
//! them through `nanosleep`.

use std::collections::BTreeMap;

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, OriginId, Pid, Space, Tid, TimerAddr, TraceLog};

/// Handle to an hrtimer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HrHandle(pub u32);

/// One hrtimer's static data.
#[derive(Debug, Clone)]
struct HrSlot {
    addr: TimerAddr,
    origin: OriginId,
    pid: Pid,
    tid: Tid,
    space: Space,
}

/// A timer that fired from the high-resolution base.
#[derive(Debug, Clone, Copy)]
pub struct HrFired {
    /// The slot that fired.
    pub handle: HrHandle,
    /// The instant it was armed for.
    pub expires: SimInstant,
}

/// The red-black-tree-of-expiries base, modelled with a `BTreeMap`.
#[derive(Debug, Default)]
pub struct HrTimerBase {
    slots: Vec<HrSlot>,
    queue: BTreeMap<(SimInstant, u32), ()>,
    pending: FoldMap<u32, SimInstant>,
}

impl HrTimerBase {
    /// Creates an empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// `hrtimer_init`: allocates a slot.
    pub fn hrtimer_init(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        origin: &str,
        pid: Pid,
        tid: Tid,
        space: Space,
    ) -> HrHandle {
        let idx = self.slots.len() as u32;
        let addr = 0xC200_0000u64 + (idx as u64) * 0x60;
        let origin_id = log.intern(origin);
        self.slots.push(HrSlot {
            addr,
            origin: origin_id,
            pid,
            tid,
            space,
        });
        log.log(Event::new(now, EventKind::Init, addr, origin_id).with_task(pid, tid, space));
        HrHandle(idx)
    }

    /// `hrtimer_start`: arms (or re-arms) for `now + rel`.
    pub fn hrtimer_start(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: HrHandle,
        rel: SimDuration,
    ) -> SimInstant {
        let expires = now + rel;
        if let Some(old) = self.pending.insert(handle.0, expires) {
            self.queue.remove(&(old, handle.0));
        }
        self.queue.insert((expires, handle.0), ());
        let slot = &self.slots[handle.0 as usize];
        log.log(
            Event::new(now, EventKind::Set, slot.addr, slot.origin)
                .with_timeout(rel)
                .with_expires(expires)
                .with_task(slot.pid, slot.tid, slot.space),
        );
        expires
    }

    /// `hrtimer_cancel`.
    pub fn hrtimer_cancel(
        &mut self,
        log: &mut TraceLog,
        now: SimInstant,
        handle: HrHandle,
    ) -> bool {
        match self.pending.remove(&handle.0) {
            Some(expires) => {
                self.queue.remove(&(expires, handle.0));
                let slot = &self.slots[handle.0 as usize];
                log.log(
                    Event::new(now, EventKind::Cancel, slot.addr, slot.origin)
                        .with_task(slot.pid, slot.tid, slot.space),
                );
                true
            }
            None => false,
        }
    }

    /// Returns `true` if armed.
    pub fn is_pending(&self, handle: HrHandle) -> bool {
        self.pending.contains_key(&handle.0)
    }

    /// Earliest pending expiry.
    pub fn next_expiry(&self) -> Option<SimInstant> {
        self.queue.keys().next().map(|&(t, _)| t)
    }

    /// Fires everything due at or before `now`, logging expiries with a
    /// small fixed interrupt-path latency.
    pub fn run(&mut self, log: &mut TraceLog, now: SimInstant) -> Vec<HrFired> {
        let mut fired = Vec::new();
        while let Some((&(expires, idx), ())) = self.queue.iter().next() {
            if expires > now {
                break;
            }
            self.queue.remove(&(expires, idx));
            self.pending.remove(&idx);
            let slot = &self.slots[idx as usize];
            // hrtimer expiry runs in hard-interrupt context: ~5 µs latency.
            let delivered = expires + SimDuration::from_micros(5);
            log.log(
                Event::new(delivered, EventKind::Expire, slot.addr, slot.origin)
                    .with_expires(expires)
                    .with_task(slot.pid, slot.tid, slot.space),
            );
            fired.push(HrFired {
                handle: HrHandle(idx),
                expires,
            });
        }
        fired
    }

    /// Number of pending hrtimers.
    pub fn pending_count(&self) -> usize {
        self.pending.len()
    }

    /// Number of allocated hrtimer slots.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_micros(us)
    }

    #[test]
    fn fires_in_ns_resolution_order() {
        let mut base = HrTimerBase::new();
        let mut log = TraceLog::collecting();
        let a = base.hrtimer_init(&mut log, t(0), "test:a", 1, 1, Space::User);
        let b = base.hrtimer_init(&mut log, t(0), "test:b", 1, 1, Space::User);
        base.hrtimer_start(&mut log, t(0), a, SimDuration::from_micros(100));
        base.hrtimer_start(&mut log, t(0), b, SimDuration::from_micros(50));
        let fired = base.run(&mut log, t(100));
        assert_eq!(fired.len(), 2);
        assert_eq!(fired[0].handle, b);
        assert_eq!(fired[1].handle, a);
        assert_eq!(base.pending_count(), 0);
    }

    #[test]
    fn cancel_and_rearm() {
        let mut base = HrTimerBase::new();
        let mut log = TraceLog::collecting();
        let a = base.hrtimer_init(&mut log, t(0), "test:a", 1, 1, Space::User);
        base.hrtimer_start(&mut log, t(0), a, SimDuration::from_micros(100));
        assert!(base.hrtimer_cancel(&mut log, t(10), a));
        assert!(!base.hrtimer_cancel(&mut log, t(10), a));
        base.hrtimer_start(&mut log, t(20), a, SimDuration::from_micros(10));
        let fired = base.run(&mut log, t(40));
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].expires, t(30));
    }

    #[test]
    fn rearm_replaces_expiry() {
        let mut base = HrTimerBase::new();
        let mut log = TraceLog::collecting();
        let a = base.hrtimer_init(&mut log, t(0), "test:a", 1, 1, Space::User);
        base.hrtimer_start(&mut log, t(0), a, SimDuration::from_micros(100));
        base.hrtimer_start(&mut log, t(0), a, SimDuration::from_micros(500));
        assert!(base.run(&mut log, t(200)).is_empty());
        assert_eq!(base.run(&mut log, t(500)).len(), 1);
    }

    #[test]
    fn next_expiry_is_minimum() {
        let mut base = HrTimerBase::new();
        let mut log = TraceLog::collecting();
        let a = base.hrtimer_init(&mut log, t(0), "test:a", 1, 1, Space::User);
        let b = base.hrtimer_init(&mut log, t(0), "test:b", 1, 1, Space::User);
        base.hrtimer_start(&mut log, t(0), a, SimDuration::from_micros(70));
        base.hrtimer_start(&mut log, t(0), b, SimDuration::from_micros(30));
        assert_eq!(base.next_expiry(), Some(t(30)));
    }
}
