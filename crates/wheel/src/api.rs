//! The common timer-queue interface and shared bookkeeping.

use simtime::fasthash::FoldMap;
use telemetry::{sim, SimCounter, SimGauge};

/// A discrete tick count.
///
/// The Linux simulation uses jiffies (4 ms at HZ = 250); the Vista
/// simulation uses clock-interrupt ticks. The wheel structures only care
/// that time is a monotonically advancing `u64`.
pub type Tick = u64;

/// An opaque timer identifier chosen by the caller.
///
/// Re-scheduling an id that is already pending *moves* the timer
/// (`mod_timer` semantics); cancelling removes it.
pub type TimerId = u64;

/// A multiplexing priority queue of timers over discrete ticks.
///
/// Semantics shared by all implementations:
///
/// * [`schedule`](TimerQueue::schedule) arms `id` for tick `expires`. If
///   `id` is already pending it is atomically re-armed for the new tick
///   (the kernel's `mod_timer`). Scheduling for a tick at or before the
///   current time fires on the next [`advance_to`](TimerQueue::advance_to),
///   never retroactively.
/// * [`cancel`](TimerQueue::cancel) disarms `id`, returning whether it was
///   pending (the kernel's `del_timer` return value).
/// * [`advance_to`](TimerQueue::advance_to) moves the queue's notion of
///   "now" forward, invoking `fire` for every timer whose expiry tick is
///   `<= now`, in (expiry, insertion) order.
///
/// # Firing order
///
/// Every implementation fires a timer at its *effective* tick — the armed
/// expiry, or the tick after the arming instant for already-due timers —
/// and, within one effective tick, in (armed expiry, insertion) order.
/// Because this order is part of the contract, the structures are *exactly*
/// interchangeable: swapping one for another cannot reorder a simulation's
/// trace (`wheel/tests/equivalence.rs` pins this without normalisation).
pub trait TimerQueue: std::fmt::Debug {
    /// Arms (or re-arms) timer `id` to fire at absolute tick `expires`.
    fn schedule(&mut self, id: TimerId, expires: Tick);

    /// Disarms timer `id`. Returns `true` if it was pending.
    fn cancel(&mut self, id: TimerId) -> bool;

    /// Returns `true` if timer `id` is currently pending.
    fn is_pending(&self, id: TimerId) -> bool;

    /// Advances to tick `now`, firing every timer due at or before it.
    ///
    /// `fire` receives the timer id and the tick it was armed for.
    fn advance_to(&mut self, now: Tick, fire: &mut dyn FnMut(TimerId, Tick));

    /// The earliest armed expiry tick among the pending timers `keep`
    /// accepts, if any. The dynticks idle path passes a filter that
    /// skips deferrable timers, so they cannot wake an idle CPU.
    fn next_expiry_where(&self, keep: &dyn Fn(TimerId) -> bool) -> Option<Tick>;

    /// The earliest pending expiry tick, if any (the kernel's
    /// `next_timer_interrupt`, used by dynticks to sleep past idle ticks).
    fn next_expiry(&self) -> Option<Tick> {
        self.next_expiry_where(&|_| true)
    }

    /// The armed expiry tick of timer `id`, if it is pending.
    fn expiry_of(&self, id: TimerId) -> Option<Tick>;

    /// The number of pending timers.
    fn len(&self) -> usize;

    /// Returns `true` if no timers are pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Active-set bookkeeping with generation counters for lazy deletion.
///
/// Each pending timer maps to its armed expiry and the generation it was
/// (re-)armed under; a structure entry carrying an older generation is
/// stale and is ignored at fire time. The [`SortedList`] reference keeps
/// its pending set here; the wheels use the slab-backed
/// [`NodeArena`](crate::arena::NodeArena), which bumps the same
/// sim-plane counters.
///
/// [`SortedList`]: crate::sortedlist::SortedList
#[derive(Debug, Clone, Default)]
pub struct ActiveSet {
    entries: FoldMap<TimerId, ActiveEntry>,
}

/// State of one pending timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveEntry {
    /// Absolute expiry tick.
    pub expires: Tick,
    /// Generation stamp; bumped on every (re-)schedule and cancel.
    pub generation: u64,
}

impl ActiveSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or re-registers) `id`, returning the new generation.
    ///
    /// The sim-plane schedule counter and pending-high-watermark gauge
    /// are plain counter bumps, so they consume no RNG draws.
    pub fn arm(&mut self, id: TimerId, expires: Tick, next_gen: &mut u64) -> u64 {
        *next_gen += 1;
        let generation = *next_gen;
        let old = self.entries.insert(
            id,
            ActiveEntry {
                expires,
                generation,
            },
        );
        // A re-arm of a live timer is a detach + enqueue (the kernel's
        // `detach_if_pending` inside `__mod_timer`), so it counts on both
        // sides. This keeps the conservation identity exact:
        // schedules == cancels + expirations + still-pending.
        if old.is_some() {
            sim::add(SimCounter::WheelCancels, 1);
        }
        sim::add(SimCounter::WheelSchedules, 1);
        sim::gauge_max(SimGauge::WheelPendingHigh, self.entries.len() as u64);
        generation
    }

    /// Removes `id`; returns `true` if it was pending.
    pub fn disarm(&mut self, id: TimerId) -> bool {
        let pending = self.entries.remove(&id).is_some();
        if pending {
            sim::add(SimCounter::WheelCancels, 1);
        }
        pending
    }

    /// Returns `true` if `id` is pending.
    pub fn is_pending(&self, id: TimerId) -> bool {
        self.entries.contains_key(&id)
    }

    /// Checks whether a slot entry `(id, generation)` is still live, and if
    /// so removes and returns its expiry tick (the timer is about to fire).
    pub fn take_if_live(&mut self, id: TimerId, generation: u64) -> Option<Tick> {
        match self.entries.get(&id) {
            Some(e) if e.generation == generation => {
                let expires = e.expires;
                self.entries.remove(&id);
                sim::add(SimCounter::WheelExpirations, 1);
                Some(expires)
            }
            _ => None,
        }
    }

    /// Returns the live entry for `id`, if pending.
    pub fn get(&self, id: TimerId) -> Option<ActiveEntry> {
        self.entries.get(&id).copied()
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The minimum armed expiry over the pending timers `keep` accepts: a
    /// linear scan of the whole set on every call.
    pub fn min_expiry_where(&self, keep: &dyn Fn(TimerId) -> bool) -> Option<Tick> {
        self.entries
            .iter()
            .filter(|&(&id, _)| keep(id))
            .map(|(_, e)| e.expires)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_disarm_lifecycle() {
        let mut set = ActiveSet::new();
        let mut gen_counter = 0;
        let g1 = set.arm(1, 100, &mut gen_counter);
        assert!(set.is_pending(1));
        assert_eq!(set.len(), 1);
        // Re-arming bumps the generation and keeps a single entry.
        let g2 = set.arm(1, 200, &mut gen_counter);
        assert_ne!(g1, g2);
        assert_eq!(set.len(), 1);
        // Stale generation is dead.
        assert_eq!(set.take_if_live(1, g1), None);
        assert!(set.is_pending(1));
        // Live generation fires and removes.
        assert_eq!(set.take_if_live(1, g2), Some(200));
        assert!(!set.is_pending(1));
        assert!(!set.disarm(1));
    }

    #[test]
    fn min_expiry_scans() {
        let mut set = ActiveSet::new();
        let mut gen_counter = 0;
        assert_eq!(set.min_expiry_where(&|_| true), None);
        set.arm(1, 50, &mut gen_counter);
        set.arm(2, 30, &mut gen_counter);
        set.arm(3, 90, &mut gen_counter);
        assert_eq!(set.min_expiry_where(&|_| true), Some(30));
        set.disarm(2);
        assert_eq!(set.min_expiry_where(&|_| true), Some(50));
    }
}
