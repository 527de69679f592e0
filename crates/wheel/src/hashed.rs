//! A single-level hashed timing wheel (Varghese & Lauck, scheme 6).
//!
//! Vista's TCP/IP stack was re-architected around per-CPU timing wheels of
//! this kind, and the NT kernel's timer ring is the same idea: a fixed
//! number of slots indexed by `expiry % N`, each holding an unsorted list
//! of timers. A timer whose expiry is more than one revolution away simply
//! stays in its slot across revolutions; each visit checks whether the
//! entry is due yet.
//!
//! Set and cancel are O(1). Tick processing visits one slot and touches
//! only the timers hashed there; entries that are not yet due are retained,
//! so pathological workloads (many long timers in one slot) degrade
//! gracefully rather than catastrophically.

use telemetry::{sim, SimCounter};

use crate::api::{Tick, TimerId, TimerQueue};
use crate::arena::{NodeArena, NodeHandle};

/// A hashed timing wheel with a fixed power-of-two slot count.
///
/// Slot entries are arena [`NodeHandle`]s: the per-revolution revisit
/// check is an indexed slab read, revisited entries are retained by
/// batch-compacting the slot in place (one counter bump per slot visit,
/// not per entry), and the reused due buffer makes tick processing
/// allocation-free in steady state.
#[derive(Debug)]
pub struct HashedWheel {
    slots: Vec<Vec<NodeHandle>>,
    mask: u64,
    arena: NodeArena,
    gen_counter: u64,
    current: Tick,
    /// Entries revisited but not yet due (for benchmarks).
    revisits: u64,
    /// Reused due-set buffer for tick processing.
    due_scratch: Vec<(Tick, u64, NodeHandle)>,
}

impl HashedWheel {
    /// Creates a wheel with `slot_count` slots.
    ///
    /// # Panics
    ///
    /// Panics if `slot_count` is zero or not a power of two.
    pub fn new(slot_count: usize) -> Self {
        assert!(
            slot_count > 0 && slot_count.is_power_of_two(),
            "slot count must be a power of two, got {slot_count}"
        );
        HashedWheel {
            slots: vec![Vec::new(); slot_count],
            mask: (slot_count - 1) as u64,
            arena: NodeArena::new(),
            gen_counter: 0,
            current: 0,
            revisits: 0,
            due_scratch: Vec::new(),
        }
    }

    /// Number of not-yet-due entries revisited during slot processing.
    pub fn revisits(&self) -> u64 {
        self.revisits
    }

    fn process_tick(&mut self, tick: Tick, fire: &mut dyn FnMut(TimerId, Tick)) {
        self.current = tick;
        let index = (tick & self.mask) as usize;
        // Batch-drain the slot in place: not-yet-due survivors compact to
        // the front (preserving FIFO order ahead of entries inserted by
        // firing callbacks below), stale entries drop, and the due set
        // moves to the reused scratch buffer. One pass, no allocation, and
        // the revisit accounting is one bump for the whole slot rather
        // than one per retained entry.
        let mut due = std::mem::take(&mut self.due_scratch);
        let arena = &self.arena;
        self.slots[index].retain(|&slot| match arena.expires_if_live(slot) {
            Some(expires) if expires <= tick => {
                due.push((expires, slot.generation, slot));
                false
            }
            // Not due for another revolution; keep it.
            Some(_) => true,
            // Stale (cancelled or moved): drop silently.
            None => false,
        });
        let retained = self.slots[index].len() as u64;
        if retained > 0 {
            self.revisits += retained;
            sim::add(SimCounter::WheelCascades, retained);
        }
        // Slot order is hash-bucket insertion order, which interleaves
        // multi-revolution survivors with freshly hashed entries; sort the
        // due set into the contract's (expiry, insertion) order before
        // firing (the generation stamp is the insertion sequence).
        due.sort_unstable_by_key(|&(expires, generation, _)| (expires, generation));
        for &(_, _, slot) in &due {
            let (id, expires) = self.arena.take_if_live(slot).expect("entry verified live");
            fire(id, expires);
        }
        due.clear();
        self.due_scratch = due;
    }
}

impl TimerQueue for HashedWheel {
    fn schedule(&mut self, id: TimerId, expires: Tick) {
        let mut gen_counter = self.gen_counter;
        let slot = self.arena.arm(id, expires, &mut gen_counter);
        self.gen_counter = gen_counter;
        // Already-due timers fire on the next processed tick.
        let slot_tick = expires.max(self.current + 1);
        let index = (slot_tick & self.mask) as usize;
        self.slots[index].push(slot);
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        self.arena.disarm(id)
    }

    fn is_pending(&self, id: TimerId) -> bool {
        self.arena.is_pending(id)
    }

    fn advance_to(&mut self, now: Tick, fire: &mut dyn FnMut(TimerId, Tick)) {
        while self.current < now {
            let next = self.current + 1;
            self.process_tick(next, fire);
        }
    }

    fn now(&self) -> Tick {
        self.current
    }

    fn next_expiry(&self) -> Option<Tick> {
        self.arena.min_expiry()
    }

    fn expiry_of(&self, id: TimerId) -> Option<Tick> {
        self.arena.expiry_of(id)
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn snapshot(&self) -> crate::api::QueueSnapshot {
        self.arena.snapshot_at(self.current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_fired(w: &mut HashedWheel, to: Tick) -> Vec<(TimerId, Tick)> {
        let mut fired = Vec::new();
        w.advance_to(to, &mut |id, exp| fired.push((id, exp)));
        fired
    }

    #[test]
    fn fires_at_exact_tick() {
        let mut w = HashedWheel::new(256);
        w.schedule(1, 10);
        assert!(collect_fired(&mut w, 9).is_empty());
        assert_eq!(collect_fired(&mut w, 10), vec![(1, 10)]);
    }

    #[test]
    fn multi_revolution_timer_waits() {
        let mut w = HashedWheel::new(8);
        // Expiry 100 hashes to slot 4 in an 8-slot wheel; the slot is
        // visited at ticks 4, 12, 20, ... but must only fire at 100.
        w.schedule(1, 100);
        assert!(collect_fired(&mut w, 99).is_empty());
        assert!(w.revisits() > 0);
        assert_eq!(collect_fired(&mut w, 100), vec![(1, 100)]);
    }

    #[test]
    fn cancel_and_reschedule() {
        let mut w = HashedWheel::new(16);
        w.schedule(1, 5);
        w.schedule(1, 9);
        assert!(w.cancel(1));
        w.schedule(1, 12);
        assert_eq!(collect_fired(&mut w, 20), vec![(1, 12)]);
    }

    #[test]
    fn past_due_fires_next_tick() {
        let mut w = HashedWheel::new(16);
        w.advance_to(50, &mut |_, _| {});
        w.schedule(1, 3);
        assert_eq!(collect_fired(&mut w, 51), vec![(1, 3)]);
    }

    #[test]
    fn same_slot_fifo() {
        let mut w = HashedWheel::new(4);
        // All expire at tick 8 (same slot, same revolution).
        for id in 0..5 {
            w.schedule(id, 8);
        }
        let ids: Vec<TimerId> = collect_fired(&mut w, 8).iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_panics() {
        HashedWheel::new(6);
    }
}
