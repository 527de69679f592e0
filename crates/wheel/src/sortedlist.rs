//! A sorted-vector timer queue — the historical BSD `callout`-list baseline.
//!
//! Early Unix kernels (including the 6th Edition code the paper cites as
//! the unchanged ancestor of today's interfaces) kept pending timeouts in a
//! single list sorted by expiry. Insertion is O(n), cancellation O(log n)
//! plus the shift, and expiry is a batched prefix drain. It is the baseline
//! the timing wheels were invented to replace, and the exact reference
//! `tests/equivalence.rs` checks both wheels against.
//!
//! The list is *exact*: every mutation maintains full sorted order with no
//! lazy deletion. Removals locate their entry by binary search on the full
//! `(effective, expires, generation, id)` key (the armed key is remembered
//! per timer), and `advance_to` drains the whole due prefix with one
//! memmove instead of popping the front one timer at a time — the fix for
//! the quadratic firing behaviour the `queue_mix/sortedlist` benchmark
//! exposed.

use simtime::fasthash::FoldMap;

use crate::api::{ActiveSet, Tick, TimerId, TimerQueue};

/// Sort key of one entry: (effective fire tick, armed expiry, sequence,
/// id). Carrying the armed expiry puts past-due timers ahead of timers
/// armed exactly for their effective tick — the contract's (expiry,
/// insertion) order.
type Key = (Tick, Tick, u64, TimerId);

/// A sorted-vector timer queue.
#[derive(Debug, Default)]
pub struct SortedList {
    /// Entries sorted ascending by [`Key`]; the front is the earliest.
    entries: Vec<Key>,
    /// The effective fire tick each pending timer was inserted under, so
    /// re-arm and cancel can reconstruct the exact key for binary search
    /// (the armed expiry and generation live in `active`).
    effective: FoldMap<TimerId, Tick>,
    active: ActiveSet,
    gen_counter: u64,
    current: Tick,
    /// Reused drain buffer for advance_to's due prefix.
    drain_scratch: Vec<Key>,
}

impl SortedList {
    /// Creates an empty list.
    pub fn new() -> Self {
        Self::default()
    }

    /// Removes `key` from the sorted vector if present (it is absent only
    /// when the entry is mid-flight in a firing batch).
    fn remove_key(&mut self, key: Key) {
        let pos = self.entries.partition_point(|e| *e < key);
        if self.entries.get(pos) == Some(&key) {
            self.entries.remove(pos);
        }
    }
}

impl TimerQueue for SortedList {
    fn schedule(&mut self, id: TimerId, expires: Tick) {
        // Eager removal of any previous entry keeps the list exact; the
        // remembered key makes it a binary search, not a scan.
        if let Some(old) = self.active.get(id) {
            let old_effective = self.effective[&id];
            self.remove_key((old_effective, old.expires, old.generation, id));
        }
        let mut gen_counter = self.gen_counter;
        let generation = self.active.arm(id, expires, &mut gen_counter);
        self.gen_counter = gen_counter;
        let effective = expires.max(self.current + 1);
        self.effective.insert(id, effective);
        let key = (effective, expires, generation, id);
        let pos = self.entries.partition_point(|e| *e <= key);
        self.entries.insert(pos, key);
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        match self.active.get(id) {
            Some(entry) => {
                self.active.disarm(id);
                let effective = self
                    .effective
                    .remove(&id)
                    .expect("pending timer has a remembered key");
                self.remove_key((effective, entry.expires, entry.generation, id));
                true
            }
            None => false,
        }
    }

    fn is_pending(&self, id: TimerId) -> bool {
        self.active.is_pending(id)
    }

    fn advance_to(&mut self, now: Tick, fire: &mut dyn FnMut(TimerId, Tick)) {
        self.current = now;
        let due = self.entries.partition_point(|e| e.0 <= now);
        if due == 0 {
            return;
        }
        // Drain the whole due prefix at once (one memmove), then fire in
        // key order. Timers scheduled by firing callbacks get an effective
        // tick past `now`, so a single drain is exhaustive; timers
        // cancelled or re-armed by callbacks fail the liveness check.
        let mut batch = std::mem::take(&mut self.drain_scratch);
        batch.extend(self.entries.drain(..due));
        for &(_, _, generation, id) in &batch {
            if let Some(expires) = self.active.take_if_live(id, generation) {
                self.effective.remove(&id);
                fire(id, expires);
            }
        }
        batch.clear();
        self.drain_scratch = batch;
    }

    fn next_expiry_where(&self, keep: &dyn Fn(TimerId) -> bool) -> Option<Tick> {
        self.active.min_expiry_where(keep)
    }

    fn expiry_of(&self, id: TimerId) -> Option<Tick> {
        self.active.get(id).map(|e| e.expires)
    }

    fn len(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_fired(w: &mut SortedList, to: Tick) -> Vec<(TimerId, Tick)> {
        let mut fired = Vec::new();
        w.advance_to(to, &mut |id, exp| fired.push((id, exp)));
        fired
    }

    #[test]
    fn fires_in_order() {
        let mut w = SortedList::new();
        w.schedule(1, 30);
        w.schedule(2, 10);
        w.schedule(3, 20);
        assert_eq!(collect_fired(&mut w, 25), vec![(2, 10), (3, 20)]);
        assert_eq!(collect_fired(&mut w, 30), vec![(1, 30)]);
    }

    #[test]
    fn cancel_is_eager() {
        let mut w = SortedList::new();
        w.schedule(1, 10);
        w.schedule(2, 20);
        assert!(w.cancel(1));
        assert_eq!(w.len(), 1);
        assert_eq!(collect_fired(&mut w, 30), vec![(2, 20)]);
    }

    #[test]
    fn reschedule_replaces_entry() {
        let mut w = SortedList::new();
        w.schedule(1, 10);
        w.schedule(1, 40);
        assert!(collect_fired(&mut w, 30).is_empty());
        assert_eq!(collect_fired(&mut w, 40), vec![(1, 40)]);
    }

    #[test]
    fn fifo_ties() {
        let mut w = SortedList::new();
        for id in 0..5 {
            w.schedule(id, 3);
        }
        let ids: Vec<TimerId> = collect_fired(&mut w, 3).iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancel_and_rearm_before_drain_stay_exact() {
        let mut w = SortedList::new();
        w.schedule(1, 10);
        w.schedule(2, 11);
        w.schedule(3, 12);
        // Cancel and re-arm via the keyed binary-search removal path;
        // neither the cancelled entry nor the superseded key may fire.
        assert!(w.cancel(2));
        w.schedule(3, 50);
        assert_eq!(collect_fired(&mut w, 20), vec![(1, 10)]);
        assert_eq!(collect_fired(&mut w, 50), vec![(3, 50)]);
        assert!(w.is_empty());
    }

    #[test]
    fn past_due_fires_next_advance_in_armed_order() {
        let mut w = SortedList::new();
        w.advance_to(100, &mut |_, _| {});
        w.schedule(1, 40);
        w.schedule(2, 30);
        // Both past due: effective tick 101, ordered by armed expiry.
        assert_eq!(collect_fired(&mut w, 101), vec![(2, 30), (1, 40)]);
    }
}
