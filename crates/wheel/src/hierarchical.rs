//! The Linux `kernel/timer.c` cascading hierarchical timing wheel.
//!
//! This is the structure behind the standard timer interface the paper
//! instruments (`__mod_timer`, `del_timer`, `__run_timers`). The version in
//! 2.6.23.9 keeps five arrays: `tv1` with 256 one-jiffy slots, and `tv2`
//! through `tv5` with 64 slots of exponentially coarser granularity
//! (2^8, 2^14, 2^20, 2^26 jiffies per slot). A timer is placed directly in
//! the level matching its distance from now; whenever the base wheel
//! completes a revolution, the next coarser level's current slot is
//! *cascaded* — its timers are re-inserted closer to the base.
//!
//! Set and cancel are O(1); tick processing is amortised O(1) per timer.
//! The price, relative to an exact priority queue, is that a cancelled
//! timer's slot entry lingers until its slot is visited (lazy deletion) and
//! cascades do bursty work. `benchmark trace` counts that work
//! (`wheel.cascade_moves`) and times the wheel on real schedules and
//! cancels (`wheel.replay_ns_per_op`).

use crate::api::{Tick, TimerId, TimerQueue};
use crate::arena::{NodeArena, NodeHandle};
use telemetry::{sim, SimCounter, SimHist};

/// Bits of the base-level wheel (256 slots of one tick each).
const TVR_BITS: u32 = 8;
/// Bits of each coarser level (64 slots each).
const TVN_BITS: u32 = 6;
const TVR_SIZE: usize = 1 << TVR_BITS;
const TVN_SIZE: usize = 1 << TVN_BITS;
const TVR_MASK: u64 = (TVR_SIZE - 1) as u64;
const TVN_MASK: u64 = (TVN_SIZE - 1) as u64;

/// Furthest representable relative expiry; longer delays are clamped, as in
/// the kernel (`MAX_TVAL`).
const MAX_TVAL: u64 = (1u64 << (TVR_BITS + 4 * TVN_BITS)) - 1;

/// The Linux-style cascading hierarchical timing wheel.
///
/// Slot entries are arena [`NodeHandle`]s, so the cascade and tick-firing
/// loops check liveness with an indexed slab read instead of a map probe,
/// and the scratch buffers below make steady-state processing
/// allocation-free.
#[derive(Debug)]
pub struct HierarchicalWheel {
    /// Base wheel: one-tick granularity.
    tv1: Vec<Vec<NodeHandle>>,
    /// Coarser wheels tv2..tv5.
    tvn: [Vec<Vec<NodeHandle>>; 4],
    arena: NodeArena,
    gen_counter: u64,
    /// The last tick fully processed.
    current: Tick,
    /// Cumulative number of entries moved by cascades (for benchmarks).
    cascade_moves: u64,
    /// Reused drain buffer for cascades and tick processing.
    drain_scratch: Vec<NodeHandle>,
    /// Reused due-set buffer for tick processing.
    due_scratch: Vec<(Tick, u64, NodeHandle)>,
}

impl Default for HierarchicalWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl HierarchicalWheel {
    /// Creates an empty wheel positioned at tick 0.
    pub fn new() -> Self {
        HierarchicalWheel {
            tv1: vec![Vec::new(); TVR_SIZE],
            tvn: std::array::from_fn(|_| vec![Vec::new(); TVN_SIZE]),
            arena: NodeArena::new(),
            gen_counter: 0,
            current: 0,
            cascade_moves: 0,
            drain_scratch: Vec::new(),
            due_scratch: Vec::new(),
        }
    }

    /// Total entries moved by cascade operations so far.
    pub fn cascade_moves(&self) -> u64 {
        self.cascade_moves
    }

    /// Inserts an entry into the level appropriate for its expiry.
    ///
    /// Mirrors the kernel's `internal_add_timer`: already-expired timers go
    /// into the base slot that will be processed on the very next tick.
    fn internal_add(&mut self, slot: NodeHandle, expires: Tick) {
        // The kernel computes slot placement relative to `timer_jiffies`,
        // the next tick to be processed — crucially also during cascades,
        // where using the last processed tick instead would put an entry
        // straight back into the coarse slot being drained and delay it a
        // whole revolution.
        let base = self.current + 1;
        if expires < base {
            // Already due: run on the next processed tick.
            self.tv1[(base & TVR_MASK) as usize].push(slot);
            return;
        }
        let delta = expires - base;
        if delta < TVR_SIZE as u64 {
            self.tv1[(expires & TVR_MASK) as usize].push(slot);
        } else {
            for level in 0..4 {
                let shift = TVR_BITS + TVN_BITS * level as u32;
                let span = 1u64 << (shift + TVN_BITS);
                if delta < span || level == 3 {
                    // Clamp ultra-long delays into the top level, as the
                    // kernel clamps to MAX_TVAL.
                    let eff = if delta > MAX_TVAL {
                        base + MAX_TVAL
                    } else {
                        expires
                    };
                    let idx = ((eff >> shift) & TVN_MASK) as usize;
                    self.tvn[level][idx].push(slot);
                    return;
                }
            }
            unreachable!("level selection is exhaustive");
        }
    }

    /// Re-distributes one coarser-level slot toward the base (a cascade).
    ///
    /// Returns the slot index processed, so the caller can decide whether
    /// the next level up also needs cascading (index 0 means a full
    /// revolution of this level just completed).
    fn cascade(&mut self, level: usize, index: usize) -> usize {
        // Swap the slot's contents into the reused drain buffer (the slot
        // inherits the buffer's capacity for future inserts) so cascades
        // allocate nothing in steady state.
        let mut entries = std::mem::take(&mut self.drain_scratch);
        std::mem::swap(&mut entries, &mut self.tvn[level][index]);
        let drained = entries.len();
        let mut moved = 0u64;
        for &slot in &entries {
            // Drop entries whose generation is stale (cancelled/moved).
            if let Some(expires) = self.arena.expires_if_live(slot) {
                moved += 1;
                self.internal_add(slot, expires);
            }
        }
        entries.clear();
        self.drain_scratch = entries;
        if moved > 0 {
            self.cascade_moves += moved;
            sim::add(SimCounter::WheelCascadeMoves, moved);
            sim::add(SimCounter::WheelCascades, moved);
        }
        if drained > 0 {
            sim::observe(SimHist::WheelCascadeBatch, moved);
        }
        index
    }

    /// Processes exactly one tick, firing the base slot for that tick.
    fn process_tick(&mut self, tick: Tick, fire: &mut dyn FnMut(TimerId, Tick)) {
        let index = (tick & TVR_MASK) as usize;
        if index == 0 {
            // The base wheel wrapped: cascade tv2, and ripple upwards while
            // each level also wraps.
            let mut level = 0;
            loop {
                let shift = TVR_BITS + TVN_BITS * level as u32;
                let idx = ((tick >> shift) & TVN_MASK) as usize;
                if self.cascade(level, idx) != 0 || level == 3 {
                    break;
                }
                level += 1;
            }
        }
        self.current = tick;
        let mut entries = std::mem::take(&mut self.drain_scratch);
        std::mem::swap(&mut entries, &mut self.tv1[index]);
        // The slot mixes directly-inserted, cascaded and past-due entries,
        // whose list positions do not reflect the contract's (expiry,
        // insertion) order — a past-due timer lands *behind* entries armed
        // earlier for exactly this tick. Collect the live ones and sort;
        // the generation stamp is the global insertion sequence.
        let mut due = std::mem::take(&mut self.due_scratch);
        for &slot in &entries {
            if let Some(expires) = self.arena.expires_if_live(slot) {
                due.push((expires, slot.generation, slot));
            }
        }
        entries.clear();
        self.drain_scratch = entries;
        due.sort_unstable_by_key(|&(expires, generation, _)| (expires, generation));
        for &(_, _, slot) in &due {
            if let Some((id, expires)) = self.arena.take_if_live(slot) {
                fire(id, expires);
            }
        }
        due.clear();
        self.due_scratch = due;
    }
}

impl TimerQueue for HierarchicalWheel {
    fn schedule(&mut self, id: TimerId, expires: Tick) {
        let mut gen_counter = self.gen_counter;
        let slot = self.arena.arm(id, expires, &mut gen_counter);
        self.gen_counter = gen_counter;
        self.internal_add(slot, expires);
    }

    fn cancel(&mut self, id: TimerId) -> bool {
        // Lazy deletion: the slot entry stays behind but its generation is
        // now unreachable, so it is skipped (and dropped) when visited.
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

    fn next_expiry_where(&self, keep: &dyn Fn(TimerId) -> bool) -> Option<Tick> {
        self.arena.min_expiry_where(keep)
    }

    fn expiry_of(&self, id: TimerId) -> Option<Tick> {
        self.arena.expiry_of(id)
    }

    fn len(&self) -> usize {
        self.arena.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect_fired(w: &mut HierarchicalWheel, to: Tick) -> Vec<(TimerId, Tick)> {
        let mut fired = Vec::new();
        w.advance_to(to, &mut |id, exp| fired.push((id, exp)));
        fired
    }

    #[test]
    fn fires_at_exact_tick() {
        let mut w = HierarchicalWheel::new();
        w.schedule(1, 10);
        assert!(collect_fired(&mut w, 9).is_empty());
        assert_eq!(collect_fired(&mut w, 10), vec![(1, 10)]);
        assert!(w.is_empty());
    }

    #[test]
    fn fires_past_due_on_next_tick() {
        let mut w = HierarchicalWheel::new();
        w.advance_to(100, &mut |_, _| {});
        w.schedule(1, 50);
        // Due in the past: fires on the next processed tick, not silently
        // dropped and not retroactive.
        assert_eq!(collect_fired(&mut w, 101), vec![(1, 50)]);
    }

    #[test]
    fn cancel_prevents_fire() {
        let mut w = HierarchicalWheel::new();
        w.schedule(1, 5);
        assert!(w.cancel(1));
        assert!(!w.cancel(1));
        assert!(collect_fired(&mut w, 10).is_empty());
    }

    #[test]
    fn reschedule_moves_timer() {
        let mut w = HierarchicalWheel::new();
        w.schedule(1, 5);
        w.schedule(1, 300); // Move into tv2.
        assert!(collect_fired(&mut w, 200).is_empty());
        assert_eq!(collect_fired(&mut w, 300), vec![(1, 300)]);
    }

    #[test]
    fn cascading_across_levels() {
        let mut w = HierarchicalWheel::new();
        // One timer per level distance.
        w.schedule(1, 100); // tv1
        w.schedule(2, 1_000); // tv2
        w.schedule(3, 100_000); // tv3
        w.schedule(4, 2_000_000); // tv4
        w.schedule(5, 200_000_000); // tv5
        let fired = collect_fired(&mut w, 200_000_000);
        assert_eq!(
            fired,
            vec![
                (1, 100),
                (2, 1_000),
                (3, 100_000),
                (4, 2_000_000),
                (5, 200_000_000)
            ]
        );
        assert!(w.cascade_moves() > 0);
    }

    #[test]
    fn cascade_moves_equal_the_sim_plane_count() {
        let (w, snap) = telemetry::sim::scoped(|| {
            let mut w = HierarchicalWheel::new();
            for id in 0..64 {
                w.schedule(id, 300 + id * 5_000);
            }
            collect_fired(&mut w, 200_000);
            w
        });
        assert!(w.cascade_moves() > 0);
        assert_eq!(
            w.cascade_moves(),
            snap.counter(SimCounter::WheelCascadeMoves)
        );
    }

    #[test]
    fn same_tick_fifo_order() {
        let mut w = HierarchicalWheel::new();
        for id in 0..10 {
            w.schedule(id, 42);
        }
        let fired = collect_fired(&mut w, 42);
        let ids: Vec<TimerId> = fired.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn clamps_ultra_long_delay() {
        let mut w = HierarchicalWheel::new();
        w.schedule(1, MAX_TVAL + 10_000);
        assert_eq!(w.len(), 1);
        // It is pending and eventually fires (after cascades re-clamp it).
        assert_eq!(w.next_expiry(), Some(MAX_TVAL + 10_000));
    }

    #[test]
    fn next_expiry_tracks_minimum() {
        let mut w = HierarchicalWheel::new();
        assert_eq!(w.next_expiry(), None);
        w.schedule(1, 500);
        w.schedule(2, 100);
        assert_eq!(w.next_expiry(), Some(100));
        w.cancel(2);
        assert_eq!(w.next_expiry(), Some(500));
    }

    #[test]
    fn wrap_boundary_does_not_early_fire() {
        let mut w = HierarchicalWheel::new();
        w.advance_to(255, &mut |_, _| {});
        // 256 ticks ahead of 255 lands in tv2; must not fire during the
        // base wheel's next revolution except at its exact tick.
        w.schedule(1, 255 + 256);
        assert!(collect_fired(&mut w, 510).is_empty());
        assert_eq!(collect_fired(&mut w, 511), vec![(1, 511)]);
    }
}
