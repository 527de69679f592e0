//! Slab-allocated timer nodes with generation-checked handles.
//!
//! The hierarchical and hashed wheels used to route every liveness check
//! through the [`ActiveSet`](crate::api::ActiveSet) map — one probe
//! per cascade move, per not-yet-due revisit, per fired entry. CHRONOS
//! motivates keeping per-timer bookkeeping cache-resident; [`NodeArena`]
//! does that with a slab `Vec` of nodes plus a free list, so the hot
//! slot-processing loops turn each probe into an indexed array read. Only
//! the id-keyed operations (`schedule`, `cancel`, `is_pending`) still
//! consult a map, exactly as often as before.
//!
//! Invariants:
//!
//! * A node is *live* iff its slot index is in the id map; a live node's
//!   `generation` is the global insertion sequence number it was armed
//!   under (never zero, never reused), so a structure entry `(node,
//!   generation)` is stale exactly when the generations differ — even if
//!   the node has been recycled for another timer in between.
//! * The slab never shrinks; freed nodes go on the free list and are
//!   recycled LIFO. The high watermark of slab length is the arena's whole
//!   footprint, exported as `arena_nodes_high_watermark`; every free-list
//!   reuse counts toward `arena_recycles_total`. Both are plain counter
//!   bumps — no RNG draws, so adopting the arena cannot perturb any
//!   simulated trace.
//! * The sim-plane bumps for schedules/cancels/expirations replicate
//!   [`ActiveSet`](crate::api::ActiveSet) exactly (a re-arm of a live
//!   timer counts a cancel and a schedule), keeping the conservation
//!   identity and the counters shared by every structure unchanged.

use simtime::fasthash::FoldMap;
use telemetry::{sim, SimCounter, SimGauge};

use crate::api::{Tick, TimerId};

/// Index of a node in the slab.
pub type NodeIndex = u32;

/// One slab node. Free nodes keep `generation == 0`.
#[derive(Debug, Clone, Copy)]
struct Node {
    id: TimerId,
    expires: Tick,
    /// Global insertion sequence when live; 0 when free.
    generation: u64,
}

/// A handle to a just-armed node, for embedding in wheel slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeHandle {
    /// Slab index of the node.
    pub node: NodeIndex,
    /// The generation the node was armed under.
    pub generation: u64,
}

/// Slab arena for the timing wheels.
///
/// Drop-in replacement for [`ActiveSet`](crate::api::ActiveSet): same
/// sim-plane counter semantics, but liveness checks during slot
/// processing are array reads.
#[derive(Debug, Default)]
pub struct NodeArena {
    nodes: Vec<Node>,
    free: Vec<NodeIndex>,
    index: FoldMap<TimerId, NodeIndex>,
}

impl NodeArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        NodeArena::default()
    }

    fn alloc(&mut self, id: TimerId, expires: Tick, generation: u64) -> NodeIndex {
        let node = Node {
            id,
            expires,
            generation,
        };
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                sim::add(SimCounter::ArenaRecycles, 1);
                idx
            }
            None => {
                let idx = self.nodes.len() as NodeIndex;
                self.nodes.push(node);
                sim::gauge_max(SimGauge::ArenaNodesHigh, self.nodes.len() as u64);
                idx
            }
        }
    }

    fn release(&mut self, idx: NodeIndex) {
        self.nodes[idx as usize].generation = 0;
        self.free.push(idx);
    }

    /// Arms (or re-arms) `id`, returning the handle to embed in a slot.
    ///
    /// Counter semantics match `ActiveSet::arm`: a re-arm of a live timer
    /// is a detach + enqueue, counting a cancel and a schedule.
    pub fn arm(&mut self, id: TimerId, expires: Tick, next_gen: &mut u64) -> NodeHandle {
        *next_gen += 1;
        let generation = *next_gen;
        if let Some(&old) = self.index.get(&id) {
            self.release(old);
            sim::add(SimCounter::WheelCancels, 1);
        }
        let node = self.alloc(id, expires, generation);
        self.index.insert(id, node);
        sim::add(SimCounter::WheelSchedules, 1);
        sim::gauge_max(SimGauge::WheelPendingHigh, self.index.len() as u64);
        NodeHandle { node, generation }
    }

    /// Disarms `id`; returns `true` if it was pending.
    pub fn disarm(&mut self, id: TimerId) -> bool {
        match self.index.remove(&id) {
            Some(idx) => {
                self.release(idx);
                sim::add(SimCounter::WheelCancels, 1);
                true
            }
            None => false,
        }
    }

    /// Returns `true` if `id` is pending.
    pub fn is_pending(&self, id: TimerId) -> bool {
        self.index.contains_key(&id)
    }

    /// The armed expiry of `id`, if it is pending.
    pub fn expiry_of(&self, id: TimerId) -> Option<Tick> {
        self.index
            .get(&id)
            .map(|&idx| self.nodes[idx as usize].expires)
    }

    /// The armed expiry behind a handle, if it is still live — an indexed
    /// array read, no map probe.
    #[inline]
    pub fn expires_if_live(&self, handle: NodeHandle) -> Option<Tick> {
        let node = self.nodes[handle.node as usize];
        (node.generation == handle.generation).then_some(node.expires)
    }

    /// Fires the timer behind a live handle: frees the node, counts the
    /// expiration, and returns `(id, armed expiry)`. Stale handles return
    /// `None`.
    pub fn take_if_live(&mut self, handle: NodeHandle) -> Option<(TimerId, Tick)> {
        let node = self.nodes[handle.node as usize];
        if node.generation != handle.generation {
            return None;
        }
        self.index.remove(&node.id);
        self.release(handle.node);
        sim::add(SimCounter::WheelExpirations, 1);
        Some((node.id, node.expires))
    }

    /// Number of pending timers.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns `true` if no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Total slab capacity ever allocated (the high watermark's value).
    pub fn slab_len(&self) -> usize {
        self.nodes.len()
    }

    /// The minimum armed expiry over the live nodes `keep` accepts.
    ///
    /// A linear scan of the whole slab, free nodes included, on every
    /// call. Both kernels ask through `next_wakeup` on every driver step,
    /// so its cost follows the slab's high watermark, not the pending
    /// count.
    pub fn min_expiry_where(&self, keep: &dyn Fn(TimerId) -> bool) -> Option<Tick> {
        self.nodes
            .iter()
            .filter(|n| n.generation != 0 && keep(n.id))
            .map(|n| n.expires)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_take_lifecycle() {
        let mut arena = NodeArena::new();
        let mut gen_counter = 0;
        let h1 = arena.arm(1, 100, &mut gen_counter);
        assert!(arena.is_pending(1));
        assert_eq!(arena.expiry_of(1), Some(100));
        assert_eq!(arena.expires_if_live(h1), Some(100));
        // Re-arm invalidates the old handle.
        let h2 = arena.arm(1, 200, &mut gen_counter);
        assert_ne!(h1.generation, h2.generation);
        assert_eq!(arena.expires_if_live(h1), None);
        assert_eq!(arena.take_if_live(h1), None);
        assert!(arena.is_pending(1));
        assert_eq!(arena.expiry_of(1), Some(200));
        assert_eq!(arena.take_if_live(h2), Some((1, 200)));
        assert!(!arena.is_pending(1));
        assert_eq!(arena.expiry_of(1), None);
        assert!(!arena.disarm(1));
    }

    #[test]
    fn recycled_node_never_matches_stale_handle() {
        let mut arena = NodeArena::new();
        let mut gen_counter = 0;
        let h1 = arena.arm(1, 10, &mut gen_counter);
        assert!(arena.disarm(1));
        // The freed node is recycled for a different timer; the old
        // handle's generation can never reappear.
        let h2 = arena.arm(2, 20, &mut gen_counter);
        assert_eq!(h1.node, h2.node, "free list recycles LIFO");
        assert_eq!(arena.expires_if_live(h1), None);
        assert_eq!(arena.take_if_live(h1), None);
        assert_eq!(arena.take_if_live(h2), Some((2, 20)));
        assert_eq!(arena.slab_len(), 1, "recycling kept the slab flat");
    }

    #[test]
    fn min_expiry_tracks_kept_live_nodes() {
        let mut arena = NodeArena::new();
        let mut gen_counter = 0;
        let all = |_: TimerId| true;
        assert_eq!(arena.min_expiry_where(&all), None);
        arena.arm(1, 50, &mut gen_counter);
        arena.arm(2, 30, &mut gen_counter);
        arena.arm(3, 90, &mut gen_counter);
        assert_eq!(arena.min_expiry_where(&all), Some(30));
        arena.disarm(2);
        assert_eq!(arena.min_expiry_where(&all), Some(50));
        assert_eq!(arena.min_expiry_where(&|id| id != 1), Some(90));
    }

    #[test]
    fn recycles_and_watermark_are_counted() {
        telemetry::sim::reset();
        let ((), snap) = telemetry::sim::scoped(|| {
            let mut arena = NodeArena::new();
            let mut gen_counter = 0;
            arena.arm(1, 10, &mut gen_counter);
            arena.arm(2, 20, &mut gen_counter);
            arena.disarm(1);
            arena.arm(3, 30, &mut gen_counter); // recycles node 0
        });
        assert_eq!(snap.gauge(telemetry::SimGauge::ArenaNodesHigh), 2);
        assert_eq!(snap.counter(telemetry::SimCounter::ArenaRecycles), 1);
        // The uniform wheel counters match ActiveSet semantics.
        assert_eq!(snap.counter(telemetry::SimCounter::WheelSchedules), 3);
        assert_eq!(snap.counter(telemetry::SimCounter::WheelCancels), 1);
    }
}
