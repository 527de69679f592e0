//! `/proc/timer_list`-style live snapshots of the simulated timer queues.
//!
//! Linux exposes the in-flight state of every timer base through
//! `/proc/timer_list`: per-base pending entries with their expiry, owner
//! and callback. The paper's methodology leans on exactly this view to
//! sanity-check its traces, so the simulation reproduces it: at chosen
//! sim instants, each kernel dumps a [`TimerListCapture`] — one
//! [`QueueListing`] per timer structure it runs — built from the uniform
//! [`QueueSnapshot`] every queue implements.
//!
//! # Plan / capture protocol
//!
//! The experiment runner cannot reach into a kernel mid-run (the kernel
//! is owned by the workload driver for the whole experiment), so capture
//! requests travel through a thread-local *plan*: the runner calls
//! [`install_plan`] with the requested sim instants before the run, the
//! kernel's `advance_to` drains [`due_instants`] as sim time passes and
//! pushes a capture per instant via [`record_capture`], and the runner
//! collects everything with [`take_captures`] afterwards. Kernels always
//! run on the calling thread, so thread-locals are safe.
//!
//! # Determinism and cross-structure equivalence
//!
//! A capture is a pure function of the kernel's state at the drained
//! instant, which is itself a pure function of the spec; renders are
//! therefore byte-identical across repeated runs. Because every queue
//! snapshot reports *armed expiries* from its per-timer bookkeeping
//! (never structure-internal slot positions), the pending `(expiry, id)`
//! multiset at any instant is identical whichever wheel a spec forces —
//! `tests/timer_list.rs` pins this.

use std::cell::RefCell;

use crate::api::{QueueSnapshot, Tick, TimerId};

/// One pending timer, as a timer-list line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerListEntry {
    /// The armed expiry, in the owning queue's ticks.
    pub expires_tick: Tick,
    /// The queue-level timer id (handle index).
    pub id: TimerId,
    /// Resolved provenance label.
    pub origin: String,
    /// Owning process (0 for the kernel).
    pub pid: u32,
}

/// One timer structure's `/proc/timer_list` section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueListing {
    /// Queue name (`base`, `hrtimer`, `ktimer`, `tcp_wheel`).
    pub name: String,
    /// The queue's current tick.
    pub now_tick: Tick,
    /// Nanoseconds per tick of this queue's clock.
    pub tick_nanos: u64,
    /// Pending entries, sorted by (expiry, id).
    pub entries: Vec<TimerListEntry>,
}

impl QueueListing {
    /// Builds a listing from a queue snapshot, resolving each timer id
    /// to its `(origin label, pid)` through `resolve`.
    pub fn from_snapshot(
        name: &str,
        tick_nanos: u64,
        snap: &QueueSnapshot,
        mut resolve: impl FnMut(TimerId) -> (String, u32),
    ) -> Self {
        let entries = snap
            .entries
            .iter()
            .map(|e| {
                let (origin, pid) = resolve(e.id);
                TimerListEntry {
                    expires_tick: e.expires,
                    id: e.id,
                    origin,
                    pid,
                }
            })
            .collect();
        QueueListing {
            name: name.to_owned(),
            now_tick: snap.now,
            tick_nanos,
            entries,
        }
    }

    /// The structure-invariant pending view: the `(expiry tick, id)`
    /// multiset, sorted.
    pub fn pending_multiset(&self) -> Vec<(Tick, TimerId)> {
        let mut v: Vec<(Tick, TimerId)> = self
            .entries
            .iter()
            .map(|e| (e.expires_tick, e.id))
            .collect();
        v.sort_unstable();
        v
    }
}

/// A full timer-list dump at one sim instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimerListCapture {
    /// The requested snapshot instant, in sim nanoseconds since boot.
    pub at_nanos: u64,
    /// Which kernel produced it (`"linux"` or `"vista"`).
    pub kernel: &'static str,
    /// One section per timer structure the kernel runs.
    pub queues: Vec<QueueListing>,
}

impl TimerListCapture {
    /// Renders the capture in the `/proc/timer_list` spirit: a header per
    /// queue, one indented line per pending timer. Deterministic — the
    /// entries arrive pre-sorted from the snapshot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Timer List Snapshot at {}.{:09} s ({} kernel)\n",
            self.at_nanos / 1_000_000_000,
            self.at_nanos % 1_000_000_000,
            self.kernel
        ));
        for q in &self.queues {
            out.push_str(&format!(
                "queue: {} (tick {} ns), now tick {}, pending {}\n",
                q.name,
                q.tick_nanos,
                q.now_tick,
                q.entries.len(),
            ));
            for (i, e) in q.entries.iter().enumerate() {
                let ns = e.expires_tick.saturating_mul(q.tick_nanos);
                out.push_str(&format!(
                    " #{i}: expires tick {} ({}.{:09} s), id {}, pid {}, origin {}\n",
                    e.expires_tick,
                    ns / 1_000_000_000,
                    ns % 1_000_000_000,
                    e.id,
                    e.pid,
                    e.origin
                ));
            }
        }
        out
    }
}

thread_local! {
    /// Requested capture instants (ascending, not yet captured).
    static PLAN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// Captures recorded by the kernel on this thread.
    static CAPTURES: RefCell<Vec<TimerListCapture>> = const { RefCell::new(Vec::new()) };
}

/// Installs the capture plan for the next run on this thread, replacing
/// any previous plan and discarding stale captures.
pub fn install_plan(mut instants_nanos: Vec<u64>) {
    instants_nanos.sort_unstable();
    instants_nanos.dedup();
    PLAN.with(|p| *p.borrow_mut() = instants_nanos);
    CAPTURES.with(|c| c.borrow_mut().clear());
}

/// `true` while the plan still holds uncaptured instants — the kernels'
/// cheap fast-path guard (one thread-local read per `advance_to`).
pub fn plan_pending() -> bool {
    PLAN.with(|p| !p.borrow().is_empty())
}

/// Drains and returns every planned instant at or before `now_nanos`.
pub fn due_instants(now_nanos: u64) -> Vec<u64> {
    PLAN.with(|p| {
        let mut plan = p.borrow_mut();
        let keep = plan.partition_point(|&t| t <= now_nanos);
        plan.drain(..keep).collect()
    })
}

/// Records one capture (called by a kernel's `advance_to`).
pub fn record_capture(capture: TimerListCapture) {
    CAPTURES.with(|c| c.borrow_mut().push(capture));
}

/// Takes every capture recorded on this thread and clears any remaining
/// plan (instants past the end of the run are simply never captured).
pub fn take_captures() -> Vec<TimerListCapture> {
    PLAN.with(|p| p.borrow_mut().clear());
    CAPTURES.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::TimerQueue;
    use crate::sortedlist::SortedList;

    #[test]
    fn plan_drains_in_order_and_once() {
        install_plan(vec![30, 10, 20, 20]);
        assert!(plan_pending());
        assert_eq!(due_instants(5), Vec::<u64>::new());
        assert_eq!(due_instants(20), vec![10, 20]);
        assert_eq!(due_instants(100), vec![30]);
        assert!(!plan_pending());
        install_plan(Vec::new());
    }

    #[test]
    fn captures_round_trip_and_render_deterministically() {
        install_plan(vec![1_000_000_000]);
        let mut q = SortedList::new();
        q.schedule(7, 42);
        q.schedule(3, 42);
        let listing = QueueListing::from_snapshot("base", 4_000_000, &q.snapshot(), |id| {
            (format!("test:{id}"), 0)
        });
        assert_eq!(listing.pending_multiset(), vec![(42, 3), (42, 7)]);
        record_capture(TimerListCapture {
            at_nanos: 1_000_000_000,
            kernel: "linux",
            queues: vec![listing],
        });
        let caps = take_captures();
        assert_eq!(caps.len(), 1);
        assert!(!plan_pending(), "take_captures clears the plan");
        let r1 = caps[0].render();
        let r2 = caps[0].render();
        assert_eq!(r1, r2);
        assert!(r1.contains("Timer List Snapshot at 1.000000000 s (linux kernel)"));
        assert!(r1.contains("queue: base (tick 4000000 ns)"));
        assert!(r1.contains("id 3"));
        assert!(r1.contains("origin test:7"));
    }
}
