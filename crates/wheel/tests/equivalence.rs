//! Property tests: both timing wheels are observationally equivalent to
//! the exact [`SortedList`] reference — *exactly*, including fire order —
//! under arbitrary schedule / re-arm / cancel / advance sequences.
//!
//! The firing-order contract (`wheel::api`, "Firing order") says every
//! queue fires a timer at its effective tick and, within one tick, in
//! (armed expiry, insertion) order. These tests compare full fire
//! sequences with **no normalisation**: any divergence in order is a
//! contract violation, because the simulated kernels consume fire
//! notifications in order and a reordering would change downstream RNG
//! draws and therefore whole traces.

use proptest::prelude::*;
use wheel::{HashedWheel, HierarchicalWheel, SortedList, Tick, TimerId, TimerQueue};

/// One operation in a randomly generated trace.
#[derive(Debug, Clone)]
enum Op {
    /// Arm (or move) a timer for `now + delta`.
    Schedule { id: TimerId, delta: u64 },
    /// The explicit `mod_timer` move path: re-arm relative to now; with
    /// `delta == 0` this is the re-arm-at-`now()` edge case (effective
    /// tick `now + 1`).
    Rearm { id: TimerId, delta: u64 },
    /// Disarm a timer.
    Cancel { id: TimerId },
    /// Cancel then immediately reschedule — the kernel's
    /// `del_timer; mod_timer` idiom, which must behave exactly like a
    /// plain re-arm despite the wheels' lazy-deletion stale entries.
    CancelReschedule { id: TimerId, delta: u64 },
    /// Move time forward, firing everything due.
    Advance { delta: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8, 0u64..5_000).prop_map(|(id, delta)| Op::Schedule { id, delta }),
        (0u64..8, 0u64..50).prop_map(|(id, delta)| Op::Rearm { id, delta }),
        (0u64..8).prop_map(|id| Op::Cancel { id }),
        (0u64..8, 0u64..300).prop_map(|(id, delta)| Op::CancelReschedule { id, delta }),
        (1u64..3_000).prop_map(|delta| Op::Advance { delta }),
    ]
}

/// Applies an op sequence, returning every (fire-tick, id, armed-expiry)
/// in the exact order the queue delivered it.
fn run(queue: &mut dyn TimerQueue, ops: &[Op]) -> Vec<(Tick, TimerId, Tick)> {
    let mut fired = Vec::new();
    let mut now = 0u64;
    for op in ops {
        match *op {
            Op::Schedule { id, delta } | Op::Rearm { id, delta } => queue.schedule(id, now + delta),
            Op::Cancel { id } => {
                queue.cancel(id);
            }
            Op::CancelReschedule { id, delta } => {
                queue.cancel(id);
                queue.schedule(id, now + delta);
            }
            Op::Advance { delta } => {
                now += delta;
                queue.advance_to(now, &mut |id, exp| fired.push((now, id, exp)));
            }
        }
    }
    // Drain everything left so trailing timers are compared too. Schedule
    // deltas are bounded by 5000 ticks, so a 6000-tick drain is exhaustive
    // (the tick-at-a-time wheels make huge drains prohibitively slow).
    now += 6_000;
    queue.advance_to(now, &mut |id, exp| fired.push((now, id, exp)));
    assert!(queue.is_empty(), "drain horizon must cover all timers");
    fired
}

/// The reference list first, then both wheels.
fn all_queues() -> Vec<(&'static str, Box<dyn TimerQueue>)> {
    vec![
        ("sortedlist", Box::new(SortedList::new())),
        ("hierarchical", Box::new(HierarchicalWheel::new())),
        ("hashed", Box::new(HashedWheel::new(64))),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The heart of the wheel-swap safety argument: the full fire
    /// sequence — order included — is identical across all three
    /// structures for any interleaving of operations.
    #[test]
    fn all_queues_exactly_equivalent(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut reference: Option<Vec<(Tick, TimerId, Tick)>> = None;
        for (name, mut queue) in all_queues() {
            let fired = run(queue.as_mut(), &ops);
            match &reference {
                None => reference = Some(fired),
                Some(expected) => prop_assert_eq!(
                    expected,
                    &fired,
                    "{} diverged from the sorted list",
                    name
                ),
            }
        }
    }

    /// After every op, all three structures agree on the pending state:
    /// its size, each id's armed expiry, and the earliest expiry. The
    /// filtered minimum (what dynticks asks for when it skips deferrable
    /// timers) must equal the model: the least armed expiry over the kept
    /// ids.
    #[test]
    fn pending_state_agrees(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let mut hier = HierarchicalWheel::new();
        let mut hashed = HashedWheel::new(64);
        let mut list = SortedList::new();
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Schedule { id, delta } | Op::Rearm { id, delta } => {
                    hier.schedule(id, now + delta);
                    hashed.schedule(id, now + delta);
                    list.schedule(id, now + delta);
                }
                Op::Cancel { id } => {
                    let r = hier.cancel(id);
                    prop_assert_eq!(r, hashed.cancel(id));
                    prop_assert_eq!(r, list.cancel(id));
                }
                Op::CancelReschedule { id, delta } => {
                    let r = hier.cancel(id);
                    prop_assert_eq!(r, hashed.cancel(id));
                    prop_assert_eq!(r, list.cancel(id));
                    hier.schedule(id, now + delta);
                    hashed.schedule(id, now + delta);
                    list.schedule(id, now + delta);
                }
                Op::Advance { delta } => {
                    now += delta;
                    let mut n1 = 0u32;
                    let mut n2 = 0u32;
                    let mut n3 = 0u32;
                    hier.advance_to(now, &mut |_, _| n1 += 1);
                    hashed.advance_to(now, &mut |_, _| n2 += 1);
                    list.advance_to(now, &mut |_, _| n3 += 1);
                    prop_assert_eq!(n1, n2);
                    prop_assert_eq!(n1, n3);
                }
            }
            prop_assert_eq!(hier.len(), hashed.len());
            prop_assert_eq!(hier.len(), list.len());
            prop_assert_eq!(hier.next_expiry(), hashed.next_expiry());
            prop_assert_eq!(hier.next_expiry(), list.next_expiry());
            let odd = |id: TimerId| id % 2 == 1;
            let model = (0..8).filter(|&id| odd(id)).filter_map(|id| list.expiry_of(id)).min();
            prop_assert_eq!(hier.next_expiry_where(&odd), model);
            prop_assert_eq!(hashed.next_expiry_where(&odd), model);
            prop_assert_eq!(list.next_expiry_where(&odd), model);
            for id in 0..8 {
                prop_assert_eq!(hier.expiry_of(id), hashed.expiry_of(id));
                prop_assert_eq!(hier.expiry_of(id), list.expiry_of(id));
            }
        }
    }
}

/// Runs `setup` on a fresh queue of every structure and asserts each
/// produces exactly `expected` when advanced to `horizon`.
fn assert_all_fire(
    setup: impl Fn(&mut dyn TimerQueue),
    horizon: Tick,
    expected: &[(TimerId, Tick)],
) {
    for (name, mut queue) in all_queues() {
        setup(queue.as_mut());
        let mut fired = Vec::new();
        queue.advance_to(horizon, &mut |id, exp| fired.push((id, exp)));
        assert_eq!(fired, expected, "{name} fired in the wrong order");
    }
}

/// Regression (same-tick firing order): past-due timers share an
/// effective tick with timers armed exactly for it, and must be ordered
/// by (armed expiry, insertion) — *not* by insertion or slot position.
/// Before the ordering fix the wheels fired `x` first (slot insertion
/// order) and the list ordered past-due entries by generation.
#[test]
fn same_tick_orders_past_due_by_expiry() {
    assert_all_fire(
        |q| {
            q.advance_to(5, &mut |_, _| {});
            q.schedule(10, 6); // armed exactly for the next tick
            q.schedule(11, 3); // past due: effective tick 6
            q.schedule(12, 2); // more past due: effective tick 6
        },
        6,
        // (expiry, insertion) order: expiry 2, then 3, then 6.
        &[(12, 2), (11, 3), (10, 6)],
    );
}

/// Regression (re-arm at `now()`): a timer re-armed for the current tick
/// fires on the next processed tick, ordered by its armed expiry against
/// everything else due then.
#[test]
fn rearm_at_now_fires_next_tick_in_expiry_order() {
    assert_all_fire(
        |q| {
            q.schedule(1, 100);
            q.advance_to(50, &mut |_, _| {});
            q.schedule(2, 51); // armed for the next tick
            q.schedule(1, 50); // re-arm at now(): effective tick 51
        },
        51,
        // Timer 1's armed expiry (50) precedes timer 2's (51).
        &[(1, 50), (2, 51)],
    );
}

/// Regression (cancel-then-reschedule): the `del_timer; mod_timer` idiom
/// must leave exactly one live entry, fire it once, and order it by its
/// *new* insertion point against same-expiry peers.
#[test]
fn cancel_then_reschedule_fires_once_in_new_position() {
    assert_all_fire(
        |q| {
            q.schedule(1, 10);
            q.schedule(2, 10);
            q.cancel(1);
            q.schedule(1, 10); // re-inserted after 2
        },
        20,
        // Same expiry: insertion order, with 1's insertion now after 2's.
        &[(2, 10), (1, 10)],
    );
}

/// Regression: a plain re-arm (no cancel) to the same expiry also moves
/// the timer behind same-expiry peers, identically everywhere.
#[test]
fn rearm_same_expiry_moves_to_back() {
    assert_all_fire(
        |q| {
            q.schedule(1, 10);
            q.schedule(2, 10);
            q.schedule(1, 10); // mod_timer move: fresh generation
        },
        10,
        &[(2, 10), (1, 10)],
    );
}

/// Deterministic regression: a dense periodic + timeout mix drains fully.
#[test]
fn mixed_workload_drains() {
    for (_, mut q) in all_queues() {
        // 100 periodic timers re-armed 50 times each from the callback
        // would need callback re-entry; emulate by scheduling all rounds.
        let mut id = 0;
        for period in [1u64, 5, 25, 250] {
            for round in 1..=50u64 {
                q.schedule(id, period * round);
                id += 1;
            }
        }
        let mut count = 0;
        q.advance_to(250 * 50, &mut |_, _| count += 1);
        assert_eq!(count, 200);
        assert!(q.is_empty());
    }
}
