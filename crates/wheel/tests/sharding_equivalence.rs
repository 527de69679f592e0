//! Property tests: the sharded per-CPU backend is observationally
//! equivalent — *exactly*, including fire order — to the flat structure it
//! wraps, under arbitrary schedule / re-arm / cancel / advance / migrate
//! sequences.
//!
//! This is the trust anchor for the million-connection run: placement and
//! migration decide *where* a timer waits, never *when or in what order*
//! it fires. The comparisons below use **no normalisation** — any
//! divergence is a contract violation, because the simulated kernels
//! consume fire notifications in order and a reordering would change
//! downstream RNG draws and therefore whole traces. Mirrors
//! `equivalence.rs`, plus CPU-context ops the flat backends ignore.

use proptest::prelude::*;
use telemetry::{sim, SimCounter, SimGauge};
use wheel::{Backend, ShardedQueue, Tick, TimerId, TimerQueue};

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
    /// `del_timer; mod_timer` idiom.
    CancelReschedule { id: TimerId, delta: u64 },
    /// Declare which simulated CPU issues the following arms. The flat
    /// backends ignore this; the sharded backend places (and migrates)
    /// on it. `cpu == 8` stands for `None` (back to home-hash placement).
    SetCpu { cpu: u32 },
    /// Move time forward, firing everything due.
    Advance { delta: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..8, 0u64..5_000).prop_map(|(id, delta)| Op::Schedule { id, delta }),
        (0u64..8, 0u64..50).prop_map(|(id, delta)| Op::Rearm { id, delta }),
        (0u64..8).prop_map(|id| Op::Cancel { id }),
        (0u64..8, 0u64..300).prop_map(|(id, delta)| Op::CancelReschedule { id, delta }),
        (0u32..=8).prop_map(|cpu| Op::SetCpu { cpu }),
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
            Op::SetCpu { cpu } => {
                queue.set_context_cpu(if cpu == 8 { None } else { Some(cpu) });
            }
            Op::Advance { delta } => {
                now += delta;
                queue.advance_to(now, &mut |id, exp| fired.push((now, id, exp)));
            }
        }
    }
    // Drain everything left so trailing timers are compared too (schedule
    // deltas are bounded by 5000 ticks, so 6000 is an exhaustive horizon).
    now += 6_000;
    queue.advance_to(now, &mut |id, exp| fired.push((now, id, exp)));
    assert!(queue.is_empty(), "drain horizon must cover all timers");
    fired
}

/// Builds `sharded:<n>:<inner>` through the same factory the simulated
/// kernels use.
fn sharded(n: u16, inner: Backend) -> Box<dyn TimerQueue> {
    inner.with_shards(n).build(Backend::Hierarchical, 64)
}

/// The sharded wrapper around one base, built directly: the factory
/// returns the bare inner queue for `sharded:1`, and the `single_shard_*`
/// tests pin that the two are interchangeable.
fn one_base(inner: Backend) -> Box<dyn TimerQueue> {
    Box::new(ShardedQueue::new(1, &mut || {
        inner.build(Backend::Hierarchical, 64)
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// sharded(N=1) is the inner backend plus pure bookkeeping: for every
    /// flat structure, the full fire sequence — order included — is
    /// identical to the bare structure under any interleaving.
    #[test]
    fn single_shard_identical_to_inner(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        for inner in Backend::FORCED {
            let mut bare = inner.build(Backend::Hierarchical, 64);
            let expected = run(bare.as_mut(), &ops);
            let mut one = one_base(inner);
            let fired = run(one.as_mut(), &ops);
            prop_assert_eq!(
                &expected,
                &fired,
                "sharded:1:{} diverged from bare {}",
                inner.label(),
                inner.label()
            );
        }
    }

    /// Splitting across 2, 4, or 8 bases — with CPU-context placement and
    /// cross-base migration in the op mix — never changes the fire
    /// sequence of the wrapped structure.
    #[test]
    fn multi_shard_preserves_exact_order(
        ops in proptest::collection::vec(op_strategy(), 0..120)
    ) {
        let mut bare = Backend::Hierarchical.build(Backend::Hierarchical, 64);
        let expected = run(bare.as_mut(), &ops);
        for n in [2u16, 4, 8] {
            let mut q = sharded(n, Backend::Hierarchical);
            let fired = run(q.as_mut(), &ops);
            prop_assert_eq!(
                &expected,
                &fired,
                "sharded:{}:hierarchical diverged from bare hierarchical",
                n
            );
        }
    }

    /// The whole sharded matrix agrees with a single reference sequence:
    /// inner structure and shard count are both free choices.
    #[test]
    fn sharded_matrix_exactly_equivalent(
        ops in proptest::collection::vec(op_strategy(), 0..100)
    ) {
        let mut reference = Backend::Heap.build(Backend::Hierarchical, 64);
        let expected = run(reference.as_mut(), &ops);
        for backend in Backend::SHARDED_MATRIX {
            let mut q = backend.build(Backend::Hierarchical, 64);
            let fired = run(q.as_mut(), &ops);
            prop_assert_eq!(
                &expected,
                &fired,
                "backend {} diverged from bare heap",
                backend.label()
            );
        }
    }

    /// Pending state (liveness, count, next expiry, base residency)
    /// agrees between sharded and bare at every step.
    #[test]
    fn pending_state_agrees(ops in proptest::collection::vec(op_strategy(), 0..80)) {
        let mut bare = Backend::Heap.build(Backend::Hierarchical, 64);
        let mut shard = sharded(4, Backend::Heap);
        let mut now = 0u64;
        for op in &ops {
            match *op {
                Op::Schedule { id, delta } | Op::Rearm { id, delta } => {
                    bare.schedule(id, now + delta);
                    shard.schedule(id, now + delta);
                }
                Op::Cancel { id } => {
                    prop_assert_eq!(bare.cancel(id), shard.cancel(id));
                }
                Op::CancelReschedule { id, delta } => {
                    prop_assert_eq!(bare.cancel(id), shard.cancel(id));
                    bare.schedule(id, now + delta);
                    shard.schedule(id, now + delta);
                }
                Op::SetCpu { cpu } => {
                    let cpu = if cpu == 8 { None } else { Some(cpu) };
                    bare.set_context_cpu(cpu);
                    shard.set_context_cpu(cpu);
                }
                Op::Advance { delta } => {
                    now += delta;
                    let mut n1 = 0u32;
                    let mut n2 = 0u32;
                    bare.advance_to(now, &mut |_, _| n1 += 1);
                    shard.advance_to(now, &mut |_, _| n2 += 1);
                    prop_assert_eq!(n1, n2);
                }
            }
            prop_assert_eq!(bare.len(), shard.len());
            prop_assert_eq!(bare.next_expiry(), shard.next_expiry());
            for id in 0..8u64 {
                prop_assert_eq!(bare.is_pending(id), shard.is_pending(id));
                // A pending timer lives on exactly one base.
                prop_assert_eq!(bare.base_of(id).is_some(), shard.base_of(id).is_some());
            }
        }
    }
}

/// Regression: migration accounting. A re-arm from a different CPU bumps
/// `wheel_base_migrations_total` and costs exactly one extra inner cancel
/// + schedule; a re-arm from the same CPU costs nothing extra.
#[test]
fn migration_bumps_counter_and_inner_churn() {
    let ((), snap) = sim::scoped(|| {
        let mut q = sharded(4, Backend::Heap);
        q.set_context_cpu(Some(0));
        q.schedule(1, 100);
        q.schedule(1, 150); // same CPU: a plain move, no migration
        q.set_context_cpu(Some(2));
        q.schedule(1, 200); // different CPU: one migration
        q.advance_to(300, &mut |_, _| {});
    });
    assert_eq!(snap.counter(SimCounter::WheelBaseMigrations), 1);
    // Inner churn matches a flat base exactly: three enqueues, two
    // detaches (the same-base move's implicit one, the migration's
    // explicit one), one expiry — conservation: 3 == 2 + 1 + 0.
    assert_eq!(snap.counter(SimCounter::WheelSchedules), 3);
    assert_eq!(snap.counter(SimCounter::WheelCancels), 2);
    assert_eq!(snap.counter(SimCounter::WheelExpirations), 1);
}

/// Regression: with one base there is nowhere to migrate — counters and
/// gauges are exactly the bare structure's.
#[test]
fn single_shard_counters_identical_to_bare() {
    let drive = |q: &mut dyn TimerQueue| {
        q.set_context_cpu(Some(3)); // hint is a no-op with one base
        for id in 0..16u64 {
            q.schedule(id, 10 + id);
        }
        for id in 0..4u64 {
            q.cancel(id);
        }
        q.schedule(5, 40); // move
        q.advance_to(60, &mut |_, _| {});
    };
    let ((), bare) = sim::scoped(|| {
        let mut q = Backend::Heap.build(Backend::Hierarchical, 64);
        drive(q.as_mut());
    });
    let ((), one) = sim::scoped(|| {
        let mut q = one_base(Backend::Heap);
        drive(q.as_mut());
    });
    for c in SimCounter::ALL {
        assert_eq!(
            bare.counter(c),
            one.counter(c),
            "counter {c:?} diverged between bare and sharded:1"
        );
    }
    for g in SimGauge::ALL {
        assert_eq!(
            bare.gauge(g),
            one.gauge(g),
            "gauge {g:?} diverged between bare and sharded:1"
        );
    }
}

/// Regression: the conservation identity the leak checks rely on —
/// schedules == cancels + expirations + still-pending — holds under
/// migration because a migration adds one to both sides.
#[test]
fn conservation_identity_holds_under_migration() {
    let ((), snap) = sim::scoped(|| {
        let mut q = sharded(4, Backend::Heap);
        for id in 0..64u64 {
            q.set_context_cpu(Some((id % 3) as u32));
            q.schedule(id, 50 + id);
        }
        for id in 0..64u64 {
            // Every timer re-armed from a rotated CPU: many migrations.
            q.set_context_cpu(Some(((id + 1) % 4) as u32));
            q.schedule(id, 200 + id);
        }
        for id in 0..16u64 {
            q.cancel(id);
        }
        q.advance_to(400, &mut |_, _| {});
        assert!(q.is_empty());
    });
    assert!(snap.counter(SimCounter::WheelBaseMigrations) > 0);
    assert_eq!(
        snap.counter(SimCounter::WheelSchedules),
        snap.counter(SimCounter::WheelCancels) + snap.counter(SimCounter::WheelExpirations),
    );
}

/// Regression: home-hash placement spreads ids across bases and the
/// wrapper's imbalance probe sees a bounded spread for a uniform id set.
#[test]
fn home_placement_balances_bases() {
    let mut q = ShardedQueue::new(8, &mut || Backend::Heap.build(Backend::Hierarchical, 64));
    for id in 0..4096u64 {
        q.schedule(id, 1000);
    }
    let used = (0..8).filter(|&b| q.base_len(b) > 0).count();
    assert_eq!(used, 8, "all bases must receive timers");
    // splitmix64 over a dense id range lands well within 2x of the mean.
    assert!(
        q.imbalance() < 4096 / 8,
        "imbalance {} too large for uniform ids",
        q.imbalance()
    );
}
