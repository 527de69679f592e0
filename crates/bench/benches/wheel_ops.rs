//! Timer-queue data-structure benchmarks (Varghese & Lauck comparison).
//!
//! Compares the Linux cascading hierarchical wheel, the hashed wheel and
//! the sorted-list baseline on the operation mix the paper's traces
//! exhibit: schedule-heavy with many cancellations.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simtime::SimRng;
use wheel::{HashedWheel, HierarchicalWheel, SortedList, TimerQueue};

fn mixed_ops(queue: &mut dyn TimerQueue, n: u64, rng: &mut SimRng) -> u64 {
    let mut fired = 0u64;
    let mut now = 0u64;
    for i in 0..n {
        let delta = 1 + rng.range_u64(0, 5_000);
        queue.schedule(i % 512, now + delta);
        if rng.chance(0.6) {
            // The paper's Linux traces cancel more than they expire.
            queue.cancel(rng.range_u64(0, 512));
        }
        if i % 16 == 0 {
            now += 40;
            queue.advance_to(now, &mut |_, _| fired += 1);
        }
    }
    fired
}

fn bench_wheels(c: &mut Criterion) {
    let mut group = c.benchmark_group("timer_queue_mixed_ops");
    for n in [10_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("hierarchical", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = HierarchicalWheel::new();
                mixed_ops(&mut q, n, &mut SimRng::new(1))
            })
        });
        group.bench_with_input(BenchmarkId::new("hashed", n), &n, |b, &n| {
            b.iter(|| {
                let mut q = HashedWheel::new(256);
                mixed_ops(&mut q, n, &mut SimRng::new(1))
            })
        });
        // The O(n)-insert baseline only at the small size.
        if n <= 10_000 {
            group.bench_with_input(BenchmarkId::new("sorted_list", n), &n, |b, &n| {
                b.iter(|| {
                    let mut q = SortedList::new();
                    mixed_ops(&mut q, n, &mut SimRng::new(1))
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_wheels);
criterion_main!(benches);
