//! The streaming analysis fold: one case folds a resident trace in
//! bounded chunks, the other drives the chunked k-way merge reader
//! straight off per-CPU rings, covering the decode side of the pipeline.

use analysis::{AnalyzerConfig, TraceAnalyzer};
use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use simtime::{SimDuration, SimInstant, SimRng};
use trace::{Event, EventKind, PerCpuRings, Space};

const CHUNK: usize = 4096;

fn synthetic_events(n: usize) -> Vec<Event> {
    let mut rng = SimRng::new(1);
    let mut events = Vec::with_capacity(2 * n);
    let mut now = 0u64;
    for i in 0..n {
        now += rng.range_u64(100_000, 5_000_000);
        let addr = 0xC100_0000 + (i as u64 % 96) * 0x40;
        let timeout = [4u64, 8, 12, 40, 204, 500, 1_000, 5_000][i % 8];
        events.push(
            Event::new(
                SimInstant::from_nanos(now),
                EventKind::Set,
                addr,
                (i % 24) as u32,
            )
            .with_timeout(SimDuration::from_millis(timeout))
            .with_expires(SimInstant::from_nanos(now + timeout * 1_000_000))
            .with_task(100, 100, Space::User),
        );
        let end_kind = if i % 3 == 0 {
            EventKind::Expire
        } else {
            EventKind::Cancel
        };
        events.push(Event::new(
            SimInstant::from_nanos(now + timeout * 500_000),
            end_kind,
            addr,
            (i % 24) as u32,
        ));
    }
    events
}

fn bench_streaming(c: &mut Criterion) {
    let events = synthetic_events(50_000);
    // Rings sized to hold everything: the bench measures merge+analysis
    // cost, not drop handling.
    let rings = PerCpuRings::new(4, 4 << 20);
    for (i, e) in events.iter().enumerate() {
        rings.log_on(i % 4, e);
    }
    let mut group = c.benchmark_group("analysis_streaming");
    group.throughput(Throughput::Elements(events.len() as u64));
    group.bench_function("streaming_chunked_4096", |b| {
        b.iter(|| {
            let mut a = TraceAnalyzer::new(AnalyzerConfig::linux());
            for chunk in events.chunks(CHUNK) {
                a.push_chunk(chunk);
            }
            black_box(a.counts().accesses)
        })
    });
    group.bench_function("ring_merge_chunked_4096", |b| {
        b.iter(|| {
            let mut a = TraceAnalyzer::new(AnalyzerConfig::linux());
            let mut reader = rings.stream();
            let mut buf = Vec::with_capacity(CHUNK);
            while reader.read_chunk(&mut buf, CHUNK) > 0 {
                a.push_chunk(&buf);
            }
            black_box(a.counts().accesses)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_streaming);
criterion_main!(benches);
