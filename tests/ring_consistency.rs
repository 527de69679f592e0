//! relayfs-path consistency: a trace recorded into the binary ring
//! buffer, decoded, and re-analysed must agree exactly with the streaming
//! analysis — the two methodology paths of Section 3 see the same events.

use analysis::{AnalyzerConfig, TraceAnalyzer};
use simtime::{SimDuration, SimInstant};
use trace::{Event, PerCpuRings, RingBuffer, RingReader, RingSink, TraceSink};
use workloads::{run_linux, Workload};

/// A sink that both streams into an analyzer and records into a ring.
struct TeeSink {
    analyzer: TraceAnalyzer,
    ring: RingSink,
}

impl TraceSink for TeeSink {
    fn record(&mut self, event: &Event) {
        self.analyzer.push(event);
        self.ring.record(event);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[test]
fn ring_decode_matches_streaming_analysis() {
    let cfg = AnalyzerConfig::linux();
    let tee = TeeSink {
        analyzer: TraceAnalyzer::new(cfg.clone()),
        ring: RingSink::new(RingBuffer::new(128 * 1024 * 1024)),
    };
    let mut kernel = run_linux(
        Workload::Skype,
        17,
        SimDuration::from_secs(60),
        Box::new(tee),
    );
    let strings = kernel.log().strings().clone();
    let counts = kernel.log().counts();
    let tee = kernel
        .log_mut()
        .sink_mut()
        .as_any_mut()
        .unwrap()
        .downcast_mut::<TeeSink>()
        .map(|t| {
            let analyzer = std::mem::replace(&mut t.analyzer, TraceAnalyzer::new(cfg.clone()));
            let ring = std::mem::replace(
                &mut t.ring,
                RingSink::new(RingBuffer::new(trace::codec::RECORD_SIZE)),
            );
            (analyzer, ring)
        })
        .expect("tee sink");
    let (streaming, ring_sink) = tee;
    let ring = ring_sink.into_ring();

    // Nothing was dropped: the buffer was sized for the trace, like the
    // paper's 512 MiB relayfs buffer.
    assert_eq!(ring.dropped(), 0);
    assert_eq!(ring.record_count() as u64, counts.accesses);

    // Re-analyse from the decoded binary records.
    let mut replay = TraceAnalyzer::new(cfg);
    for event in RingReader::new(&ring) {
        replay.push(&event.expect("record decodes"));
    }
    let a = streaming.finish(&strings);
    let b = replay.finish(&strings);
    assert_eq!(
        serde_json::to_string(&a).unwrap(),
        serde_json::to_string(&b).unwrap(),
        "ring-decoded analysis must equal streaming analysis"
    );
}

#[test]
fn ring_records_are_fixed_size() {
    let ring = RingBuffer::new(1024 * 1024);
    assert_eq!(ring.capacity_bytes() % trace::codec::RECORD_SIZE, 0);
}

/// Satellite of the merged() error-path audit: damage on one CPU's ring
/// must lose only the damaged records, and the loss must surface in the
/// analysis summary's accounting (`decode_lost`), not silently discard
/// healthy CPUs' events.
#[test]
fn partial_decode_losses_flow_into_summary_accounting() {
    let rings = PerCpuRings::new(3, 64 * 1024);
    for i in 0..300u64 {
        let e = Event::new(
            SimInstant::BOOT + SimDuration::from_millis(i * 10),
            if i % 2 == 0 {
                trace::EventKind::Set
            } else {
                trace::EventKind::Expire
            },
            i / 2 % 7,
            0,
        )
        .with_timeout(SimDuration::from_millis(10));
        rings.log_on((i % 3) as usize, &e);
    }
    // Scribble a record on CPU 0 and tear CPU 2's tail.
    rings.with_ring_mut(0, |r| {
        r.overwrite(trace::codec::RECORD_SIZE * 5 + 8, &[0xEE])
    });
    rings.with_ring_mut(2, |r| {
        let keep = r.record_count() * trace::codec::RECORD_SIZE - trace::codec::RECORD_SIZE / 2;
        r.truncate_bytes(keep);
    });
    // The strict path refuses the whole readout…
    assert!(rings.merged().is_err());

    // …the lossy streaming path keeps every healthy record and accounts
    // both losses, which the analyzer folds into its summary.
    let mut analyzer = TraceAnalyzer::new(AnalyzerConfig::linux());
    let mut reader = rings.stream();
    let mut buf = Vec::new();
    let mut decoded = 0u64;
    while reader.read_chunk(&mut buf, 64) > 0 {
        decoded += buf.len() as u64;
        analyzer.push_chunk(&buf);
    }
    let stats = reader.into_stats();
    assert_eq!(stats.lost_records, 2);
    assert_eq!(decoded, 300 - 2);
    analyzer.note_decode_lost(stats.lost_records);
    let report = analyzer.finish(&trace::StringTable::new());
    assert_eq!(report.summary.decode_lost, 2);
    assert_eq!(report.summary.accesses, decoded);

    // The surviving analysis equals analysing the surviving events
    // directly — no healthy record was dropped or reordered.
    let (survivors, stats2) = rings.merged_lossy();
    assert_eq!(stats2, stats);
    let mut direct = TraceAnalyzer::new(AnalyzerConfig::linux());
    direct.push_chunk(&survivors);
    direct.note_decode_lost(stats2.lost_records);
    let direct_report = direct.finish(&trace::StringTable::new());
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&direct_report).unwrap(),
    );
}
