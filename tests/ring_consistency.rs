//! relayfs-path consistency: a trace recorded into the binary ring
//! buffer, decoded, and re-analysed must agree exactly with the streaming
//! analysis — the two methodology paths of Section 3 see the same events.

use analysis::{AnalyzerConfig, TraceAnalyzer};
use simtime::{SimDuration, SimInstant};
use trace::codec::RECORD_SIZE;
use trace::{Event, RingBuffer, RingReader, RingSink, TraceSink};
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

/// Damage to a ring loses only the damaged records, and the loss
/// surfaces in the analysis summary's accounting (`decode_lost`): the
/// strict decoder refuses the ring, while a lossy pass keeps every
/// healthy record and counts each one it could not decode.
#[test]
fn partial_decode_losses_flow_into_summary_accounting() {
    const RECORDS: usize = 300;
    const SCRIBBLED: usize = 5;
    let sent: Vec<Event> = (0..RECORDS as u64)
        .map(|i| {
            Event::new(
                SimInstant::BOOT + SimDuration::from_millis(i * 10),
                if i % 2 == 0 {
                    trace::EventKind::Set
                } else {
                    trace::EventKind::Expire
                },
                i / 2 % 7,
                0,
            )
            .with_timeout(SimDuration::from_millis(10))
        })
        .collect();
    let mut sink = RingSink::new(RingBuffer::new(RECORDS * RECORD_SIZE));
    for event in &sent {
        sink.record(event);
    }
    let mut ring = sink.into_ring();
    // Scribble one record's kind byte and tear the last record in half.
    ring.overwrite(RECORD_SIZE * SCRIBBLED + 8, &[0xEE]);
    ring.truncate_bytes(ring.len_bytes() - RECORD_SIZE / 2);

    // The strict path refuses the whole ring…
    assert!(trace::reader::decode_all(&ring).is_err());

    // …the lossy pass keeps every healthy record and counts both losses:
    // the undecodable record and the torn tail.
    let mut survivors = Vec::new();
    let mut lost = u64::from(ring.has_partial_tail());
    for record in RingReader::new(&ring) {
        match record {
            Ok(event) => survivors.push(event),
            Err(_) => lost += 1,
        }
    }
    let healthy: Vec<Event> = sent
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != SCRIBBLED && i != RECORDS - 1)
        .map(|(_, event)| *event)
        .collect();
    assert_eq!(lost, 2);
    assert_eq!(survivors, healthy);

    let mut chunked = TraceAnalyzer::new(AnalyzerConfig::linux());
    for chunk in survivors.chunks(64) {
        chunked.push_chunk(chunk);
    }
    chunked.note_decode_lost(lost);
    let report = chunked.finish(&trace::StringTable::new());
    assert_eq!(report.summary.decode_lost, 2);
    assert_eq!(report.summary.accesses, 298);

    // Chunk boundaries carry no semantics: one chunk of every survivor
    // gives the same report.
    let mut whole = TraceAnalyzer::new(AnalyzerConfig::linux());
    whole.push_chunk(&survivors);
    whole.note_decode_lost(lost);
    let whole_report = whole.finish(&trace::StringTable::new());
    assert_eq!(
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&whole_report).unwrap(),
    );
}
