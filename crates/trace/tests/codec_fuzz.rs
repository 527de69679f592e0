//! Decoder robustness: arbitrary bytes must decode to `Ok` or a clean
//! error, never panic, and valid records must survive bit-level identity.

use proptest::prelude::*;
use trace::codec::{self, DecodeError, RECORD_SIZE};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..3 * RECORD_SIZE)) {
        match codec::decode(&bytes) {
            Ok(event) => {
                // A structurally valid record: re-encoding reproduces the
                // same prefix byte-for-byte (the padding field is zeroed,
                // so only fuzz inputs with zero padding round-trip; check
                // semantic equality instead).
                let mut out = bytes::BytesMut::new();
                codec::encode(&event, &mut out);
                let back = codec::decode(&out).unwrap();
                prop_assert_eq!(event, back);
            }
            Err(DecodeError::Truncated { available }) => {
                prop_assert!(available < RECORD_SIZE);
            }
            Err(DecodeError::BadKind(k)) => {
                prop_assert!(k > 5);
            }
        }
    }

    #[test]
    fn truncation_is_detected_exactly(len in 0usize..RECORD_SIZE) {
        let bytes = vec![0u8; len];
        prop_assert_eq!(
            codec::decode(&bytes),
            Err(DecodeError::Truncated { available: len })
        );
    }
}

#[test]
fn ring_overflow_drops_newest_never_corrupts() {
    use simtime::SimInstant;
    use trace::{Event, EventKind, RingBuffer, RingSink, TraceSink};

    // A ring sized for 10 records receives 25: the first 10 survive
    // intact, 15 are counted as dropped (relayfs drop semantics).
    let mut sink = RingSink::new(RingBuffer::new(10 * RECORD_SIZE));
    for i in 0..25u64 {
        sink.record(&Event::new(SimInstant::from_nanos(i), EventKind::Set, i, 0));
    }
    let ring = sink.into_ring();
    assert_eq!(ring.record_count(), 10);
    assert_eq!(ring.dropped(), 15);
    let events = trace::reader::decode_all(&ring).unwrap();
    let ids: Vec<u64> = events.iter().map(|e| e.timer).collect();
    assert_eq!(ids, (0..10).collect::<Vec<_>>());
}

proptest! {
    /// The overflow/wrap path under arbitrary load: however many records
    /// hit a ring of whatever capacity, the stored prefix decodes intact,
    /// accounting is exact, and overflow never manufactures a torn tail.
    #[test]
    fn overflow_accounting_is_exact_for_any_load(
        capacity_records in 1usize..12,
        pushed in 0u64..40,
    ) {
        use simtime::SimInstant;
        use trace::{Event, EventKind, RingBuffer, RingSink, TraceSink};

        let mut sink = RingSink::new(RingBuffer::new(capacity_records * RECORD_SIZE));
        for i in 0..pushed {
            sink.record(&Event::new(SimInstant::from_nanos(i), EventKind::Set, i, 0));
        }
        let ring = sink.into_ring();
        let kept = (pushed as usize).min(capacity_records);
        prop_assert_eq!(ring.record_count(), kept);
        prop_assert_eq!(ring.dropped(), pushed - kept as u64);
        prop_assert!(!ring.has_partial_tail(), "overflow must not tear records");
        let events = trace::reader::decode_all(&ring).unwrap();
        let ids: Vec<u64> = events.iter().map(|e| e.timer).collect();
        prop_assert_eq!(ids, (0..kept as u64).collect::<Vec<_>>());
    }

    /// Seeded corruption of a full (overflowed) ring: truncating to a
    /// non-record boundary or scribbling on the kind byte yields a typed
    /// decode error, never a panic or silently wrong events.
    #[test]
    fn corrupted_overflowed_ring_fails_typed(
        cut in 1usize..RECORD_SIZE,
        victim in 0usize..8,
        bad_kind in 6u8..=255,
    ) {
        use simtime::SimInstant;
        use trace::{Event, EventKind, RingBuffer, RingSink, TraceSink};

        let mut sink = RingSink::new(RingBuffer::new(8 * RECORD_SIZE));
        for i in 0..20u64 {
            sink.record(&Event::new(SimInstant::from_nanos(i), EventKind::Set, i, 0));
        }

        // Torn tail: the last stored record loses `cut` bytes.
        let mut torn = sink.ring().clone();
        torn.truncate_bytes(torn.len_bytes() - cut);
        prop_assert!(torn.has_partial_tail());
        prop_assert_eq!(
            trace::reader::decode_all(&torn),
            Err(DecodeError::Truncated { available: RECORD_SIZE - cut })
        );

        // Scribbled kind byte (offset 8 of the 48-byte layout) inside an
        // arbitrary surviving record.
        let mut scribbled = sink.ring().clone();
        scribbled.overwrite(victim * RECORD_SIZE + 8, &[bad_kind]);
        prop_assert_eq!(
            trace::reader::decode_all(&scribbled),
            Err(DecodeError::BadKind(bad_kind))
        );
    }
}
