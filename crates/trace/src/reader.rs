//! Decoding a filled ring buffer back into events.
//!
//! Mirrors the user-space program the authors used to read the relayfs
//! buffer after a run and convert it to a processable format.

use crate::codec::{self, DecodeError};
use crate::event::Event;
use crate::ring::RingBuffer;

/// An iterator over the decoded events of a ring buffer.
#[derive(Debug)]
pub struct RingReader<'a> {
    ring: &'a RingBuffer,
    next: usize,
}

impl<'a> RingReader<'a> {
    /// Creates a reader positioned at the first record.
    pub fn new(ring: &'a RingBuffer) -> Self {
        RingReader { ring, next: 0 }
    }

    /// Number of records remaining.
    pub fn remaining(&self) -> usize {
        self.ring.record_count().saturating_sub(self.next)
    }

    /// Decodes record `index` directly, without moving the cursor.
    pub fn get(&self, index: usize) -> Option<Result<Event, DecodeError>> {
        Some(codec::decode(self.ring.record(index)?))
    }
}

impl Iterator for RingReader<'_> {
    type Item = Result<Event, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        let item = self.get(self.next)?;
        self.next += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = self.remaining();
        (n, Some(n))
    }
}

impl ExactSizeIterator for RingReader<'_> {}

/// Decodes an entire ring into a vector, failing on the first bad record.
///
/// A partial trailing record (a torn or mid-write snapshot) is reported as
/// [`DecodeError::Truncated`] rather than silently ignored, so a consumer
/// can never mistake a damaged ring for a complete trace.
pub fn decode_all(ring: &RingBuffer) -> Result<Vec<Event>, DecodeError> {
    let events = RingReader::new(ring).collect::<Result<Vec<_>, _>>()?;
    if ring.has_partial_tail() {
        return Err(DecodeError::Truncated {
            available: ring.partial_tail_bytes(),
        });
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::RECORD_SIZE;
    use crate::event::{EventKind, Space};
    use crate::logger::{RingSink, TraceSink};
    use simtime::{SimDuration, SimInstant};

    #[test]
    fn events_round_trip_in_order() {
        let mut sink = RingSink::new(RingBuffer::new(RECORD_SIZE * 16));
        let mut sent = Vec::new();
        for i in 0..10u64 {
            let e = Event::new(SimInstant::from_nanos(i * 100), EventKind::Set, i, 0)
                .with_timeout(SimDuration::from_millis(i))
                .with_task(1, 1, Space::Kernel);
            sink.record(&e);
            sent.push(e);
        }
        let ring = sink.into_ring();
        let got = decode_all(&ring).unwrap();
        assert_eq!(got, sent);
    }

    #[test]
    fn reader_is_exact_size() {
        let mut sink = RingSink::new(RingBuffer::new(RECORD_SIZE * 4));
        for i in 0..3u64 {
            sink.record(&Event::new(SimInstant::BOOT, EventKind::Set, i, 0));
        }
        let ring = sink.into_ring();
        let mut reader = RingReader::new(&ring);
        assert_eq!(reader.len(), 3);
        reader.next();
        assert_eq!(reader.remaining(), 2);
    }
}
