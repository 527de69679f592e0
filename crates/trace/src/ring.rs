//! A non-overwriting byte ring buffer with relayfs drop semantics.
//!
//! The authors sized their 512 MiB relayfs buffer so every trace fit; the
//! infrastructure guarantees ordering and that "new events cannot overwrite
//! old logs". We mirror that contract: when the buffer is full, *new*
//! records are dropped and counted, and previously written data is never
//! clobbered. Analysis code checks the drop counter to know whether a
//! trace is complete.

use crate::codec::RECORD_SIZE;
use telemetry::{sim, SimCounter, SimGauge};

/// A bounded append-only record buffer.
#[derive(Debug, Clone)]
pub struct RingBuffer {
    data: Vec<u8>,
    capacity: usize,
    /// Records dropped because the buffer was full.
    dropped: u64,
}

impl RingBuffer {
    /// Creates a buffer holding up to `capacity_bytes` (rounded down to a
    /// whole number of records).
    ///
    /// # Panics
    ///
    /// Panics if `capacity_bytes` holds less than one record.
    pub fn new(capacity_bytes: usize) -> Self {
        let capacity = (capacity_bytes / RECORD_SIZE) * RECORD_SIZE;
        assert!(
            capacity >= RECORD_SIZE,
            "capacity {capacity_bytes} below one record ({RECORD_SIZE})"
        );
        RingBuffer {
            data: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends one encoded record. Returns `false` (and counts a drop) if
    /// the buffer is full.
    ///
    /// # Panics
    ///
    /// Panics if `record` is not exactly [`RECORD_SIZE`] bytes.
    pub fn push_record(&mut self, record: &[u8]) -> bool {
        assert_eq!(record.len(), RECORD_SIZE, "record must be fixed size");
        if self.data.len() + RECORD_SIZE > self.capacity {
            self.dropped += 1;
            sim::add(SimCounter::TraceRingDrops, 1);
            return false;
        }
        self.data.extend_from_slice(record);
        sim::add(SimCounter::TraceRingBytes, RECORD_SIZE as u64);
        sim::gauge_max(SimGauge::RingBytesHigh, self.data.len() as u64);
        true
    }

    /// Number of complete records stored.
    pub fn record_count(&self) -> usize {
        self.data.len() / RECORD_SIZE
    }

    /// Number of records dropped because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Bytes currently stored.
    pub fn len_bytes(&self) -> usize {
        self.data.len()
    }

    /// Maximum bytes storable.
    pub fn capacity_bytes(&self) -> usize {
        self.capacity
    }

    /// Returns `true` if no records are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw access to the stored bytes, in write order.
    pub fn bytes(&self) -> &[u8] {
        &self.data
    }

    /// Returns record `index` as a byte slice, if present.
    pub fn record(&self, index: usize) -> Option<&[u8]> {
        let start = index.checked_mul(RECORD_SIZE)?;
        let end = start + RECORD_SIZE;
        self.data.get(start..end)
    }

    /// `true` when the buffer ends in a partial record (a crashed or
    /// torn writer left fewer than [`RECORD_SIZE`] trailing bytes).
    pub fn has_partial_tail(&self) -> bool {
        !self.data.len().is_multiple_of(RECORD_SIZE)
    }

    /// Bytes in the partial trailing record (zero when whole).
    pub fn partial_tail_bytes(&self) -> usize {
        self.data.len() % RECORD_SIZE
    }

    /// Corruption injection: overwrites stored bytes starting at `offset`.
    ///
    /// Models a torn write or a buggy consumer scribbling on the mapped
    /// buffer; readers must detect the damage, not trust it.
    ///
    /// # Panics
    ///
    /// Panics if `offset + bytes.len()` exceeds the stored length.
    pub fn overwrite(&mut self, offset: usize, bytes: &[u8]) {
        let end = offset + bytes.len();
        assert!(end <= self.data.len(), "overwrite past stored data");
        self.data[offset..end].copy_from_slice(bytes);
    }

    /// Corruption injection: truncates the stored bytes to `len`,
    /// possibly leaving a partial trailing record.
    ///
    /// Models a reader that snapshots the buffer mid-write (the relayfs
    /// consumer can observe a torn final record).
    pub fn truncate_bytes(&mut self, len: usize) {
        self.data.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_count() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 3);
        let rec = [7u8; RECORD_SIZE];
        assert!(ring.push_record(&rec));
        assert!(ring.push_record(&rec));
        assert!(ring.push_record(&rec));
        assert_eq!(ring.record_count(), 3);
        // Full: drop, never overwrite.
        assert!(!ring.push_record(&rec));
        assert_eq!(ring.record_count(), 3);
        assert_eq!(ring.dropped(), 1);
    }

    #[test]
    fn capacity_rounds_to_records() {
        let ring = RingBuffer::new(RECORD_SIZE * 2 + 10);
        assert_eq!(ring.capacity_bytes(), RECORD_SIZE * 2);
    }

    #[test]
    fn record_indexing() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        let a = [1u8; RECORD_SIZE];
        let b = [2u8; RECORD_SIZE];
        ring.push_record(&a);
        ring.push_record(&b);
        assert_eq!(ring.record(0).unwrap()[0], 1);
        assert_eq!(ring.record(1).unwrap()[0], 2);
        assert!(ring.record(2).is_none());
    }

    #[test]
    #[should_panic(expected = "below one record")]
    fn too_small_panics() {
        RingBuffer::new(RECORD_SIZE - 1);
    }

    #[test]
    fn clone_preserves_partial_tail() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        ring.push_record(&[3u8; RECORD_SIZE]);
        ring.truncate_bytes(RECORD_SIZE / 2);
        assert!(ring.has_partial_tail());
        let copy = ring.clone();
        assert_eq!(copy.partial_tail_bytes(), RECORD_SIZE / 2);
        assert_eq!(copy.bytes(), ring.bytes());
    }

    #[test]
    fn clone_copies_the_drop_count_and_then_counts_alone() {
        let rec = [5u8; RECORD_SIZE];
        let mut ring = RingBuffer::new(RECORD_SIZE);
        ring.push_record(&rec);
        assert!(!ring.push_record(&rec));
        assert!(!ring.push_record(&rec));
        let mut copy = ring.clone();
        assert_eq!(copy.dropped(), 2);
        assert!(!copy.push_record(&rec));
        assert_eq!((ring.dropped(), copy.dropped()), (2, 3));
        assert!(!ring.push_record(&rec));
        assert!(!ring.push_record(&rec));
        assert_eq!((ring.dropped(), copy.dropped()), (4, 3));
    }

    #[test]
    fn overwrite_changes_stored_bytes() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        ring.push_record(&[0u8; RECORD_SIZE]);
        ring.overwrite(8, &[0xFF]);
        assert_eq!(ring.record(0).unwrap()[8], 0xFF);
    }

    #[test]
    #[should_panic(expected = "overwrite past stored data")]
    fn overwrite_past_end_panics() {
        let mut ring = RingBuffer::new(RECORD_SIZE * 2);
        ring.push_record(&[0u8; RECORD_SIZE]);
        ring.overwrite(RECORD_SIZE, &[1]);
    }
}
