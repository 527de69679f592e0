//! Streaming k-way timestamp merge over per-CPU ring snapshots.
//!
//! [`crate::PerCpuRings::merged`] used to decode every ring into one big
//! sorted `Vec<Event>` before analysis could start, so readout memory
//! grew with trace length. [`MergedReader`] performs the same merge
//! incrementally: it owns a snapshot of each ring plus one decoded head
//! per CPU, and yields events in global timestamp order (stable across
//! CPUs at equal timestamps: lower CPU index first) while keeping only
//! `O(cpus)` decoded events resident. Consumers either iterate event by
//! event or pull bounded chunks via [`MergedReader::read_chunk`].
//!
//! Two damage policies, for the two kinds of consumer:
//!
//! * **strict** — the historical `merged()` contract: any partial tail or
//!   undecodable record fails the whole readout, so a consumer can never
//!   mistake a damaged ring for a complete trace;
//! * **lossy** — one CPU's decode error must not discard the other CPUs'
//!   (or even the same CPU's later) perfectly good records: the damaged
//!   record is skipped, counted, and remembered in [`MergeStats`], which
//!   analysis folds into its lost-record accounting.

use simtime::SimInstant;

use crate::codec::{self, DecodeError};
use crate::event::Event;
use crate::ring::RingBuffer;

/// Loss accounting for a lossy merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MergeStats {
    /// Events successfully decoded and yielded.
    pub decoded: u64,
    /// Records that could not be decoded (scribbled records and torn
    /// partial tails), each counted exactly once.
    pub lost_records: u64,
    /// Every individual loss, as `(cpu, error)` in discovery order.
    pub errors: Vec<(usize, DecodeError)>,
}

impl MergeStats {
    /// `true` when every record decoded cleanly.
    pub fn is_complete(&self) -> bool {
        self.lost_records == 0
    }
}

/// An incremental k-way merge over owned ring snapshots.
#[derive(Debug)]
pub struct MergedReader {
    rings: Vec<RingBuffer>,
    /// Next undecoded record index per ring.
    cursors: Vec<usize>,
    /// Decoded head per ring; `None` once a ring is exhausted.
    heads: Vec<Option<Event>>,
    /// Strict mode: fail on the first damage instead of accounting it.
    strict: bool,
    /// The error a strict reader must yield on its next pull.
    pending_error: Option<DecodeError>,
    /// Set after a strict reader has yielded its error.
    poisoned: bool,
    stats: MergeStats,
}

impl MergedReader {
    /// Creates a lossy streaming merge over ring snapshots: damaged
    /// records are skipped and accounted in [`MergedReader::stats`].
    pub fn new(rings: Vec<RingBuffer>) -> Self {
        Self::with_mode(rings, false)
    }

    /// Creates a strict merge: the iterator yields `Err` (once) on the
    /// first partial tail or undecodable record, exactly like the
    /// historical eager `merged()`.
    pub fn strict(rings: Vec<RingBuffer>) -> Self {
        Self::with_mode(rings, true)
    }

    fn with_mode(rings: Vec<RingBuffer>, strict: bool) -> Self {
        let n = rings.len();
        let mut reader = MergedReader {
            rings,
            cursors: vec![0; n],
            heads: vec![None; n],
            strict,
            pending_error: None,
            poisoned: false,
            stats: MergeStats::default(),
        };
        if strict {
            // The historical contract checks every tail before any merge
            // work, so a torn CPU 1 wins over a scribbled CPU 0 head.
            for ring in &reader.rings {
                if ring.has_partial_tail() {
                    reader.pending_error = Some(DecodeError::Truncated {
                        available: ring.partial_tail_bytes(),
                    });
                    break;
                }
            }
        }
        for cpu in 0..n {
            reader.fill_head(cpu);
        }
        reader
    }

    /// Advances `cpu`'s cursor until a decodable record becomes its head
    /// (or the ring is exhausted). Lossy mode accounts damage; strict
    /// mode records the first error for the next pull.
    fn fill_head(&mut self, cpu: usize) {
        self.heads[cpu] = None;
        while let Some(bytes) = self.rings[cpu].record(self.cursors[cpu]) {
            self.cursors[cpu] += 1;
            match codec::decode(bytes) {
                Ok(event) => {
                    self.heads[cpu] = Some(event);
                    return;
                }
                Err(err) => {
                    if self.strict {
                        if self.pending_error.is_none() {
                            self.pending_error = Some(err);
                        }
                        return;
                    }
                    self.stats.lost_records += 1;
                    self.stats.errors.push((cpu, err));
                }
            }
        }
        // Ring exhausted; a torn partial tail is one more lost record.
        // (This runs exactly once per ring: an exhausted head is never
        // refilled, so the tail cannot be double-counted.)
        if !self.strict && self.rings[cpu].has_partial_tail() {
            self.stats.lost_records += 1;
            self.stats.errors.push((
                cpu,
                DecodeError::Truncated {
                    available: self.rings[cpu].partial_tail_bytes(),
                },
            ));
        }
    }

    /// Loss accounting so far (grows as the merge progresses; final once
    /// the iterator is exhausted).
    pub fn stats(&self) -> &MergeStats {
        &self.stats
    }

    /// Consumes the reader, returning its final accounting.
    pub fn into_stats(self) -> MergeStats {
        self.stats
    }

    /// Decoded heads currently resident (at most one per CPU) — the
    /// readout side's whole merge-state footprint.
    pub fn resident_events(&self) -> usize {
        self.heads.iter().filter(|h| h.is_some()).count()
    }

    /// The CPU whose head merges next (smallest timestamp; ties go to the
    /// lowest CPU index, preserving each CPU's internal order).
    fn best_cpu(&self) -> Option<usize> {
        let mut best: Option<(usize, SimInstant)> = None;
        for (cpu, head) in self.heads.iter().enumerate() {
            if let Some(head) = head {
                if best.is_none_or(|(_, b)| head.ts < b) {
                    best = Some((cpu, head.ts));
                }
            }
        }
        best.map(|(cpu, _)| cpu)
    }

    /// Clears `buf` and refills it with up to `max` merged events.
    /// Returns the number decoded; `0` means the merge is exhausted.
    /// Damage is folded into [`MergedReader::stats`] (lossy readers) or
    /// ends the stream (strict readers).
    pub fn read_chunk(&mut self, buf: &mut Vec<Event>, max: usize) -> usize {
        buf.clear();
        while buf.len() < max {
            match self.next() {
                Some(Ok(event)) => buf.push(event),
                Some(Err(_)) | None => break,
            }
        }
        buf.len()
    }
}

impl Iterator for MergedReader {
    type Item = Result<Event, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        if let Some(err) = self.pending_error.take() {
            self.poisoned = true;
            return Some(Err(err));
        }
        let cpu = self.best_cpu()?;
        let event = self.heads[cpu].take().expect("selected head present");
        self.stats.decoded += 1;
        self.fill_head(cpu);
        Some(Ok(event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::logger::{RingSink, TraceSink};

    fn ev(ts_ns: u64, timer: u64) -> Event {
        Event::new(SimInstant::from_nanos(ts_ns), EventKind::Set, timer, 0)
    }

    fn ring_with(events: &[Event]) -> RingBuffer {
        let mut sink = RingSink::new(RingBuffer::new(codec::RECORD_SIZE * (events.len().max(1))));
        for e in events {
            sink.record(e);
        }
        sink.into_ring()
    }

    #[test]
    fn merges_in_timestamp_order_with_bounded_residency() {
        let rings = vec![
            ring_with(&[ev(10, 1), ev(30, 2)]),
            ring_with(&[ev(20, 3), ev(40, 4)]),
        ];
        let mut reader = MergedReader::new(rings);
        assert!(reader.resident_events() <= 2);
        let order: Vec<u64> = reader.by_ref().map(|r| r.unwrap().timer).collect();
        assert_eq!(order, vec![1, 3, 2, 4]);
        assert_eq!(reader.stats().decoded, 4);
        assert!(reader.stats().is_complete());
    }

    #[test]
    fn read_chunk_is_bounded_and_exhaustive() {
        let rings = vec![
            ring_with(&[ev(1, 1), ev(3, 3), ev(5, 5)]),
            ring_with(&[ev(2, 2), ev(4, 4)]),
        ];
        let mut reader = MergedReader::new(rings);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        loop {
            let n = reader.read_chunk(&mut buf, 2);
            assert!(n <= 2);
            if n == 0 {
                break;
            }
            seen.extend(buf.iter().map(|e| e.timer));
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn lossy_skips_damage_and_keeps_every_good_record() {
        let mut bad = ring_with(&[ev(10, 1), ev(20, 2), ev(30, 3)]);
        // Scribble the middle record's kind byte (after its 8-byte ts).
        bad.overwrite(codec::RECORD_SIZE + 8, &[0xEE]);
        let good = ring_with(&[ev(15, 4)]);
        let mut reader = MergedReader::new(vec![bad, good]);
        let order: Vec<u64> = reader.by_ref().map(|r| r.unwrap().timer).collect();
        assert_eq!(order, vec![1, 4, 3]);
        let stats = reader.into_stats();
        assert_eq!(stats.lost_records, 1);
        assert_eq!(stats.errors, vec![(0, DecodeError::BadKind(0xEE))]);
    }

    #[test]
    fn lossy_counts_a_torn_tail_once() {
        let mut torn = ring_with(&[ev(10, 1), ev(20, 2)]);
        torn.truncate_bytes(codec::RECORD_SIZE + codec::RECORD_SIZE / 2);
        let mut reader = MergedReader::new(vec![torn, ring_with(&[ev(5, 9)])]);
        let order: Vec<u64> = reader.by_ref().map(|r| r.unwrap().timer).collect();
        assert_eq!(order, vec![9, 1]);
        let stats = reader.into_stats();
        assert_eq!(stats.lost_records, 1);
        assert_eq!(
            stats.errors,
            vec![(
                0,
                DecodeError::Truncated {
                    available: codec::RECORD_SIZE / 2
                }
            )]
        );
    }

    #[test]
    fn strict_fails_on_first_damage_then_ends() {
        let mut bad = ring_with(&[ev(10, 1)]);
        bad.overwrite(8, &[0xEE]);
        let mut reader = MergedReader::strict(vec![bad, ring_with(&[ev(1, 2)])]);
        assert_eq!(reader.next(), Some(Err(DecodeError::BadKind(0xEE))));
        assert_eq!(reader.next(), None);
    }
}
