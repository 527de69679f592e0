//! Per-CPU ring buffers with timestamp-merged readout.
//!
//! relayfs and ETW both log into *per-CPU* buffers to avoid cross-CPU
//! synchronisation on the hot path, then merge by timestamp offline; the
//! paper's Vista instrumentation explicitly uses "per-CPU timing wheels"
//! and ETW's per-processor buffers. [`PerCpuRings`] reproduces that
//! shape: each (simulated) CPU owns a [`RingBuffer`] behind its own lock,
//! and [`PerCpuRings::merged`] performs the k-way merge a trace consumer
//! runs after the fact.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::codec::{self, DecodeError};
use crate::event::Event;
use crate::merge::{MergeStats, MergedReader};
use crate::ring::RingBuffer;

/// A set of per-CPU ring buffers.
#[derive(Debug, Clone)]
pub struct PerCpuRings {
    cpus: Arc<Vec<Mutex<RingBuffer>>>,
}

impl PerCpuRings {
    /// Creates `cpu_count` rings of `bytes_per_cpu` each.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_count` is zero or a ring is below one record.
    pub fn new(cpu_count: usize, bytes_per_cpu: usize) -> Self {
        assert!(cpu_count > 0, "need at least one CPU");
        PerCpuRings {
            cpus: Arc::new(
                (0..cpu_count)
                    .map(|_| Mutex::new(RingBuffer::new(bytes_per_cpu)))
                    .collect(),
            ),
        }
    }

    /// Number of CPUs.
    pub fn cpu_count(&self) -> usize {
        self.cpus.len()
    }

    /// Logs one event on `cpu`'s buffer. Returns `false` if that buffer
    /// is full (the event is dropped and counted, never overwriting).
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn log_on(&self, cpu: usize, event: &Event) -> bool {
        let mut buf = [0u8; codec::RECORD_SIZE];
        {
            let mut slice = &mut buf[..];
            codec::encode(event, &mut slice);
        }
        self.cpus[cpu].lock().push_record(&buf)
    }

    /// Total records stored across CPUs.
    pub fn record_count(&self) -> usize {
        self.cpus.iter().map(|c| c.lock().record_count()).sum()
    }

    /// Total records dropped across CPUs.
    pub fn dropped(&self) -> u64 {
        self.cpus.iter().map(|c| c.lock().dropped()).sum()
    }

    /// Mutable access to one CPU's ring, e.g. for corruption injection in
    /// robustness tests.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn with_ring_mut<R>(&self, cpu: usize, f: impl FnOnce(&mut RingBuffer) -> R) -> R {
        f(&mut self.cpus[cpu].lock())
    }

    /// A consistent snapshot of every ring. Cloning keeps any partial
    /// trailing bytes so damage stays detectable by the readers.
    fn snapshot(&self) -> Vec<RingBuffer> {
        self.cpus.iter().map(|c| c.lock().clone()).collect()
    }

    /// A streaming, loss-accounting k-way merge over a snapshot of the
    /// rings: events arrive in timestamp order (stable across CPUs at
    /// equal timestamps) with only `O(cpus)` decoded heads resident, and
    /// damaged records are skipped and counted in the reader's
    /// [`MergeStats`] instead of discarding healthy CPUs' data.
    pub fn stream(&self) -> MergedReader {
        MergedReader::new(self.snapshot())
    }

    /// Decodes and merges all per-CPU streams into one timestamp-ordered
    /// event list (stable across CPUs at equal timestamps: lower CPU
    /// index first, preserving each CPU's internal order).
    ///
    /// A ring ending in a partial record — a torn write observed by the
    /// consumer — fails with [`DecodeError::Truncated`] instead of being
    /// silently treated as complete.
    pub fn merged(&self) -> Result<Vec<Event>, DecodeError> {
        MergedReader::strict(self.snapshot()).collect()
    }

    /// Like [`PerCpuRings::merged`], but damage on one CPU's ring loses
    /// only the damaged records: everything decodable is returned, and
    /// the returned [`MergeStats`] accounts each loss so consumers can
    /// fold it into their lost-record rows.
    pub fn merged_lossy(&self) -> (Vec<Event>, MergeStats) {
        let mut reader = self.stream();
        let events: Vec<Event> = reader.by_ref().filter_map(Result::ok).collect();
        (events, reader.into_stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use simtime::SimInstant;

    fn ev(ts_ns: u64, timer: u64) -> Event {
        Event::new(SimInstant::from_nanos(ts_ns), EventKind::Set, timer, 0)
    }

    #[test]
    fn merge_orders_by_timestamp() {
        let rings = PerCpuRings::new(2, 1 << 16);
        rings.log_on(0, &ev(10, 1));
        rings.log_on(0, &ev(30, 2));
        rings.log_on(1, &ev(20, 3));
        rings.log_on(1, &ev(40, 4));
        let merged = rings.merged().unwrap();
        let order: Vec<u64> = merged.iter().map(|e| e.timer).collect();
        assert_eq!(order, vec![1, 3, 2, 4]);
    }

    #[test]
    fn equal_timestamps_keep_cpu_order() {
        let rings = PerCpuRings::new(3, 1 << 14);
        rings.log_on(2, &ev(5, 22));
        rings.log_on(0, &ev(5, 20));
        rings.log_on(1, &ev(5, 21));
        let merged = rings.merged().unwrap();
        let order: Vec<u64> = merged.iter().map(|e| e.timer).collect();
        assert_eq!(order, vec![20, 21, 22]);
    }

    #[test]
    fn per_cpu_drops_are_isolated() {
        let rings = PerCpuRings::new(2, codec::RECORD_SIZE);
        assert!(rings.log_on(0, &ev(1, 1)));
        assert!(!rings.log_on(0, &ev(2, 2))); // CPU 0 full.
        assert!(rings.log_on(1, &ev(3, 3))); // CPU 1 unaffected.
        assert_eq!(rings.dropped(), 1);
        assert_eq!(rings.record_count(), 2);
    }

    #[test]
    fn merged_reports_torn_tail_as_truncated() {
        let rings = PerCpuRings::new(2, 1 << 14);
        rings.log_on(0, &ev(10, 1));
        rings.log_on(1, &ev(20, 2));
        // Tear CPU 1's last record mid-write.
        rings.with_ring_mut(1, |r| r.truncate_bytes(codec::RECORD_SIZE / 3));
        assert_eq!(
            rings.merged(),
            Err(DecodeError::Truncated {
                available: codec::RECORD_SIZE / 3
            })
        );
    }

    #[test]
    fn merged_reports_scribbled_kind_as_bad_kind() {
        let rings = PerCpuRings::new(2, 1 << 14);
        rings.log_on(0, &ev(10, 1));
        rings.log_on(1, &ev(20, 2));
        // The kind byte sits after the 8-byte timestamp.
        rings.with_ring_mut(0, |r| r.overwrite(8, &[0xEE]));
        assert_eq!(rings.merged(), Err(DecodeError::BadKind(0xEE)));
    }

    #[test]
    fn lossy_merge_keeps_healthy_cpus_and_accounts_damage() {
        let rings = PerCpuRings::new(2, 1 << 14);
        rings.log_on(0, &ev(10, 1));
        rings.log_on(0, &ev(30, 2));
        rings.log_on(1, &ev(20, 3));
        // Scribble CPU 0's *first* record; its second must still decode,
        // as must everything on CPU 1.
        rings.with_ring_mut(0, |r| r.overwrite(8, &[0xEE]));
        assert!(rings.merged().is_err(), "strict path still refuses damage");
        let (events, stats) = rings.merged_lossy();
        let order: Vec<u64> = events.iter().map(|e| e.timer).collect();
        assert_eq!(order, vec![3, 2]);
        assert_eq!(stats.decoded, 2);
        assert_eq!(stats.lost_records, 1);
        assert_eq!(stats.errors, vec![(0, DecodeError::BadKind(0xEE))]);
    }

    #[test]
    fn lossy_merge_counts_torn_tail_without_discarding() {
        let rings = PerCpuRings::new(2, 1 << 14);
        rings.log_on(0, &ev(10, 1));
        rings.log_on(1, &ev(20, 2));
        rings.with_ring_mut(1, |r| r.truncate_bytes(codec::RECORD_SIZE / 3));
        let (events, stats) = rings.merged_lossy();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].timer, 1);
        assert_eq!(stats.lost_records, 1);
        assert!(!stats.is_complete());
    }

    #[test]
    fn stream_matches_merged_on_clean_rings() {
        let rings = PerCpuRings::new(3, 1 << 14);
        for i in 0..30u64 {
            rings.log_on((i % 3) as usize, &ev(1000 - i * 7, i));
        }
        let eager = rings.merged().unwrap();
        let streamed: Vec<Event> = rings.stream().map(|r| r.unwrap()).collect();
        assert_eq!(eager, streamed);
    }

    #[test]
    fn concurrent_writers_preserve_per_cpu_order() {
        let rings = PerCpuRings::new(4, 1 << 20);
        crossbeam::thread::scope(|scope| {
            for cpu in 0..4usize {
                let rings = rings.clone();
                scope.spawn(move |_| {
                    for i in 0..1_000u64 {
                        // Timestamps strictly increasing per CPU.
                        rings.log_on(cpu, &ev(i * 10 + cpu as u64, cpu as u64 * 10_000 + i));
                    }
                });
            }
        })
        .expect("threads join");
        assert_eq!(rings.record_count(), 4_000);
        let merged = rings.merged().unwrap();
        assert_eq!(merged.len(), 4_000);
        // Global order is by timestamp.
        assert!(merged.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Each CPU's own sequence is intact.
        for cpu in 0..4u64 {
            let ids: Vec<u64> = merged
                .iter()
                .filter(|e| e.timer / 10_000 == cpu)
                .map(|e| e.timer % 10_000)
                .collect();
            assert_eq!(ids, (0..1_000).collect::<Vec<_>>());
        }
    }
}
