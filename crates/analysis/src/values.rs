//! Commonly-used timeout values (Section 4.2, Figures 3 / 5 / 6 / 7).
//!
//! The headline finding: most timers are set to fixed, round,
//! human-chosen values (0.5, 1, 5, 15 seconds…) rather than measured
//! ones. The histograms bucket set values at 0.1 ms resolution — fine
//! enough to separate Skype's deliberate 0.4999 s from 0.5 s, the
//! distinction the paper preserves — and report every value responsible
//! for at least 2 % of sets.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use simtime::SimDuration;
use trace::{Event, EventKind, Pid, Space};

/// Histogram bucket resolution: 0.1 ms.
const BUCKET_NS: u64 = 100_000;

/// The 0.1 ms bucket of a set value, rounded half-up. The one bucket
/// rule: the value histograms, provenance and Table 3 all key on it.
pub fn bucket(value: SimDuration) -> u64 {
    (value.as_nanos() + BUCKET_NS / 2) / BUCKET_NS
}

/// The value a bucket stands for, in seconds.
pub(crate) fn bucket_seconds(bucket: u64) -> f64 {
    (bucket * BUCKET_NS) as f64 / 1e9
}

/// One reported value row.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ValueRow {
    /// The timeout value in seconds.
    pub seconds: f64,
    /// The equivalent jiffy count at HZ = 250 (for the Linux figures).
    pub jiffies: u64,
    /// Number of sets with this value.
    pub count: u64,
    /// Percentage of all counted sets.
    pub percent: f64,
}

/// The value histograms of Figures 3/7, 5 and 6, fed by one pass that
/// buckets each Set once and tests it once against the X/icewm filter.
#[derive(Debug, Default)]
pub(crate) struct SetValues {
    /// Every set (Figures 3 and 7).
    pub(crate) all: ValueHistogram,
    /// Sets outside the excluded processes (Figure 5).
    pub(crate) filtered: ValueHistogram,
    /// User-space sets outside the excluded processes (Figure 6).
    pub(crate) user: ValueHistogram,
}

impl SetValues {
    /// Feeds one event (only `Set` events with a known value count);
    /// `exclude_pids` are the processes Figures 5 and 6 filter out.
    pub(crate) fn push(&mut self, event: &Event, exclude_pids: &[Pid]) {
        if event.kind != EventKind::Set {
            return;
        }
        let Some(timeout) = event.timeout else {
            return;
        };
        let bucket = bucket(timeout);
        self.all.count(bucket);
        if exclude_pids.contains(&event.pid) {
            return;
        }
        self.filtered.count(bucket);
        if event.space == Space::User {
            self.user.count(bucket);
        }
    }
}

/// A histogram of set values over 0.1 ms buckets.
#[derive(Debug, Default)]
pub(crate) struct ValueHistogram {
    counts: FoldMap<u64, u64>,
    total: u64,
}

impl ValueHistogram {
    /// Counts one set in `bucket`.
    fn count(&mut self, bucket: u64) {
        *self.counts.entry(bucket).or_insert(0) += 1;
        self.total += 1;
    }

    /// Rows for every value at or above `min_percent`, sorted by value.
    pub(crate) fn rows(&self, min_percent: f64) -> Vec<ValueRow> {
        if self.total == 0 {
            return Vec::new();
        }
        let mut rows: Vec<ValueRow> = self
            .counts
            .iter()
            .filter_map(|(&bucket, &count)| {
                let percent = 100.0 * count as f64 / self.total as f64;
                if percent < min_percent {
                    return None;
                }
                let seconds = bucket_seconds(bucket);
                Some(ValueRow {
                    seconds,
                    jiffies: (seconds * 250.0).round() as u64,
                    count,
                    percent,
                })
            })
            .collect();
        rows.sort_by(|a, b| a.seconds.partial_cmp(&b.seconds).expect("finite"));
        rows
    }

    /// Total percentage covered by the rows at or above `min_percent`
    /// (the paper quotes e.g. "97 % of the timeouts are shown").
    pub(crate) fn coverage(&self, min_percent: f64) -> f64 {
        self.rows(min_percent).iter().map(|r| r.percent).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimInstant;

    fn set_ev(pid: Pid, space: Space, secs: f64) -> Event {
        Event::new(SimInstant::BOOT, EventKind::Set, 1, 0)
            .with_timeout(SimDuration::from_secs_f64(secs))
            .with_task(pid, pid, space)
    }

    #[test]
    fn two_percent_rule() {
        let mut v = SetValues::default();
        for _ in 0..97 {
            v.push(&set_ev(1, Space::Kernel, 0.5), &[]);
        }
        for _ in 0..3 {
            v.push(&set_ev(1, Space::Kernel, 7.0), &[]);
        }
        v.push(&set_ev(1, Space::Kernel, 11.0), &[]); // 1/101 < 2 %.
        let rows = v.all.rows(2.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].seconds, 0.5);
        assert_eq!(rows[0].jiffies, 125);
        assert!(v.all.coverage(2.0) > 98.0);
    }

    #[test]
    fn distinguishes_4999_from_5000() {
        let mut v = SetValues::default();
        for _ in 0..10 {
            v.push(&set_ev(1, Space::User, 0.4999), &[]);
            v.push(&set_ev(1, Space::User, 0.5), &[]);
        }
        let rows = v.all.rows(2.0);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].seconds - 0.4999).abs() < 1e-9);
        assert!((rows[1].seconds - 0.5).abs() < 1e-9);
    }

    #[test]
    fn user_only_filter() {
        let mut v = SetValues::default();
        v.push(&set_ev(1, Space::Kernel, 1.0), &[]);
        v.push(&set_ev(1, Space::User, 2.0), &[]);
        assert_eq!(v.user.total, 1);
        assert_eq!(v.user.rows(0.0)[0].seconds, 2.0);
        assert_eq!(v.all.total, 2);
    }

    #[test]
    fn pid_exclusion_filter() {
        let mut v = SetValues::default();
        v.push(&set_ev(100, Space::User, 1.0), &[100]); // Xorg — filtered.
        v.push(&set_ev(200, Space::User, 2.0), &[100]);
        assert_eq!(v.filtered.total, 1);
        assert_eq!(v.user.total, 1);
        assert_eq!(v.all.total, 2);
    }

    #[test]
    fn non_set_events_ignored() {
        let mut v = SetValues::default();
        let mut e = set_ev(1, Space::User, 1.0);
        e.kind = EventKind::Cancel;
        v.push(&e, &[]);
        assert_eq!(v.all.total, 0);
    }

    #[test]
    fn buckets_round_half_up_and_back() {
        assert_eq!(bucket(SimDuration::from_nanos(49_999)), 0);
        assert_eq!(bucket(SimDuration::from_nanos(50_000)), 1);
        assert_eq!(bucket(SimDuration::from_millis(500)), 5_000);
        assert_eq!(bucket_seconds(4_999), 0.4999);
        // A row's seconds map back to its bucket.
        for b in [0, 1, 4_999, 5_000, 300_000] {
            assert_eq!(bucket(SimDuration::from_secs_f64(bucket_seconds(b))), b);
        }
    }
}
