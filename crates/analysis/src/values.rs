//! Commonly-used timeout values (Section 4.2, Figures 3 / 5 / 6 / 7).
//!
//! The headline finding: most timers are set to fixed, round,
//! human-chosen values (0.5, 1, 5, 15 seconds…) rather than measured
//! ones. The histograms bucket set values at 0.1 ms resolution — fine
//! enough to separate Skype's deliberate 0.4999 s from 0.5 s, the
//! distinction the paper preserves — and report every value responsible
//! for at least 2 % of sets.

use serde::{Deserialize, Serialize};
use simtime::fasthash::{FoldMap, FoldSet};
use trace::{Event, EventKind, Pid, Space};

/// Histogram bucket resolution: 0.1 ms.
const BUCKET_NS: u64 = 100_000;

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

/// A streaming value histogram with optional filters.
#[derive(Debug, Default)]
pub struct ValueHistogram {
    counts: FoldMap<u64, u64>,
    total: u64,
    /// Only count user-space sets (Figure 6).
    user_only: bool,
    /// Skip sets from these processes (the X/icewm filter of Figure 5).
    exclude_pids: FoldSet<Pid>,
}

impl ValueHistogram {
    /// Creates an unfiltered histogram (Figures 3 and 7).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a user-space-only histogram (Figure 6).
    pub fn user_only() -> Self {
        ValueHistogram {
            user_only: true,
            ..Self::default()
        }
    }

    /// Creates a histogram excluding the given processes (Figure 5).
    pub fn excluding(pids: impl IntoIterator<Item = Pid>) -> Self {
        ValueHistogram {
            exclude_pids: pids.into_iter().collect(),
            ..Self::default()
        }
    }

    /// User-space-only histogram that also excludes processes (Figure 6).
    pub fn user_only_excluding(pids: impl IntoIterator<Item = Pid>) -> Self {
        ValueHistogram {
            user_only: true,
            exclude_pids: pids.into_iter().collect(),
            ..Self::default()
        }
    }

    /// Feeds one event (only `Set` events with a known value count).
    pub fn push(&mut self, event: &Event) {
        if event.kind != EventKind::Set {
            return;
        }
        let Some(timeout) = event.timeout else {
            return;
        };
        if self.user_only && event.space != Space::User {
            return;
        }
        if !self.exclude_pids.is_empty() && self.exclude_pids.contains(&event.pid) {
            return;
        }
        let bucket = round_half_up(timeout.as_nanos(), BUCKET_NS);
        *self.counts.entry(bucket).or_insert(0) += 1;
        self.total += 1;
    }

    /// Total counted sets.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Rows for every value at or above `min_percent`, sorted by value.
    pub fn rows(&self, min_percent: f64) -> Vec<ValueRow> {
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
                let seconds = (bucket * BUCKET_NS) as f64 / 1e9;
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
    pub fn coverage(&self, min_percent: f64) -> f64 {
        self.rows(min_percent).iter().map(|r| r.percent).sum()
    }
}

/// Rounds `v` to the nearest multiple of `quantum` (half-up), returning
/// the multiple index.
fn round_half_up(v: u64, quantum: u64) -> u64 {
    (v + quantum / 2) / quantum
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimInstant};
    use trace::Event;

    fn set_ev(pid: Pid, space: Space, secs: f64) -> Event {
        Event::new(SimInstant::BOOT, EventKind::Set, 1, 0)
            .with_timeout(SimDuration::from_secs_f64(secs))
            .with_task(pid, pid, space)
    }

    #[test]
    fn two_percent_rule() {
        let mut h = ValueHistogram::new();
        for _ in 0..97 {
            h.push(&set_ev(1, Space::Kernel, 0.5));
        }
        for _ in 0..3 {
            h.push(&set_ev(1, Space::Kernel, 7.0));
        }
        h.push(&set_ev(1, Space::Kernel, 11.0)); // 1/101 < 2 %.
        let rows = h.rows(2.0);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].seconds, 0.5);
        assert_eq!(rows[0].jiffies, 125);
        assert!(h.coverage(2.0) > 98.0);
    }

    #[test]
    fn distinguishes_4999_from_5000() {
        let mut h = ValueHistogram::new();
        for _ in 0..10 {
            h.push(&set_ev(1, Space::User, 0.4999));
            h.push(&set_ev(1, Space::User, 0.5));
        }
        let rows = h.rows(2.0);
        assert_eq!(rows.len(), 2);
        assert!((rows[0].seconds - 0.4999).abs() < 1e-9);
        assert!((rows[1].seconds - 0.5).abs() < 1e-9);
    }

    #[test]
    fn user_only_filter() {
        let mut h = ValueHistogram::user_only();
        h.push(&set_ev(1, Space::Kernel, 1.0));
        h.push(&set_ev(1, Space::User, 2.0));
        assert_eq!(h.total(), 1);
        assert_eq!(h.rows(0.0)[0].seconds, 2.0);
    }

    #[test]
    fn pid_exclusion_filter() {
        let mut h = ValueHistogram::excluding([100]);
        h.push(&set_ev(100, Space::User, 1.0)); // Xorg — filtered.
        h.push(&set_ev(200, Space::User, 2.0));
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn non_set_events_ignored() {
        let mut h = ValueHistogram::new();
        let mut e = set_ev(1, Space::User, 1.0);
        e.kind = EventKind::Cancel;
        h.push(&e);
        assert_eq!(h.total(), 0);
    }
}
