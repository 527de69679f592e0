//! Trace summaries (Tables 1 and 2) and the timer-rate series (Figure 1).

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use trace::{Event, EventCounts, EventKind, Pid};

/// One workload's trace summary — one column of Table 1 / Table 2.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Total number of distinct timer data structures seen.
    pub timers: u64,
    /// Maximum number of outstanding timers at any time.
    pub concurrency: u64,
    /// Total accesses to the timer subsystem.
    pub accesses: u64,
    /// Accesses from user space.
    pub user_space: u64,
    /// Accesses from the kernel.
    pub kernel: u64,
    /// Set operations.
    pub set: u64,
    /// Expiries.
    pub expired: u64,
    /// Cancellations.
    pub canceled: u64,
    /// Records lost before reaching analysis (ring overflow / injected
    /// drops). Zero on a complete trace.
    pub dropped_records: u64,
    /// End events whose opening `Set` was lost — the lifecycle tracker's
    /// evidence of trace incompleteness. Zero on a complete trace.
    pub orphan_ends: u64,
    /// Records present in a ring but undecodable (scribbled records,
    /// torn tails) when read lossily, as
    /// [`TraceAnalyzer::note_decode_lost`](crate::TraceAnalyzer::note_decode_lost)
    /// reports them. Zero on a healthy trace.
    pub decode_lost: u64,
    /// Timed sets stamped at or before the previous timed set on the same
    /// timer (backwards/duplicated clock), as the per-timer table counts
    /// them. Zero on a monotonic trace.
    pub out_of_order_sets: u64,
    /// Re-sets stamped before the previous episode's recorded end —
    /// excluded from the periodic/delay vote. Zero on a monotonic trace.
    pub anomalous_rearms: u64,
}

impl TraceSummary {
    /// Builds from counters plus the lifecycle-derived fields.
    pub fn from_counts(counts: EventCounts, timers: u64, concurrency: u64) -> Self {
        TraceSummary {
            timers,
            concurrency,
            accesses: counts.accesses,
            user_space: counts.user_space,
            kernel: counts.kernel,
            set: counts.set,
            expired: counts.expired,
            canceled: counts.canceled,
            ..Self::default()
        }
    }
}

/// Timers-set-per-second, grouped (Figure 1's Outlook / Browser / System /
/// Kernel lines).
#[derive(Debug)]
pub struct RateSeries {
    /// Explicit pid → group assignments; unlisted user pids fall into
    /// `default_group`, pid 0 into `kernel_group`.
    groups: FoldMap<Pid, String>,
    default_group: String,
    kernel_group: String,
    /// Group names with at least one set, in first-seen order; `data` is
    /// indexed in parallel.
    names: Vec<String>,
    /// data[slot][second] = sets.
    data: Vec<Vec<u32>>,
    /// Memoised pid → slot. Resolving a pid's group costs a string clone
    /// the first time; every later set from that pid is one integer
    /// lookup — this fold sits on every event of the hot path.
    pid_slot: FoldMap<Pid, usize>,
}

impl RateSeries {
    /// Creates a series with the given explicit groupings.
    pub fn new(groups: FoldMap<Pid, String>) -> Self {
        RateSeries {
            groups,
            default_group: "System".to_owned(),
            kernel_group: "Kernel".to_owned(),
            names: Vec::new(),
            data: Vec::new(),
            pid_slot: FoldMap::default(),
        }
    }

    /// Feeds one event (sets only).
    pub fn push(&mut self, event: &Event) {
        if event.kind != EventKind::Set {
            return;
        }
        let pid = event.pid;
        let slot = match self.pid_slot.get(&pid) {
            Some(&slot) => slot,
            None => {
                let name: String = match self.groups.get(&pid) {
                    Some(g) => g.clone(),
                    None if pid == 0 => self.kernel_group.clone(),
                    None => self.default_group.clone(),
                };
                let slot = match self.names.iter().position(|n| *n == name) {
                    Some(slot) => slot,
                    None => {
                        self.names.push(name);
                        self.data.push(Vec::new());
                        self.names.len() - 1
                    }
                };
                self.pid_slot.insert(pid, slot);
                slot
            }
        };
        let sec = (event.ts.as_nanos() / 1_000_000_000) as usize;
        let series = &mut self.data[slot];
        if series.len() <= sec {
            series.resize(sec + 1, 0);
        }
        series[sec] += 1;
    }

    /// The per-second series for `group`.
    pub fn series(&self, group: &str) -> &[u32] {
        self.names
            .iter()
            .position(|n| n == group)
            .map(|slot| self.data[slot].as_slice())
            .unwrap_or(&[])
    }

    /// All group names present.
    pub fn group_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.names.iter().map(String::as_str).collect();
        names.sort();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimInstant};

    fn set_at(pid: Pid, sec: u64) -> Event {
        Event::new(
            SimInstant::BOOT + SimDuration::from_secs(sec),
            EventKind::Set,
            1,
            0,
        )
        .with_task(pid, pid, trace::Space::User)
    }

    #[test]
    fn groups_and_rates() {
        let mut groups = FoldMap::default();
        groups.insert(10, "Outlook".to_owned());
        let mut rs = RateSeries::new(groups);
        for sec in 0..10 {
            for _ in 0..70 {
                rs.push(&set_at(10, sec));
            }
            rs.push(&set_at(99, sec)); // Unlisted => System.
            rs.push(&set_at(0, sec)); // Kernel.
        }
        assert_eq!(rs.series("Outlook"), [70; 10]);
        assert_eq!(rs.series("System").len(), 10);
        assert_eq!(rs.series("Kernel"), [1; 10]);
        assert_eq!(rs.group_names(), vec!["Kernel", "Outlook", "System"]);
    }
}
