//! Per-timer lifecycle reconstruction over the analysis fold's one
//! table of per-timer state.
//!
//! A low-level trace is a flat stream of set/cancel/expire records; the
//! analysis needs *episodes*: this timer was armed at `t0` with value `v`
//! and ended at `t1` by expiring, being cancelled, or being re-armed
//! (§3), emitted as [`Sample`]s. The table is keyed by timer address:
//! Linux `timer_list` structs are static and reused, so the address
//! names the timer (§3.3). Each event probes it once, and the entry holds
//! the open episode, the instant of the timer's previous timed Set and,
//! when episodes cluster by address, the timer's pattern [`Classifier`].
//! Entries are never removed, so the table's length is the Timers row.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, OriginId, Pid, TimerAddr};

use crate::classify::Classifier;

/// How an episode ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// The timer reached its expiry and fired.
    Expired,
    /// The timer was cancelled (or its wait was satisfied).
    Canceled,
    /// The timer was re-armed before expiring (`mod_timer` on a pending
    /// timer — the watchdog deferral move).
    Reset,
}

/// One completed set→end episode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Interned provenance of the set.
    pub origin: OriginId,
    /// Owning process.
    pub pid: Pid,
    /// When the timer was armed.
    pub set_ts: SimInstant,
    /// When the episode ended (delivery-time for expiries, which is how
    /// late delivery pushes scatter points above 100 %).
    pub end_ts: SimInstant,
    /// The relative timeout requested at set time, if known.
    pub timeout: Option<SimDuration>,
    /// How it ended.
    pub outcome: Outcome,
}

impl Sample {
    /// Time the timer actually ran.
    pub fn ran(&self) -> SimDuration {
        self.end_ts.duration_since(self.set_ts)
    }

    /// `ran / timeout` as a percentage, if the timeout is known and
    /// non-zero.
    pub fn percent_of_set(&self) -> Option<f64> {
        let timeout = self.timeout?;
        if timeout.is_zero() {
            return None;
        }
        Some(100.0 * self.ran().as_secs_f64() / timeout.as_secs_f64())
    }
}

/// An open (armed, not yet ended) episode.
#[derive(Debug, Clone, Copy)]
struct Open {
    origin: OriginId,
    pid: Pid,
    set_ts: SimInstant,
    timeout: Option<SimDuration>,
}

/// One timer's entry in the table.
#[derive(Debug, Default)]
pub struct TimerSlot {
    /// The armed episode, if the timer is armed.
    open: Option<Open>,
    /// When the timer's previous timed Set was stamped. An episode's end
    /// leaves it, so a Set is compared with the one before it even
    /// across an expiry or a cancel.
    last_timed_set: Option<SimInstant>,
    /// The timer's pattern cluster under
    /// [`ClusterMode::ByAddress`](crate::ClusterMode::ByAddress); empty
    /// otherwise.
    pub(crate) cluster: Classifier,
}

/// The lifecycle reconstructor and owner of the per-timer table.
///
/// Degrades gracefully on incomplete traces: an end event (cancel or
/// expiry) whose matching `Set` was lost — a ring overflow ate it — is
/// counted as an *orphan* and otherwise ignored, so a lossy trace yields
/// fewer episodes, never fabricated or double-counted ones.
#[derive(Debug, Default)]
pub struct LifecycleTracker {
    timers: FoldMap<TimerAddr, TimerSlot>,
    /// Entries with an open episode.
    open_count: usize,
    /// Peak number of simultaneously armed timers (Table 1/2 concurrency).
    peak_concurrency: usize,
    /// End events whose opening `Set` was never seen.
    orphan_ends: u64,
    /// Timed Sets stamped at or before the same timer's previous timed
    /// Set.
    out_of_order_sets: u64,
}

impl LifecycleTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event; returns the completed episode, if this event
    /// closed one, and the event's timer slot.
    pub fn push(&mut self, event: &Event) -> (Option<Sample>, &mut TimerSlot) {
        let slot = self.timers.entry(event.timer).or_default();
        let sample = match event.kind {
            EventKind::Init => None,
            EventKind::Set => {
                if event.timeout.is_some() {
                    if slot.last_timed_set.is_some_and(|last| event.ts <= last) {
                        self.out_of_order_sets += 1;
                    }
                    slot.last_timed_set = Some(event.ts);
                }
                let prev = slot.open.replace(Open {
                    origin: event.origin,
                    pid: event.pid,
                    set_ts: event.ts,
                    timeout: event.timeout,
                });
                if prev.is_none() {
                    self.open_count += 1;
                    self.peak_concurrency = self.peak_concurrency.max(self.open_count);
                }
                prev.map(|o| close(o, event.ts, Outcome::Reset))
            }
            end => match slot.open.take() {
                Some(o) => {
                    self.open_count -= 1;
                    let outcome = if end.is_expire() {
                        Outcome::Expired
                    } else {
                        Outcome::Canceled
                    };
                    Some(close(o, event.ts, outcome))
                }
                None => {
                    self.orphan_ends += 1;
                    None
                }
            },
        };
        (sample, slot)
    }

    /// Peak concurrency seen so far.
    pub fn peak_concurrency(&self) -> usize {
        self.peak_concurrency
    }

    /// Number of still-open episodes (armed timers).
    pub fn open_count(&self) -> usize {
        self.open_count
    }

    /// Number of distinct timer addresses seen, by any event (the Timers
    /// row).
    pub fn timer_count(&self) -> usize {
        self.timers.len()
    }

    /// The pattern cluster of every timer that closed an episode, in no
    /// particular order.
    pub(crate) fn clusters(&self) -> impl Iterator<Item = &Classifier> {
        self.timers
            .values()
            .map(|slot| &slot.cluster)
            .filter(|cluster| !cluster.is_empty())
    }

    /// End events (cancel/expiry) that matched no open episode — evidence
    /// of lost `Set` records in an incomplete trace.
    pub fn orphan_ends(&self) -> u64 {
        self.orphan_ends
    }

    /// Timed Sets stamped at or before the previous timed Set on the same
    /// timer: evidence of a backwards or duplicated clock.
    pub fn out_of_order_sets(&self) -> u64 {
        self.out_of_order_sets
    }
}

fn close(open: Open, end_ts: SimInstant, outcome: Outcome) -> Sample {
    Sample {
        origin: open.origin,
        pid: open.pid,
        set_ts: open.set_ts,
        end_ts,
        timeout: open.timeout,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, addr: TimerAddr, ms: u64) -> Event {
        Event::new(
            SimInstant::BOOT + SimDuration::from_millis(ms),
            kind,
            addr,
            1,
        )
    }

    #[test]
    fn set_then_expire_is_one_episode() {
        let mut lt = LifecycleTracker::new();
        assert!(lt
            .push(&ev(EventKind::Set, 1, 0).with_timeout(SimDuration::from_millis(100)))
            .0
            .is_none());
        let s = lt.push(&ev(EventKind::Expire, 1, 104)).0.unwrap();
        assert_eq!(s.outcome, Outcome::Expired);
        assert_eq!(s.ran(), SimDuration::from_millis(104));
        assert!((s.percent_of_set().unwrap() - 104.0).abs() < 1e-9);
        assert_eq!(lt.open_count(), 0);
    }

    #[test]
    fn reset_closes_previous_episode() {
        let mut lt = LifecycleTracker::new();
        lt.push(&ev(EventKind::Set, 1, 0).with_timeout(SimDuration::from_millis(100)));
        let s = lt
            .push(&ev(EventKind::Set, 1, 30).with_timeout(SimDuration::from_millis(100)))
            .0
            .unwrap();
        assert_eq!(s.outcome, Outcome::Reset);
        assert_eq!(s.ran(), SimDuration::from_millis(30));
        assert_eq!(lt.open_count(), 1);
    }

    #[test]
    fn cancel_without_set_is_ignored() {
        let mut lt = LifecycleTracker::new();
        assert!(lt.push(&ev(EventKind::Cancel, 9, 5)).0.is_none());
        assert_eq!(lt.orphan_ends(), 1);
        assert_eq!(lt.timer_count(), 1);
    }

    #[test]
    fn orphans_count_lost_sets_without_fabricating_episodes() {
        let mut lt = LifecycleTracker::new();
        // Expire and WaitTimedOut with no Set: two orphans, no samples.
        assert!(lt.push(&ev(EventKind::Expire, 3, 1)).0.is_none());
        assert!(lt.push(&ev(EventKind::WaitTimedOut, 4, 2)).0.is_none());
        assert_eq!(lt.orphan_ends(), 2);
        // A real episode still reconstructs normally afterwards.
        lt.push(&ev(EventKind::Set, 3, 10));
        assert!(lt.push(&ev(EventKind::Expire, 3, 20)).0.is_some());
        assert_eq!(lt.orphan_ends(), 2);
        assert_eq!(lt.open_count(), 0);
    }

    #[test]
    fn concurrency_peaks() {
        let mut lt = LifecycleTracker::new();
        for addr in 0..10u64 {
            lt.push(&ev(EventKind::Set, addr, addr));
        }
        for addr in 0..5u64 {
            lt.push(&ev(EventKind::Expire, addr, 100 + addr));
        }
        lt.push(&ev(EventKind::Set, 50, 200));
        assert_eq!(lt.peak_concurrency(), 10);
        assert_eq!(lt.open_count(), 6);
    }

    fn timed_set(addr: TimerAddr, ms: u64, value_ms: u64) -> Event {
        ev(EventKind::Set, addr, ms).with_timeout(SimDuration::from_millis(value_ms))
    }

    #[test]
    fn out_of_order_sets_break_the_chain() {
        let mut lt = LifecycleTracker::new();
        // A reordered trace: the "later" set carries an earlier timestamp.
        lt.push(&timed_set(1, 1000, 500));
        lt.push(&timed_set(1, 400, 500)); // backwards
        assert_eq!(lt.out_of_order_sets(), 1);
    }

    #[test]
    fn duplicated_timestamps_break_the_chain() {
        let mut lt = LifecycleTracker::new();
        lt.push(&timed_set(1, 100, 500));
        lt.push(&timed_set(1, 100, 500)); // duplicate ts, same value
        lt.push(&timed_set(1, 100, 500));
        assert_eq!(lt.out_of_order_sets(), 2);
        // A Set stamped after the previous one is in order again.
        lt.push(&timed_set(1, 300, 300));
        assert_eq!(lt.out_of_order_sets(), 2);
    }

    #[test]
    fn wait_events_map_to_outcomes() {
        let mut lt = LifecycleTracker::new();
        lt.push(&ev(EventKind::Set, 1, 0));
        let s = lt.push(&ev(EventKind::WaitSatisfied, 1, 5)).0.unwrap();
        assert_eq!(s.outcome, Outcome::Canceled);
        lt.push(&ev(EventKind::Set, 1, 10));
        let s = lt.push(&ev(EventKind::WaitTimedOut, 1, 20)).0.unwrap();
        assert_eq!(s.outcome, Outcome::Expired);
    }
}
