//! Per-timer lifecycle reconstruction.
//!
//! A low-level trace is a flat stream of set/cancel/expire records; the
//! analysis needs *episodes*: this timer was armed at `t0` with value `v`
//! and ended at `t1` by expiring, being cancelled, or being re-armed
//! (§3). Open episodes are keyed by timer address; completed episodes are
//! emitted as [`Sample`]s and the address entry is dropped, so the map
//! size is bounded by timer concurrency (≤ 84 in the paper's traces) even
//! on Vista where addresses are allocated dynamically.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{Event, EventKind, OriginId, Pid, Space, Tid, TimerAddr};

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
    /// Timer address.
    pub addr: TimerAddr,
    /// Interned provenance of the set.
    pub origin: OriginId,
    /// Owning process and thread.
    pub pid: Pid,
    /// Owning thread.
    pub tid: Tid,
    /// User or kernel set.
    pub space: Space,
    /// When the timer was armed.
    pub set_ts: SimInstant,
    /// When the episode ended (delivery-time for expiries, which is how
    /// late delivery pushes scatter points above 100 %).
    pub end_ts: SimInstant,
    /// The relative timeout requested at set time, if known.
    pub timeout: Option<SimDuration>,
    /// How it ended.
    pub outcome: Outcome,
    /// The set carried the ground-truth countdown flag.
    pub countdown_flag: bool,
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
    tid: Tid,
    space: Space,
    set_ts: SimInstant,
    timeout: Option<SimDuration>,
    countdown_flag: bool,
}

/// The lifecycle reconstructor.
///
/// Degrades gracefully on incomplete traces: an end event (cancel or
/// expiry) whose matching `Set` was lost — a ring overflow ate it — is
/// counted as an *orphan* and otherwise ignored, so a lossy trace yields
/// fewer episodes, never fabricated or double-counted ones.
#[derive(Debug, Default)]
pub struct LifecycleTracker {
    open: FoldMap<TimerAddr, Open>,
    /// Peak number of simultaneously armed timers (Table 1/2 concurrency).
    peak_concurrency: usize,
    /// End events whose opening `Set` was never seen.
    orphan_ends: u64,
}

impl LifecycleTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one event; returns the completed episode, if this event
    /// closed one.
    pub fn push(&mut self, event: &Event) -> Option<Sample> {
        match event.kind {
            EventKind::Init => None,
            EventKind::Set => {
                let new_open = Open {
                    origin: event.origin,
                    pid: event.pid,
                    tid: event.tid,
                    space: event.space,
                    set_ts: event.ts,
                    timeout: event.timeout,
                    countdown_flag: event.flags.countdown,
                };
                let prev = self.open.insert(event.timer, new_open);
                self.peak_concurrency = self.peak_concurrency.max(self.open.len());
                prev.map(|o| close(event.timer, o, event.ts, Outcome::Reset))
            }
            EventKind::Cancel | EventKind::WaitSatisfied => match self.open.remove(&event.timer) {
                Some(o) => Some(close(event.timer, o, event.ts, Outcome::Canceled)),
                None => {
                    self.orphan_ends += 1;
                    None
                }
            },
            EventKind::Expire | EventKind::WaitTimedOut => match self.open.remove(&event.timer) {
                Some(o) => Some(close(event.timer, o, event.ts, Outcome::Expired)),
                None => {
                    self.orphan_ends += 1;
                    None
                }
            },
        }
    }

    /// Peak concurrency seen so far.
    pub fn peak_concurrency(&self) -> usize {
        self.peak_concurrency
    }

    /// Number of still-open episodes (armed timers).
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// End events (cancel/expiry) that matched no open episode — evidence
    /// of lost `Set` records in an incomplete trace.
    pub fn orphan_ends(&self) -> u64 {
        self.orphan_ends
    }
}

fn close(addr: TimerAddr, open: Open, end_ts: SimInstant, outcome: Outcome) -> Sample {
    Sample {
        addr,
        origin: open.origin,
        pid: open.pid,
        tid: open.tid,
        space: open.space,
        set_ts: open.set_ts,
        end_ts,
        timeout: open.timeout,
        outcome,
        countdown_flag: open.countdown_flag,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::EventFlags;

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
            .is_none());
        let s = lt.push(&ev(EventKind::Expire, 1, 104)).unwrap();
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
            .unwrap();
        assert_eq!(s.outcome, Outcome::Reset);
        assert_eq!(s.ran(), SimDuration::from_millis(30));
        assert_eq!(lt.open_count(), 1);
    }

    #[test]
    fn cancel_without_set_is_ignored() {
        let mut lt = LifecycleTracker::new();
        assert!(lt.push(&ev(EventKind::Cancel, 9, 5)).is_none());
        assert_eq!(lt.orphan_ends(), 1);
    }

    #[test]
    fn orphans_count_lost_sets_without_fabricating_episodes() {
        let mut lt = LifecycleTracker::new();
        // Expire and WaitTimedOut with no Set: two orphans, no samples.
        assert!(lt.push(&ev(EventKind::Expire, 3, 1)).is_none());
        assert!(lt.push(&ev(EventKind::WaitTimedOut, 4, 2)).is_none());
        assert_eq!(lt.orphan_ends(), 2);
        // A real episode still reconstructs normally afterwards.
        lt.push(&ev(EventKind::Set, 3, 10));
        assert!(lt.push(&ev(EventKind::Expire, 3, 20)).is_some());
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

    #[test]
    fn countdown_flag_propagates() {
        let mut lt = LifecycleTracker::new();
        let mut e = ev(EventKind::Set, 1, 0);
        e.flags = EventFlags {
            countdown: true,
            ..EventFlags::default()
        };
        lt.push(&e);
        let s = lt.push(&ev(EventKind::Expire, 1, 10)).unwrap();
        assert!(s.countdown_flag);
    }

    #[test]
    fn wait_events_map_to_outcomes() {
        let mut lt = LifecycleTracker::new();
        lt.push(&ev(EventKind::Set, 1, 0));
        let s = lt.push(&ev(EventKind::WaitSatisfied, 1, 5)).unwrap();
        assert_eq!(s.outcome, Outcome::Canceled);
        lt.push(&ev(EventKind::Set, 1, 10));
        let s = lt.push(&ev(EventKind::WaitTimedOut, 1, 20)).unwrap();
        assert_eq!(s.outcome, Outcome::Expired);
    }
}
