//! A better notion of time (Section 5.3), and wakeup coalescing.
//!
//! "The programmer probably meant: *please wake up this thread at some
//! convenient time in the next 10 minutes* … If the precision of a
//! timeout is separately specified, the OS has the ability to batch
//! timeout delivery, perhaps allowing the processor or disk to be placed
//! in a power-saving mode."
//!
//! [`TimeSpec`] expresses the intended flexibility; [`Coalescer`] turns a
//! set of flexible deadlines into the *minimum* number of wakeups (the
//! classical greedy interval-stabbing algorithm), generalising the
//! kernel's `round_jiffies` hack.

use simtime::{SimDuration, SimInstant};

/// An expiry-time specification with explicit flexibility.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TimeSpec {
    /// Exactly this instant (the legacy interface's implicit contract).
    Exact(SimInstant),
    /// Any time within `[earliest, latest]` — "some convenient time in
    /// the next ten minutes".
    Window {
        /// Earliest acceptable firing.
        earliest: SimInstant,
        /// Latest acceptable firing.
        latest: SimInstant,
    },
    /// Any time at or after this instant (pure delay; unbounded slack).
    AnyTimeAfter(SimInstant),
}

impl TimeSpec {
    /// The `[earliest, latest]` interval, clamping unbounded slack to
    /// `horizon`.
    pub fn interval(&self, horizon: SimInstant) -> (SimInstant, SimInstant) {
        match *self {
            TimeSpec::Exact(t) => (t, t),
            TimeSpec::Window { earliest, latest } => (earliest, latest),
            TimeSpec::AnyTimeAfter(t) => (t, horizon.saturating_add(SimDuration::ZERO).max(t)),
        }
    }
}

/// One planned wakeup serving a batch of requests.
#[derive(Debug, Clone, PartialEq)]
pub struct Wakeup {
    /// When the CPU wakes.
    pub at: SimInstant,
    /// The request ids served by this wakeup.
    pub ids: Vec<u64>,
}

/// Plans the minimum number of wakeups covering a set of requests.
#[derive(Debug, Default)]
pub struct Coalescer {
    requests: Vec<(u64, TimeSpec)>,
}

impl Coalescer {
    /// Creates an empty planner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a request.
    pub fn add(&mut self, id: u64, spec: TimeSpec) {
        self.requests.push((id, spec));
    }

    /// Number of requests added.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Returns `true` if no requests are pending.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Computes the minimal wakeup schedule over the given horizon.
    ///
    /// Greedy interval stabbing: sort by latest acceptable time; place a
    /// wakeup at the first uncovered request's *latest* instant, and
    /// serve every request whose window contains it. This is optimal for
    /// interval piercing.
    pub fn plan(&self, horizon: SimInstant) -> Vec<Wakeup> {
        let mut intervals: Vec<(u64, SimInstant, SimInstant)> = self
            .requests
            .iter()
            .map(|&(id, spec)| {
                let (e, l) = spec.interval(horizon);
                (id, e, l)
            })
            .collect();
        intervals.sort_by_key(|&(_, _, latest)| latest);
        let mut wakeups: Vec<Wakeup> = Vec::new();
        let mut covered = vec![false; intervals.len()];
        for i in 0..intervals.len() {
            if covered[i] {
                continue;
            }
            let point = intervals[i].2;
            let mut ids = Vec::new();
            for (j, &(id, earliest, latest)) in intervals.iter().enumerate() {
                if !covered[j] && earliest <= point && point <= latest {
                    covered[j] = true;
                    ids.push(id);
                }
            }
            wakeups.push(Wakeup { at: point, ids });
        }
        wakeups.sort_by_key(|w| w.at);
        wakeups
    }

    /// Wakeups needed without coalescing (one per request at its
    /// earliest/exact time) — the baseline the ablation compares against.
    pub fn naive_wakeup_count(&self) -> usize {
        let mut times: Vec<u64> = self
            .requests
            .iter()
            .map(|&(_, spec)| match spec {
                TimeSpec::Exact(t) => t.as_nanos(),
                TimeSpec::Window { earliest, .. } => earliest.as_nanos(),
                TimeSpec::AnyTimeAfter(t) => t.as_nanos(),
            })
            .collect();
        times.sort_unstable();
        times.dedup();
        times.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn at(s: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_secs(s)
    }

    #[test]
    fn loose_requests_coalesce_to_one_wakeup() {
        let mut c = Coalescer::new();
        c.add(
            1,
            TimeSpec::Window {
                earliest: at(10),
                latest: at(100),
            },
        );
        c.add(
            2,
            TimeSpec::Window {
                earliest: at(50),
                latest: at(90),
            },
        );
        c.add(3, TimeSpec::AnyTimeAfter(at(20)));
        let plan = c.plan(at(1000));
        assert_eq!(plan.len(), 1, "plan = {plan:?}");
        assert_eq!(plan[0].ids.len(), 3);
        assert!(c.naive_wakeup_count() >= 3);
    }

    #[test]
    fn exact_requests_cannot_coalesce() {
        let mut c = Coalescer::new();
        c.add(1, TimeSpec::Exact(at(10)));
        c.add(2, TimeSpec::Exact(at(20)));
        c.add(3, TimeSpec::Exact(at(30)));
        assert_eq!(c.plan(at(1000)).len(), 3);
    }

    #[test]
    fn window_wakeup_respects_bounds() {
        let mut c = Coalescer::new();
        c.add(
            1,
            TimeSpec::Window {
                earliest: at(10),
                latest: at(20),
            },
        );
        c.add(
            2,
            TimeSpec::Window {
                earliest: at(30),
                latest: at(40),
            },
        );
        let plan = c.plan(at(1000));
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].at, at(20));
        assert_eq!(plan[1].at, at(40));
    }

    /// Brute-force minimal piercing for small cases (bitmask over the
    /// candidate points; optimal points can always be chosen among
    /// interval endpoints).
    fn brute_force_min(intervals: &[(u64, u64)]) -> usize {
        let mut points: Vec<u64> = intervals.iter().flat_map(|&(a, b)| [a, b]).collect();
        points.sort_unstable();
        points.dedup();
        let n = points.len();
        assert!(n <= 16, "brute force limited to small cases");
        let mut best = n;
        for mask in 0u32..(1 << n) {
            let size = mask.count_ones() as usize;
            if size >= best {
                continue;
            }
            let chosen: Vec<u64> = (0..n)
                .filter(|&i| mask & (1 << i) != 0)
                .map(|i| points[i])
                .collect();
            if intervals
                .iter()
                .all(|&(a, b)| chosen.iter().any(|&p| a <= p && p <= b))
            {
                best = size;
            }
        }
        best
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn every_request_is_served_within_its_window(
            windows in proptest::collection::vec((0u64..1000, 0u64..100), 1..30)
        ) {
            let mut c = Coalescer::new();
            for (i, &(start, len)) in windows.iter().enumerate() {
                c.add(i as u64, TimeSpec::Window {
                    earliest: at(start),
                    latest: at(start + len),
                });
            }
            let plan = c.plan(at(10_000));
            // Every id appears exactly once.
            let mut served: Vec<u64> = plan.iter().flat_map(|w| w.ids.clone()).collect();
            served.sort_unstable();
            prop_assert_eq!(served, (0..windows.len() as u64).collect::<Vec<_>>());
            // And within its window.
            for w in &plan {
                for &id in &w.ids {
                    let (start, len) = windows[id as usize];
                    prop_assert!(w.at >= at(start) && w.at <= at(start + len));
                }
            }
        }

        #[test]
        fn greedy_matches_brute_force_minimum(
            windows in proptest::collection::vec((0u64..40, 0u64..15), 1..6)
        ) {
            let mut c = Coalescer::new();
            let mut raw = Vec::new();
            for (i, &(start, len)) in windows.iter().enumerate() {
                c.add(i as u64, TimeSpec::Window {
                    earliest: at(start),
                    latest: at(start + len),
                });
                raw.push((start, start + len));
            }
            let plan = c.plan(at(10_000));
            prop_assert_eq!(plan.len(), brute_force_min(&raw));
        }
    }
}
