//! Detection of the `select` countdown idiom, and the Figure 4 series.
//!
//! "Both the X server and the icewm window manager start by setting a
//! constant timeout for select. When select returns due to file
//! descriptor activity, Linux updates the timeout value to reflect the
//! time remaining, and the processes use this new value until it reaches
//! zero" (§4.2, Figure 4). The detector recognises consecutive sets on
//! the same timer whose new value equals the previous value minus the
//! elapsed time (within tolerance) — *without* looking at the
//! ground-truth flag the simulator attaches, which is reserved for
//! validating the detector.

use serde::{Deserialize, Serialize};
use simtime::SimDuration;
use trace::{Event, EventKind, Pid};

/// One dot of the Figure 4 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dot {
    /// Trace time, seconds.
    pub t: f64,
    /// Timeout value set, seconds.
    pub value: f64,
}

/// One timer's countdown chain: its running counts plus the previous
/// set. It lives in the timer's entry of the lifecycle table, so a Set
/// costs no lookup of its own; a timer with no timed Set keeps zeros.
#[derive(Debug, Default, Clone, Copy)]
pub struct Chain {
    /// Sets with a timeout.
    sets: u64,
    /// Sets detected as countdown re-issues of the previous value.
    countdown_sets: u64,
    /// Ground-truth countdown sets (from simulator flags), for validation.
    flagged_sets: u64,
    /// Previous set on this timer: (ts_ns, value_ns).
    last_set: Option<(u64, u64)>,
}

impl Chain {
    /// A countdown timer: at least four sets, at least `min_fraction` of
    /// them countdown re-issues.
    pub(crate) fn is_countdown(&self, min_fraction: f64) -> bool {
        self.sets >= 4 && self.countdown_sets as f64 / self.sets as f64 >= min_fraction
    }
}

/// The streaming countdown detector.
#[derive(Debug)]
pub struct CountdownDetector {
    tolerance: SimDuration,
    /// Processes whose every set is recorded as a Figure 4 dot.
    dot_pids: Vec<Pid>,
    dots: Vec<Dot>,
    max_dots: usize,
    /// Sets whose timestamp was not after the previous set on the same
    /// timer (backwards or duplicated clock). Such a pair is excluded
    /// from countdown matching rather than scored as "zero elapsed".
    out_of_order_sets: u64,
    /// Sets both detected as countdown re-issues and flagged as such by
    /// the simulator: the validation's true positives.
    true_positives: u64,
}

impl CountdownDetector {
    /// Creates a detector; `dot_pids` are the processes whose sets become
    /// Figure 4 dots (Xorg in the paper).
    pub fn new(tolerance: SimDuration, dot_pids: Vec<Pid>) -> Self {
        CountdownDetector {
            tolerance,
            dot_pids,
            dots: Vec::new(),
            max_dots: 200_000,
            out_of_order_sets: 0,
            true_positives: 0,
        }
    }

    /// Feeds one event with its timer's chain.
    pub fn push(&mut self, chain: &mut Chain, event: &Event) {
        if event.kind != EventKind::Set {
            // Expiry/cancel breaks a countdown chain only through time
            // gaps; the chain state keys off consecutive sets alone.
            return;
        }
        let Some(value) = event.timeout else {
            return;
        };
        chain.sets += 1;
        if event.flags.countdown {
            chain.flagged_sets += 1;
        }
        let now_ns = event.ts.as_nanos();
        let value_ns = value.as_nanos();
        if let Some((prev_ts, prev_value)) = chain.last_set {
            if now_ns <= prev_ts {
                // A backwards or duplicated timestamp used to collapse to
                // "zero elapsed" via saturating_sub, so any re-issue of a
                // similar value scored as a countdown hit. Break the chain
                // and account the anomaly instead.
                self.out_of_order_sets += 1;
            } else {
                let elapsed = now_ns - prev_ts;
                let expected_remaining = prev_value.saturating_sub(elapsed);
                // Slack: the classifier tolerance, one extra tolerance-width
                // for the kernel's round-up-plus-guard-jiffy conversion (the
                // written-back remainder is up to a tick above the ideal),
                // and 2 % of the elapsed time.
                let tol = 2 * self.tolerance.as_nanos() + elapsed / 50;
                if value_ns <= prev_value + 2 * self.tolerance.as_nanos()
                    && expected_remaining.abs_diff(value_ns) <= tol
                    && prev_value > 0
                {
                    chain.countdown_sets += 1;
                    if event.flags.countdown {
                        self.true_positives += 1;
                    }
                }
            }
        }
        chain.last_set = Some((now_ns, value_ns));
        if self.dot_pids.contains(&event.pid) && self.dots.len() < self.max_dots {
            self.dots.push(Dot {
                t: event.ts.as_secs_f64(),
                value: value.as_secs_f64(),
            });
        }
    }

    /// The Figure 4 dot series.
    pub fn dots(&self) -> &[Dot] {
        &self.dots
    }

    /// Sets observed at or before the previous set's timestamp on the
    /// same timer — clock anomalies excluded from countdown matching.
    pub fn out_of_order_sets(&self) -> u64 {
        self.out_of_order_sets
    }

    /// Detector-vs-ground-truth agreement summed over every timer's
    /// chain, per set: (true positives, detected, flagged). A true
    /// positive is a set both detected and flagged, so recall is true
    /// positives / flagged and precision true positives / detected.
    pub fn validation_counts<'a>(
        &self,
        chains: impl IntoIterator<Item = &'a Chain>,
    ) -> (u64, u64, u64) {
        let mut detected = 0;
        let mut flagged = 0;
        for c in chains {
            detected += c.countdown_sets;
            flagged += c.flagged_sets;
        }
        (self.true_positives, detected, flagged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimInstant;

    fn set(ms: u64, value_ms: u64) -> Event {
        Event::new(
            SimInstant::BOOT + SimDuration::from_millis(ms),
            EventKind::Set,
            1,
            0,
        )
        .with_timeout(SimDuration::from_millis(value_ms))
        .with_task(100, 100, trace::Space::User)
    }

    #[test]
    fn detects_pure_countdown() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![]);
        let mut c = Chain::default();
        // 600 s initial; fd activity every 50 s re-issues the remainder.
        let mut remaining = 600_000u64;
        let mut now = 0u64;
        for _ in 0..8 {
            d.push(&mut c, &set(now, remaining));
            now += 50_000;
            remaining -= 50_000;
        }
        assert!(c.is_countdown(0.8));
        assert_eq!(c.sets, 8);
        assert_eq!(c.countdown_sets, 7);
    }

    #[test]
    fn constant_values_are_not_countdown() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![]);
        let mut c = Chain::default();
        for i in 0..10u64 {
            d.push(&mut c, &set(i * 1000, 5000));
        }
        assert!(!c.is_countdown(0.3));
    }

    #[test]
    fn random_values_are_not_countdown() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![]);
        let mut c = Chain::default();
        for (i, v) in [500u64, 320, 810, 90, 700].iter().enumerate() {
            d.push(&mut c, &set(i as u64 * 100, *v));
        }
        assert!(!c.is_countdown(0.3));
    }

    #[test]
    fn dots_recorded_for_target_pids() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![100]);
        let mut c = Chain::default();
        d.push(&mut c, &set(1000, 600_000));
        d.push(&mut c, &set(2000, 599_000));
        assert_eq!(d.dots().len(), 2);
        assert!((d.dots()[0].value - 600.0).abs() < 1e-9);
        assert!((d.dots()[1].t - 2.0).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_sets_break_the_chain() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![]);
        let mut c = Chain::default();
        // A reordered trace: the "later" set carries an earlier timestamp
        // but a countdown-shaped value. The old double-saturating_sub path
        // treated this as zero elapsed and scored it as a countdown hit.
        d.push(&mut c, &set(1000, 500));
        d.push(&mut c, &set(400, 500)); // backwards
        assert_eq!(c.sets, 2);
        assert_eq!(c.countdown_sets, 0);
        assert_eq!(d.out_of_order_sets(), 1);
    }

    #[test]
    fn duplicated_timestamps_break_the_chain() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![]);
        let mut c = Chain::default();
        d.push(&mut c, &set(100, 500));
        d.push(&mut c, &set(100, 500)); // duplicate ts, same value
        d.push(&mut c, &set(100, 500));
        assert_eq!(c.countdown_sets, 0);
        assert_eq!(d.out_of_order_sets(), 2);
        // The chain resumes once time moves forward again.
        d.push(&mut c, &set(300, 300));
        assert_eq!(c.countdown_sets, 1);
        assert_eq!(d.out_of_order_sets(), 2);
    }

    #[test]
    fn validation_counts_track_flags() {
        let mut d = CountdownDetector::new(SimDuration::from_millis(2), vec![]);
        let mut c = Chain::default();
        let mut e = set(0, 1000);
        d.push(&mut c, &e);
        e = set(400, 600);
        e.flags.countdown = true;
        d.push(&mut c, &e);
        // Detected but not flagged: a false positive.
        d.push(&mut c, &set(500, 500));
        let (true_positives, detected, flagged) = d.validation_counts([&c]);
        assert_eq!(true_positives, 1);
        assert_eq!(detected, 2);
        assert_eq!(flagged, 1);
    }
}
