//! The usage-pattern taxonomy of Section 4.1.1.
//!
//! A repeatedly used timer falls into one of the paper's patterns:
//!
//! * **Periodic** — always expires and is immediately re-set to the same
//!   relative value (page-out timer, housekeeping ticks);
//! * **Watchdog** — never expires: it is re-set to the same relative value
//!   *before* its expiry (console blank timeout);
//! * **Delay** — usually/always expires, and is set again to the same
//!   value after a non-trivial interval (threads delaying execution);
//! * **Timeout** — almost never expires: cancelled shortly after being
//!   set, then set again later to the same value (RPC calls, IDE
//!   commands);
//! * **Deferred** — (seen on Vista) repeatedly deferred like a watchdog
//!   but expiring after a few iterations (lazy handle closing);
//! * **Other** — no stable constant value (the select-countdown idiom,
//!   soft-real-time millisecond timers).
//!
//! Classification tolerates 2 ms of variance between nominally equal
//! values and between expiry and re-set, the experimentally determined
//! bound of §3.1/§4.1.1.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;
use simtime::SimDuration;

use crate::lifecycle::{Outcome, Sample};

/// The pattern classes of §4.1.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternClass {
    /// Always expires, immediately re-set to the same value.
    Periodic,
    /// Endlessly deferred before expiry.
    Watchdog,
    /// Expires, re-set to the same value after a gap.
    Delay,
    /// Cancelled shortly after set; re-set later.
    Timeout,
    /// Deferred several times, then expires (Vista idiom).
    Deferred,
    /// No stable pattern.
    Other,
}

impl PatternClass {
    /// All classes, in the paper's Figure 2 presentation order.
    pub const ALL: [PatternClass; 6] = [
        PatternClass::Delay,
        PatternClass::Periodic,
        PatternClass::Timeout,
        PatternClass::Watchdog,
        PatternClass::Deferred,
        PatternClass::Other,
    ];

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            PatternClass::Periodic => "periodic",
            PatternClass::Watchdog => "watchdog",
            PatternClass::Delay => "delay",
            PatternClass::Timeout => "timeout",
            PatternClass::Deferred => "deferred",
            PatternClass::Other => "other",
        }
    }
}

/// One cluster's accumulated behaviour, and its classifier: "a timer"
/// for Figure 2 and an origin for Table 3.
///
/// On Linux, static allocation makes the address the natural identity,
/// so a timer's cluster lives in its lifecycle-table slot; on Vista,
/// dynamic allocation forces clustering by call-site and process (§3.3),
/// so the cluster lives in its origin's slot under the pid. Table 3's
/// per-origin cluster sits in the origin's slot on both.
#[derive(Debug, Default)]
pub struct Classifier {
    expires: u64,
    cancels: u64,
    resets: u64,
    /// Histogram of set values, bucketed by the jitter tolerance.
    value_counts: FoldMap<u64, u64>,
    /// Re-sets that followed an expiry within the tolerance (periodic
    /// signature) vs. after a longer gap (delay signature).
    immediate_rearms: u64,
    gap_rearms: u64,
    /// Re-sets stamped *before* the previous episode's recorded end —
    /// clock skew or reordering, excluded from the periodic/delay vote.
    anomalous_rearms: u64,
    /// End of the previous episode, to measure re-arm gaps.
    last_end_ns: Option<(u64, Outcome)>,
}

/// The classified population: cluster count per class (Figure 2's
/// "% of timers").
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PatternMix {
    /// Number of timer clusters per class (ordered for deterministic
    /// serialisation).
    pub counts: std::collections::BTreeMap<String, u64>,
    /// Total clusters.
    pub total: u64,
}

impl PatternMix {
    /// The mix over `clusters`, each classified once.
    pub fn of<'a>(clusters: impl IntoIterator<Item = &'a Classifier>) -> Self {
        let mut mix = PatternMix::default();
        for cluster in clusters {
            *mix.counts
                .entry(cluster.class().label().to_owned())
                .or_insert(0) += 1;
            mix.total += 1;
        }
        mix
    }

    /// Percentage of timers in `class`.
    pub fn percent(&self, class: PatternClass) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * *self.counts.get(class.label()).unwrap_or(&0) as f64 / self.total as f64
    }
}

impl Classifier {
    /// Closed episodes fed so far.
    fn episodes(&self) -> u64 {
        self.expires + self.cancels + self.resets
    }

    /// Returns `true` if no episode was fed: a timer that never closed
    /// one is not a cluster.
    pub fn is_empty(&self) -> bool {
        self.episodes() == 0
    }

    /// Feeds one completed episode; `tolerance` is the jitter tolerance
    /// that buckets values and separates immediate from gapped re-arms.
    pub fn push(&mut self, sample: &Sample, tolerance: SimDuration) {
        let tol_ns = tolerance.as_nanos();
        if let Some(d) = sample.timeout {
            *self
                .value_counts
                .entry(d.as_nanos() / tol_ns.max(1))
                .or_insert(0) += 1;
        }
        // Gap between the previous episode's end and this set. A set
        // stamped before the recorded end used to clamp to gap 0 via
        // saturating_sub and masquerade as an immediate (periodic)
        // re-arm; such negative gaps are anomalies, not votes.
        if let Some((end_ns, Outcome::Expired)) = self.last_end_ns {
            let set_ns = sample.set_ts.as_nanos();
            if set_ns < end_ns {
                self.anomalous_rearms += 1;
            } else if set_ns - end_ns <= tol_ns {
                self.immediate_rearms += 1;
            } else {
                self.gap_rearms += 1;
            }
        }
        match sample.outcome {
            Outcome::Expired => self.expires += 1,
            Outcome::Canceled => self.cancels += 1,
            Outcome::Reset => self.resets += 1,
        }
        self.last_end_ns = Some((sample.end_ts.as_nanos(), sample.outcome));
    }

    /// Classifies the accumulated behaviour.
    pub fn class(&self) -> PatternClass {
        let n = self.episodes();
        if n < 3 {
            return PatternClass::Other;
        }
        // Value constancy: the dominant value bucket must cover most sets.
        let dominant = self.value_counts.values().copied().max().unwrap_or(0);
        if (dominant as f64) < 0.7 * n as f64 {
            return PatternClass::Other;
        }
        let exp_f = self.expires as f64 / n as f64;
        let res_f = self.resets as f64 / n as f64;
        let can_f = self.cancels as f64 / n as f64;
        if exp_f >= 0.85 {
            let rearms = self.immediate_rearms + self.gap_rearms;
            if rearms > 0 && self.immediate_rearms as f64 >= 0.7 * rearms as f64 {
                PatternClass::Periodic
            } else {
                PatternClass::Delay
            }
        } else if res_f >= 0.5 {
            if exp_f > 0.08 {
                PatternClass::Deferred
            } else {
                PatternClass::Watchdog
            }
        } else if can_f >= 0.6 {
            PatternClass::Timeout
        } else {
            PatternClass::Other
        }
    }

    /// Re-sets whose timestamp preceded the previous episode's recorded
    /// end (clock skew / reordering).
    pub fn anomalous_rearms(&self) -> u64 {
        self.anomalous_rearms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimInstant;
    use trace::Space;

    const TOL: SimDuration = SimDuration::from_millis(2);

    fn sample(set_ms: u64, end_ms: u64, timeout_ms: u64, outcome: Outcome) -> Sample {
        Sample {
            origin: 1,
            pid: 0,
            tid: 0,
            space: Space::Kernel,
            set_ts: SimInstant::BOOT + SimDuration::from_millis(set_ms),
            end_ts: SimInstant::BOOT + SimDuration::from_millis(end_ms),
            timeout: Some(SimDuration::from_millis(timeout_ms)),
            outcome,
            countdown_flag: false,
        }
    }

    /// A cluster fed `samples` in order.
    fn cluster(samples: impl IntoIterator<Item = Sample>) -> Classifier {
        let mut c = Classifier::default();
        for s in samples {
            c.push(&s, TOL);
        }
        c
    }

    #[test]
    fn periodic_pattern() {
        // Expires at t, re-set at ~t (immediate), same value.
        let c =
            cluster((0..10u64).map(|i| sample(i * 1000, i * 1000 + 1000, 1000, Outcome::Expired)));
        assert_eq!(c.class(), PatternClass::Periodic);
    }

    #[test]
    fn delay_pattern() {
        // Expires, then re-set 500 ms later (non-trivial gap).
        let c =
            cluster((0..10u64).map(|i| sample(i * 1500, i * 1500 + 1000, 1000, Outcome::Expired)));
        assert_eq!(c.class(), PatternClass::Delay);
    }

    #[test]
    fn watchdog_pattern() {
        // Re-set every 200 ms, never expires.
        let c = cluster((0..20u64).map(|i| sample(i * 200, (i + 1) * 200, 1000, Outcome::Reset)));
        assert_eq!(c.class(), PatternClass::Watchdog);
    }

    #[test]
    fn timeout_pattern() {
        // Cancelled early each time.
        let c =
            cluster((0..10u64).map(|i| sample(i * 5000, i * 5000 + 100, 5000, Outcome::Canceled)));
        assert_eq!(c.class(), PatternClass::Timeout);
    }

    #[test]
    fn deferred_pattern() {
        // Deferred a few times, then expires — the Vista registry idiom.
        let c = cluster((0..5u64).flat_map(|round| {
            let base = round * 4000;
            (0..3u64)
                .map(move |i| sample(base + i * 500, base + (i + 1) * 500, 1000, Outcome::Reset))
                .chain([sample(base + 1500, base + 2500, 1000, Outcome::Expired)])
        }));
        assert_eq!(c.class(), PatternClass::Deferred);
    }

    #[test]
    fn re_set_before_recorded_end_is_not_periodic() {
        // Every episode "ends" 50 ms *after* the next set's timestamp —
        // a re-set-before-expiry pair as seen under clock skew. The old
        // saturating_sub clamp scored these as immediate re-arms and
        // called the timer Periodic.
        let c =
            cluster((0..10u64).map(|i| sample(i * 1000, i * 1000 + 1050, 1000, Outcome::Expired)));
        assert_eq!(c.class(), PatternClass::Delay);
        assert_eq!(c.anomalous_rearms(), 9);
    }

    #[test]
    fn varying_values_are_other() {
        // A countdown: values decline each set.
        let c = cluster(
            (0..10u64).map(|i| sample(i * 100, i * 100 + 50, 1000 - i * 100, Outcome::Canceled)),
        );
        assert_eq!(c.class(), PatternClass::Other);
    }

    #[test]
    fn too_few_episodes_are_other() {
        let c = cluster([sample(0, 1000, 1000, Outcome::Expired)]);
        assert!(!c.is_empty());
        assert_eq!(c.class(), PatternClass::Other);
        assert!(Classifier::default().is_empty());
    }

    #[test]
    fn mix_percentages() {
        let periodic =
            cluster((0..10u64).map(|i| sample(i * 1000, i * 1000 + 1000, 1000, Outcome::Expired)));
        let timeout =
            cluster((0..10u64).map(|i| sample(i * 5000, i * 5000 + 100, 5000, Outcome::Canceled)));
        let mix = PatternMix::of([&periodic, &timeout]);
        assert_eq!(mix.total, 2);
        assert!((mix.percent(PatternClass::Periodic) - 50.0).abs() < 1e-9);
        assert!((mix.percent(PatternClass::Timeout) - 50.0).abs() < 1e-9);
    }
}
