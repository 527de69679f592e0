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

/// A cluster key: how episodes are grouped into "a timer".
///
/// On Linux, static allocation makes the address the natural identity; on
/// Vista, dynamic allocation forces clustering by call-site and process
/// (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClusterKey(pub u64, pub u64);

/// Per-cluster accumulated behaviour.
#[derive(Debug, Default, Clone)]
struct KeyState {
    episodes: u64,
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
    /// Cancels that happened early in the timer's life (< 50 % of value).
    early_cancels: u64,
    /// End of the previous episode, to measure re-arm gaps.
    last_end_ns: Option<(u64, Outcome)>,
}

/// The streaming classifier.
#[derive(Debug)]
pub struct Classifier {
    tolerance: SimDuration,
    keys: FoldMap<ClusterKey, KeyState>,
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
    /// Percentage of timers in `class`.
    pub fn percent(&self, class: PatternClass) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        100.0 * *self.counts.get(class.label()).unwrap_or(&0) as f64 / self.total as f64
    }
}

impl Classifier {
    /// Creates a classifier with the paper's 2 ms tolerance.
    pub fn new(tolerance: SimDuration) -> Self {
        Classifier {
            tolerance,
            keys: FoldMap::default(),
        }
    }

    /// Buckets a value by the tolerance.
    fn bucket(&self, d: SimDuration) -> u64 {
        let tol = self.tolerance.as_nanos().max(1);
        d.as_nanos() / tol
    }

    /// Feeds one completed episode under its cluster key.
    pub fn push(&mut self, key: ClusterKey, sample: &Sample) {
        let tol_ns = self.tolerance.as_nanos();
        let bucket = sample.timeout.map(|d| self.bucket(d));
        let state = self.keys.entry(key).or_default();
        state.episodes += 1;
        if let Some(b) = bucket {
            *state.value_counts.entry(b).or_insert(0) += 1;
        }
        // Gap between the previous episode's end and this set. A set
        // stamped before the recorded end used to clamp to gap 0 via
        // saturating_sub and masquerade as an immediate (periodic)
        // re-arm; such negative gaps are anomalies, not votes.
        if let Some((end_ns, prev_outcome)) = state.last_end_ns {
            if prev_outcome == Outcome::Expired {
                let set_ns = sample.set_ts.as_nanos();
                if set_ns < end_ns {
                    state.anomalous_rearms += 1;
                } else if set_ns - end_ns <= tol_ns {
                    state.immediate_rearms += 1;
                } else {
                    state.gap_rearms += 1;
                }
            }
        }
        match sample.outcome {
            Outcome::Expired => state.expires += 1,
            Outcome::Canceled => {
                state.cancels += 1;
                if let Some(p) = sample.percent_of_set() {
                    if p < 50.0 {
                        state.early_cancels += 1;
                    }
                }
            }
            Outcome::Reset => state.resets += 1,
        }
        state.last_end_ns = Some((sample.end_ts.as_nanos(), sample.outcome));
    }

    /// Classifies one cluster's accumulated behaviour.
    fn classify(state: &KeyState) -> PatternClass {
        let n = state.episodes;
        if n < 3 {
            return PatternClass::Other;
        }
        // Value constancy: the dominant value bucket must cover most sets.
        let dominant = state.value_counts.values().copied().max().unwrap_or(0);
        if (dominant as f64) < 0.7 * n as f64 {
            return PatternClass::Other;
        }
        let exp_f = state.expires as f64 / n as f64;
        let res_f = state.resets as f64 / n as f64;
        let can_f = state.cancels as f64 / n as f64;
        if exp_f >= 0.85 {
            let rearms = state.immediate_rearms + state.gap_rearms;
            if rearms > 0 && state.immediate_rearms as f64 >= 0.7 * rearms as f64 {
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

    /// Classifies one key now (for tests and provenance).
    pub fn class_of(&self, key: ClusterKey) -> Option<PatternClass> {
        self.keys.get(&key).map(Self::classify)
    }

    /// Finishes: the population mix over all clusters.
    pub fn finish(&self) -> PatternMix {
        let mut mix = PatternMix::default();
        for state in self.keys.values() {
            let class = Self::classify(state);
            *mix.counts.entry(class.label().to_owned()).or_insert(0) += 1;
            mix.total += 1;
        }
        mix
    }

    /// Total re-sets across all clusters whose timestamp preceded the
    /// previous episode's recorded end (clock skew / reordering).
    pub fn anomalous_rearms(&self) -> u64 {
        self.keys.values().map(|s| s.anomalous_rearms).sum()
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
            addr: 1,
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

    const KEY: ClusterKey = ClusterKey(1, 0);

    #[test]
    fn periodic_pattern() {
        let mut c = Classifier::new(TOL);
        // Expires at t, re-set at ~t (immediate), same value.
        for i in 0..10u64 {
            c.push(
                KEY,
                &sample(i * 1000, i * 1000 + 1000, 1000, Outcome::Expired),
            );
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Periodic));
    }

    #[test]
    fn delay_pattern() {
        let mut c = Classifier::new(TOL);
        // Expires, then re-set 500 ms later (non-trivial gap).
        for i in 0..10u64 {
            c.push(
                KEY,
                &sample(i * 1500, i * 1500 + 1000, 1000, Outcome::Expired),
            );
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Delay));
    }

    #[test]
    fn watchdog_pattern() {
        let mut c = Classifier::new(TOL);
        // Re-set every 200 ms, never expires.
        for i in 0..20u64 {
            c.push(KEY, &sample(i * 200, (i + 1) * 200, 1000, Outcome::Reset));
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Watchdog));
    }

    #[test]
    fn timeout_pattern() {
        let mut c = Classifier::new(TOL);
        // Cancelled early each time.
        for i in 0..10u64 {
            c.push(
                KEY,
                &sample(i * 5000, i * 5000 + 100, 5000, Outcome::Canceled),
            );
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Timeout));
    }

    #[test]
    fn deferred_pattern() {
        let mut c = Classifier::new(TOL);
        // Deferred a few times, then expires — the Vista registry idiom.
        for round in 0..5u64 {
            let base = round * 4000;
            for i in 0..3u64 {
                c.push(
                    KEY,
                    &sample(base + i * 500, base + (i + 1) * 500, 1000, Outcome::Reset),
                );
            }
            c.push(
                KEY,
                &sample(base + 1500, base + 2500, 1000, Outcome::Expired),
            );
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Deferred));
    }

    #[test]
    fn re_set_before_recorded_end_is_not_periodic() {
        let mut c = Classifier::new(TOL);
        // Every episode "ends" 50 ms *after* the next set's timestamp —
        // a re-set-before-expiry pair as seen under clock skew. The old
        // saturating_sub clamp scored these as immediate re-arms and
        // called the timer Periodic.
        for i in 0..10u64 {
            c.push(
                KEY,
                &sample(i * 1000, i * 1000 + 1050, 1000, Outcome::Expired),
            );
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Delay));
        assert_eq!(c.anomalous_rearms(), 9);
    }

    #[test]
    fn varying_values_are_other() {
        let mut c = Classifier::new(TOL);
        // A countdown: values decline each set.
        for i in 0..10u64 {
            let v = 1000 - i * 100;
            c.push(KEY, &sample(i * 100, i * 100 + 50, v, Outcome::Canceled));
        }
        assert_eq!(c.class_of(KEY), Some(PatternClass::Other));
    }

    #[test]
    fn too_few_episodes_are_other() {
        let mut c = Classifier::new(TOL);
        c.push(KEY, &sample(0, 1000, 1000, Outcome::Expired));
        assert_eq!(c.class_of(KEY), Some(PatternClass::Other));
    }

    #[test]
    fn mix_percentages() {
        let mut c = Classifier::new(TOL);
        for i in 0..10u64 {
            c.push(
                ClusterKey(1, 0),
                &sample(i * 1000, i * 1000 + 1000, 1000, Outcome::Expired),
            );
            c.push(
                ClusterKey(2, 0),
                &sample(i * 5000, i * 5000 + 100, 5000, Outcome::Canceled),
            );
        }
        let mix = c.finish();
        assert_eq!(mix.total, 2);
        assert!((mix.percent(PatternClass::Periodic) - 50.0).abs() < 1e-9);
        assert!((mix.percent(PatternClass::Timeout) - 50.0).abs() < 1e-9);
    }
}
