//! Scatter data for Figures 8–11: set value vs. where in its life each
//! timer ended.
//!
//! "Figures 8–11 plot for each workload the value each timer was set to
//! versus the percentage of this time after which it was canceled or
//! expired. The size of a circle represents the aggregate value
//! frequency. Timers set to expire immediately or with an expiry time in
//! the past are not plotted. … The figures are cut off above 250 %."

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;

use crate::lifecycle::{Outcome, Sample};

/// Maximum plotted percentage (the paper's cut-off).
pub const PERCENT_CUTOFF: f64 = 250.0;

/// One aggregated scatter point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScatterPoint {
    /// Set value, seconds (bucket centre).
    pub seconds: f64,
    /// Percentage of the set value at which the timer ended.
    pub percent: f64,
    /// Episodes aggregated into this point (circle size).
    pub count: u64,
    /// `true` if the bucket is dominated by expiries (vs. cancels).
    pub mostly_expired: bool,
}

/// Streaming scatter aggregation.
///
/// Points are bucketed at 40 buckets/decade in x (log scale, like the
/// paper's axis) and 1 % in y, with per-bucket outcome counts.
#[derive(Debug, Default)]
pub struct ScatterBuilder {
    buckets: FoldMap<(i32, u32), (u64, u64)>, // (expired, canceled)
}

impl ScatterBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one completed episode. Resets are not end-points in the
    /// paper's plots; immediate/past expiries are excluded.
    pub fn push(&mut self, sample: &Sample) {
        if sample.outcome == Outcome::Reset {
            return;
        }
        // `percent_of_set` is `None` for a zero timeout as well.
        let (Some(timeout), Some(percent)) = (sample.timeout, sample.percent_of_set()) else {
            return;
        };
        let percent = percent.min(PERCENT_CUTOFF);
        let x = (timeout.as_secs_f64().log10() * 40.0).round() as i32;
        let y = percent.round() as u32;
        let entry = self.buckets.entry((x, y)).or_insert((0, 0));
        match sample.outcome {
            Outcome::Expired => entry.0 += 1,
            Outcome::Canceled => entry.1 += 1,
            Outcome::Reset => unreachable!("filtered above"),
        }
    }

    /// The aggregated points, sorted by (seconds, percent).
    pub fn points(&self) -> Vec<ScatterPoint> {
        let mut pts: Vec<ScatterPoint> = self
            .buckets
            .iter()
            .map(|(&(x, y), &(expired, canceled))| ScatterPoint {
                seconds: 10f64.powf(x as f64 / 40.0),
                percent: y as f64,
                count: expired + canceled,
                mostly_expired: expired >= canceled,
            })
            .collect();
        pts.sort_by(|a, b| {
            (a.seconds, a.percent)
                .partial_cmp(&(b.seconds, b.percent))
                .expect("finite")
        });
        pts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimInstant};
    use trace::Space;

    fn sample(timeout_ms: u64, ran_ms: u64, outcome: Outcome) -> Sample {
        Sample {
            origin: 0,
            pid: 0,
            tid: 0,
            space: Space::Kernel,
            set_ts: SimInstant::BOOT,
            end_ts: SimInstant::BOOT + SimDuration::from_millis(ran_ms),
            timeout: Some(SimDuration::from_millis(timeout_ms)),
            outcome,
            countdown_flag: false,
        }
    }

    #[test]
    fn aggregates_identical_points() {
        let mut b = ScatterBuilder::new();
        for _ in 0..5 {
            b.push(&sample(1000, 1004, Outcome::Expired));
        }
        let pts = b.points();
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].count, 5);
        assert!(pts[0].mostly_expired);
        assert!((pts[0].percent - 100.0).abs() < 1.5);
    }

    #[test]
    fn cutoff_at_250() {
        let mut b = ScatterBuilder::new();
        b.push(&sample(1, 100, Outcome::Expired)); // 10000 % → clamp.
        assert!((b.points()[0].percent - 250.0).abs() < 1e-9);
    }

    #[test]
    fn resets_and_zero_timeouts_excluded() {
        let mut b = ScatterBuilder::new();
        b.push(&sample(1000, 500, Outcome::Reset));
        b.push(&sample(0, 0, Outcome::Expired));
        assert!(b.points().is_empty());
    }

    #[test]
    fn early_cancel_lands_below_100() {
        let mut b = ScatterBuilder::new();
        b.push(&sample(5000, 1000, Outcome::Canceled));
        let pts = b.points();
        assert!((pts[0].percent - 20.0).abs() < 1.0);
        assert!(!pts[0].mostly_expired);
    }

    #[test]
    fn log_bucketing_separates_decades() {
        let mut b = ScatterBuilder::new();
        b.push(&sample(10, 10, Outcome::Expired));
        b.push(&sample(100, 100, Outcome::Expired));
        b.push(&sample(1000, 1000, Outcome::Expired));
        assert_eq!(b.points().len(), 3);
    }
}
