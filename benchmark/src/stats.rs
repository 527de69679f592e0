//! Order statistics over a run's samples.

/// Median, quartiles and range of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle value.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (all zero when empty).
    pub fn of(samples: &[f64]) -> Summary {
        if samples.is_empty() {
            return Summary {
                median: 0.0,
                q1: 0.0,
                q3: 0.0,
                min: 0.0,
                max: 0.0,
                n: 0,
            };
        }
        let sorted = sorted(samples);
        let [q1, median, q3] = quartiles_sorted(&sorted);
        Summary {
            median,
            q1,
            q3,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            n: sorted.len(),
        }
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

/// The three quartile cut points of sorted samples, computed as Python's
/// `statistics.quantiles(samples, n=4)` does (its default "exclusive"
/// method), so spreads quoted from this tool and from a Python check agree.
/// The middle cut point is the median.
fn quartiles_sorted(sorted: &[f64]) -> [f64; 3] {
    let len = sorted.len();
    match len {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = len as i64 + 1;
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..4i64).zip(cuts.iter_mut()) {
        let j = (i * m / 4).clamp(1, len as i64 - 1);
        // Negative when the clamp pulled j up: extrapolation, as Python does.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *cut = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    cuts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    fn quartiles(samples: &[f64]) -> [f64; 3] {
        let s = Summary::of(samples);
        [s.q1, s.median, s.q3]
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([5, 1, 9, 3], n=4) == [1.5, 4.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0]), [1.5, 4.0, 8.0]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    }

    #[test]
    fn summary_carries_range_and_count() {
        let s = Summary::of(&[2.0, 9.0, 4.0, 1.0, 7.0]);
        assert_eq!((s.min, s.max, s.n), (1.0, 9.0, 5));
        assert_eq!(s.median, 4.0);
        // statistics.quantiles([1, 2, 4, 7, 9], n=4) == [1.5, 4.0, 8.0]
        assert_eq!((s.q1, s.q3), (1.5, 8.0));
        assert_eq!(s.iqr(), 6.5);
    }
}
