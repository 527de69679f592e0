//! Log-bucketed histograms.
//!
//! One fixed bucket layout for every histogram in the system: bucket 0
//! holds the value 0, bucket `i` (1 ≤ i ≤ 62) holds `[2^(i-1), 2^i)`,
//! and bucket 63 holds everything from `2^62` up to `u64::MAX`
//! inclusive. Power-of-two boundaries make `bucket_index` a single
//! `leading_zeros` instruction — cheap enough for hot paths — and the
//! layout is total: boundaries are strictly monotone, adjacent buckets
//! share an edge (no gaps), and every `u64` lands in exactly one bucket.
//! `tests/hist_prop.rs` proves all three properties.

/// Number of buckets in every [`LogHistogram`].
pub const BUCKETS: usize = 64;

/// A fixed-layout log-bucketed histogram with count and sum.
///
/// Plain (non-atomic) storage: histograms live in the sim plane's
/// thread-local accumulators, so the hot path is a bucket index plus
/// three adds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogHistogram {
    count: u64,
    sum: u64,
    buckets: [u64; BUCKETS],
}

impl LogHistogram {
    /// Creates an empty histogram.
    pub const fn new() -> Self {
        LogHistogram {
            count: 0,
            sum: 0,
            buckets: [0; BUCKETS],
        }
    }

    /// The bucket `value` belongs to.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            ((64 - value.leading_zeros()) as usize).min(BUCKETS - 1)
        }
    }

    /// The `[lo, hi)` range of bucket `index` (the last bucket is
    /// `[lo, u64::MAX]`, closed above).
    ///
    /// # Panics
    ///
    /// Panics if `index >= BUCKETS`.
    pub fn bucket_bounds(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS, "bucket index {index} out of range");
        match index {
            0 => (0, 1),
            i if i == BUCKETS - 1 => (1u64 << (BUCKETS - 2), u64::MAX),
            i => (1u64 << (i - 1), 1u64 << i),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.buckets[Self::bucket_index(value)] += 1;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean observation, or 0 for an empty histogram.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The raw bucket counts.
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// `(index, count)` for every non-empty bucket.
    pub fn nonzero(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }

    /// Appends `"name": {"count", "sum", "buckets"}` to `out`: the one
    /// JSON shape of a histogram in the run report, with only non-empty
    /// buckets listed.
    pub(crate) fn write_json(&self, name: &str, out: &mut String) {
        out.push_str(&format!(
            "{}: {{\"count\": {}, \"sum\": {}, \"buckets\": {{",
            crate::json::escape(name),
            self.count,
            self.sum
        ));
        for (j, (index, count)) in self.nonzero().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{index}\": {count}"));
        }
        out.push_str("}}");
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &LogHistogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_one_split_buckets() {
        assert_eq!(LogHistogram::bucket_index(0), 0);
        assert_eq!(LogHistogram::bucket_index(1), 1);
        assert_eq!(LogHistogram::bucket_index(2), 2);
        assert_eq!(LogHistogram::bucket_index(3), 2);
        assert_eq!(LogHistogram::bucket_index(4), 3);
        assert_eq!(LogHistogram::bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_and_merge() {
        let mut a = LogHistogram::new();
        a.record(0);
        a.record(5);
        a.record(5);
        let mut b = LogHistogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 1_000_010);
        assert_eq!(a.buckets()[0], 1);
        assert_eq!(a.buckets()[LogHistogram::bucket_index(5)], 2);
        assert_eq!(a.buckets()[LogHistogram::bucket_index(1_000_000)], 1);
    }

    #[test]
    fn bounds_cover_all_values_without_overlap() {
        // Spot-check the generic invariant the property test sweeps.
        for i in 0..BUCKETS - 1 {
            let (lo, hi) = LogHistogram::bucket_bounds(i);
            assert!(lo < hi, "bucket {i} empty range");
            let (next_lo, _) = LogHistogram::bucket_bounds(i + 1);
            assert_eq!(hi, next_lo, "gap after bucket {i}");
        }
        let (lo, hi) = LogHistogram::bucket_bounds(BUCKETS - 1);
        assert!(lo < hi);
        assert_eq!(hi, u64::MAX);
    }

    #[test]
    fn sum_saturates() {
        let mut h = LogHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX);
        assert_eq!(h.count(), 2);
    }
}
