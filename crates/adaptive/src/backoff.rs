//! Exponential backoff.
//!
//! The retry discipline behind TCP retransmission and the paper's SunRPC
//! example: "many implementations respond to refused connections with an
//! exponential backoff which retries 7 times, doubling the initial 500 ms
//! timeout each iteration. Thus, recovering from a typing error can take
//! over a minute!" (§2.2.2).

use simtime::SimDuration;

/// A capped exponential backoff sequence.
#[derive(Debug, Clone)]
pub struct ExponentialBackoff {
    factor: f64,
    cap: SimDuration,
    current: SimDuration,
}

impl ExponentialBackoff {
    /// Creates a backoff starting at `initial`, multiplying by `factor`
    /// each step, capped at `cap`.
    ///
    /// # Panics
    ///
    /// Panics if `factor < 1`.
    pub fn new(initial: SimDuration, factor: f64, cap: SimDuration) -> Self {
        assert!(factor >= 1.0, "backoff factor must be >= 1, got {factor}");
        ExponentialBackoff {
            factor,
            cap,
            current: initial.min(cap),
        }
    }

    /// The current value without advancing.
    pub fn current(&self) -> SimDuration {
        self.current
    }

    /// Advances the backoff, returning the *new* value.
    ///
    /// Once `current` has reached `cap` the value is saturated: further
    /// advances return exactly `cap`. The growth step is also clamped to
    /// be monotone — the f64 round-trip in `mul_f64` must never walk the
    /// value backwards for `factor >= 1`.
    pub fn advance(&mut self) -> SimDuration {
        if self.current >= self.cap {
            self.current = self.cap;
            return self.current;
        }
        self.current = self
            .current
            .mul_f64(self.factor)
            .max(self.current)
            .min(self.cap);
        self.current
    }

    /// Resets to a new base value (adaptive re-anchoring).
    pub fn reset_to(&mut self, base: SimDuration) {
        self.current = base.min(self.cap);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doubles_and_caps() {
        let mut b = ExponentialBackoff::new(
            SimDuration::from_millis(100),
            2.0,
            SimDuration::from_millis(500),
        );
        assert_eq!(b.current(), SimDuration::from_millis(100));
        assert_eq!(b.advance(), SimDuration::from_millis(200));
        assert_eq!(b.advance(), SimDuration::from_millis(400));
        assert_eq!(b.advance(), SimDuration::from_millis(500));
        assert_eq!(b.advance(), SimDuration::from_millis(500));
    }

    #[test]
    fn advance_is_idempotent_at_the_cap() {
        // Regression: once the cap is reached, further advances must
        // return exactly the cap (no f64 round-trip wobble).
        let cap = SimDuration::from_nanos(63_999_999_999);
        let mut b = ExponentialBackoff::new(SimDuration::from_millis(500), 2.0, cap);
        for _ in 0..10 {
            b.advance();
        }
        assert_eq!(b.current(), cap);
        for _ in 0..100 {
            assert_eq!(b.advance(), cap);
        }
    }

    #[test]
    fn initial_above_cap_is_clamped() {
        let b =
            ExponentialBackoff::new(SimDuration::from_secs(100), 2.0, SimDuration::from_secs(64));
        assert_eq!(b.current(), SimDuration::from_secs(64));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn advance_is_monotone_and_capped(
            initial_ms in 1u64..10_000,
            factor in 1.0f64..4.0,
            cap_ms in 1u64..100_000,
            steps in 1usize..64,
        ) {
            let cap = SimDuration::from_millis(cap_ms);
            let mut b = ExponentialBackoff::new(SimDuration::from_millis(initial_ms), factor, cap);
            let mut prev = b.current();
            proptest::prop_assert!(prev <= cap);
            for _ in 0..steps {
                let next = b.advance();
                proptest::prop_assert!(next >= prev, "backoff walked backwards: {prev} -> {next}");
                proptest::prop_assert!(next <= cap);
                prev = next;
            }
        }
    }
}
