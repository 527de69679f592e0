//! The Jacobson/Karels RTT estimator — the paper's canonical adaptive
//! timer (Section 5.1's TCP example).
//!
//! "TCP … constantly maintains a reasonable value for its retransmission
//! timeout that is based on network conditions. It monitors the mean and
//! variance of round-trip times and uses these to adjust the timeout
//! value. When packets are lost or delayed, TCP … applies an exponential
//! backoff algorithm."

use simtime::SimDuration;

use crate::backoff::ExponentialBackoff;

/// The Jacobson/Karels smoothed round-trip state: the smoothed RTT and
/// its mean deviation, updated with gains 1/8 and 1/4, giving
/// `rto = srtt + 4·rttvar`. Each holder clamps the RTO to its own bounds
/// and keeps its own backoff and initial timeout.
#[derive(Debug, Clone, Copy, Default)]
pub struct RttSmoother {
    /// Smoothed RTT, seconds; `None` before the first sample.
    srtt: Option<f64>,
    /// Mean deviation, seconds.
    rttvar: f64,
}

impl RttSmoother {
    /// Folds one RTT sample in and returns the new RTO, clamped to
    /// `[floor, ceiling]`.
    pub fn update(
        &mut self,
        rtt: SimDuration,
        floor: SimDuration,
        ceiling: SimDuration,
    ) -> SimDuration {
        let r = rtt.as_secs_f64();
        let srtt = match self.srtt {
            None => {
                self.rttvar = r / 2.0;
                r
            }
            Some(srtt) => {
                let err = r - srtt;
                self.rttvar += (err.abs() - self.rttvar) / 4.0;
                srtt + err / 8.0
            }
        };
        self.srtt = Some(srtt);
        SimDuration::from_secs_f64(srtt + 4.0 * self.rttvar)
            .max(floor)
            .min(ceiling)
    }

    /// The smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }
}

/// A smoothed RTT / RTO estimator with Karn's rule and backoff.
#[derive(Debug, Clone)]
pub struct RttEstimator {
    smoother: RttSmoother,
    /// Bounds on the computed RTO.
    min_rto: SimDuration,
    max_rto: SimDuration,
    backoff: ExponentialBackoff,
    /// `true` while an outstanding segment was retransmitted (Karn's
    /// rule: its ACK must not produce an RTT sample).
    retransmitted: bool,
}

impl RttEstimator {
    /// Creates an estimator with TCP's classical bounds (200 ms – 120 s)
    /// and 3 s initial timeout.
    pub fn new() -> Self {
        RttEstimator::with_bounds(
            SimDuration::from_millis(200),
            SimDuration::from_secs(120),
            SimDuration::from_secs(3),
        )
    }

    /// Creates an estimator with explicit bounds and initial RTO.
    pub fn with_bounds(min_rto: SimDuration, max_rto: SimDuration, initial: SimDuration) -> Self {
        RttEstimator {
            smoother: RttSmoother::default(),
            min_rto,
            max_rto,
            backoff: ExponentialBackoff::new(initial, 2.0, max_rto),
            retransmitted: false,
        }
    }

    /// The smoothed RTT, if any sample has arrived.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.smoother.srtt()
    }

    /// Records an ACK. `rtt` is the measured sample; it is ignored if the
    /// segment had been retransmitted (Karn's rule). The backed-off RTO
    /// persists until a *valid* sample arrives (RFC 6298 §5.7) — without
    /// this, a sustained RTT shift can lock the estimator into a
    /// retransmit/discard cycle in which it never learns the new regime.
    pub fn on_ack(&mut self, rtt: SimDuration) {
        if !self.retransmitted {
            let rto = self.smoother.update(rtt, self.min_rto, self.max_rto);
            self.backoff.reset_to(rto);
        }
        self.retransmitted = false;
    }

    /// Records a retransmission timeout firing: backs off exponentially.
    pub fn on_timeout(&mut self) -> SimDuration {
        self.retransmitted = true;
        self.backoff.advance()
    }

    /// The current retransmission timeout (with any active backoff).
    pub fn rto(&self) -> SimDuration {
        self.backoff.current().max(self.min_rto).min(self.max_rto)
    }
}

impl Default for RttEstimator {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_rto_is_3s() {
        let e = RttEstimator::new();
        assert_eq!(e.rto(), SimDuration::from_secs(3));
    }

    #[test]
    fn steady_samples_reach_floor() {
        let mut e = RttEstimator::new();
        for _ in 0..100 {
            e.on_ack(SimDuration::from_millis(10));
        }
        assert_eq!(e.rto(), SimDuration::from_millis(200));
        let srtt = e.srtt().unwrap();
        assert!((srtt.as_secs_f64() - 0.010).abs() < 0.002);
    }

    #[test]
    fn variance_raises_rto() {
        let mut e = RttEstimator::new();
        for i in 0..200 {
            let rtt = if i % 2 == 0 { 20 } else { 400 };
            e.on_ack(SimDuration::from_millis(rtt));
        }
        assert!(e.rto() > SimDuration::from_millis(400));
    }

    #[test]
    fn timeouts_back_off_exponentially() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.on_ack(SimDuration::from_millis(50));
        }
        let r0 = e.rto();
        let r1 = e.on_timeout();
        let r2 = e.on_timeout();
        assert!(r1 >= r0.mul_f64(1.9));
        assert!(r2 >= r1.mul_f64(1.9));
        // ACK resets the backoff (a fresh, non-retransmitted ACK first).
        e.on_ack(SimDuration::from_millis(50)); // Karn: no sample.
        e.on_ack(SimDuration::from_millis(50));
        assert!(e.rto() <= r0.mul_f64(1.1));
    }

    #[test]
    fn karns_rule_ignores_retransmitted_samples() {
        let mut e = RttEstimator::new();
        for _ in 0..50 {
            e.on_ack(SimDuration::from_millis(10));
        }
        let srtt_before = e.srtt().unwrap();
        e.on_timeout();
        // A wildly wrong sample after retransmission is discarded.
        e.on_ack(SimDuration::from_secs(10));
        let srtt_after = e.srtt().unwrap();
        assert_eq!(srtt_before, srtt_after);
        // The next ACK counts again.
        e.on_ack(SimDuration::from_millis(30));
        assert!(e.srtt().unwrap() > srtt_before);
    }

    #[test]
    fn rto_capped_at_max() {
        let mut e = RttEstimator::new();
        for _ in 0..20 {
            e.on_timeout();
        }
        assert_eq!(e.rto(), SimDuration::from_secs(120));
    }
}
