//! A point-to-point link with latency, jitter and loss.

use simtime::{Normal, Sample, SimDuration, SimInstant, SimRng};
use telemetry::{sim, SimCounter, SimHist};

use crate::faults::NetFault;

/// A duplex link characterised by round-trip latency and loss.
///
/// The paper's Linux testbed sat on a gigabit LAN routed to the Internet;
/// its file-browser example quotes a 130 ms round-trip to the file server.
/// We model a link as a normally-jittered RTT plus independent per-segment
/// loss, which is all the kernel timer logic can observe anyway. A link can
/// additionally carry one [`NetFault`] degradation episode; outside the
/// episode's window the link draws the same random sequence as an
/// unfaulted link.
#[derive(Debug, Clone)]
pub struct Link {
    /// Mean round-trip time.
    pub base_rtt: SimDuration,
    /// Standard deviation of the RTT jitter.
    pub jitter: SimDuration,
    /// Independent probability that a segment (and thus its ACK) is lost.
    pub loss: f64,
    /// Mid-run degradation episode; [`NetFault::none`] leaves behaviour
    /// untouched.
    pub fault: NetFault,
}

impl Link {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1)`.
    pub fn new(base_rtt: SimDuration, jitter: SimDuration, loss: f64) -> Self {
        assert!((0.0..1.0).contains(&loss), "loss must be in [0,1)");
        Link {
            base_rtt,
            jitter,
            loss,
            fault: NetFault::none(),
        }
    }

    /// Attaches a degradation episode to this link.
    pub fn with_fault(mut self, fault: NetFault) -> Self {
        self.fault = fault;
        self
    }

    /// A LAN-class link: 0.3 ms RTT, light jitter, no loss.
    pub fn lan() -> Self {
        Link::new(
            SimDuration::from_micros(300),
            SimDuration::from_micros(50),
            0.0,
        )
    }

    /// The 100 Mb switch used between the Vista server and client.
    pub fn lan_100mb() -> Self {
        Link::new(
            SimDuration::from_micros(500),
            SimDuration::from_micros(80),
            0.0,
        )
    }

    /// A WAN-class link like the paper's 130 ms file-server example.
    pub fn wan() -> Self {
        Link::new(
            SimDuration::from_millis(130),
            SimDuration::from_millis(12),
            0.005,
        )
    }

    /// An Internet path with noticeable loss, for the Skype call.
    pub fn internet_lossy() -> Self {
        Link::new(
            SimDuration::from_millis(55),
            SimDuration::from_millis(8),
            0.01,
        )
    }

    /// Samples one round-trip time (never below a tenth of the base RTT).
    pub fn sample_rtt(&self, rng: &mut SimRng) -> SimDuration {
        let floor = self.base_rtt.as_secs_f64() * 0.1;
        let n = Normal::new(self.base_rtt.as_secs_f64(), self.jitter.as_secs_f64());
        SimDuration::from_secs_f64(n.sample(rng).max(floor))
    }

    /// Samples whether a segment is lost.
    pub fn sample_loss(&self, rng: &mut SimRng) -> bool {
        self.loss > 0.0 && rng.chance(self.loss)
    }

    /// Samples one round-trip time as observed at `now`.
    ///
    /// While the link's [`NetFault`] episode is inactive this is exactly
    /// [`Link::sample_rtt`] — same distribution, same random draws — so an
    /// unfaulted link produces bit-identical traces through either entry
    /// point.
    pub fn sample_rtt_at(&self, now: SimInstant, rng: &mut SimRng) -> SimDuration {
        if !self.fault.active_at(now) {
            return self.sample_rtt(rng);
        }
        let base = self.base_rtt.as_secs_f64() * self.fault.rtt_factor();
        let jitter = self.jitter.as_secs_f64() * self.fault.jitter_factor();
        let floor = base * 0.1;
        let n = Normal::new(base, jitter);
        SimDuration::from_secs_f64(n.sample(rng).max(floor))
    }

    /// Samples whether a segment sent at `now` is lost.
    pub fn sample_loss_at(&self, now: SimInstant, rng: &mut SimRng) -> bool {
        if !self.fault.active_at(now) {
            return self.sample_loss(rng);
        }
        let p = (self.loss + self.fault.extra_loss()).min(0.999);
        p > 0.0 && rng.chance(p)
    }

    /// Samples the outcome of sending one segment at `now` and awaiting
    /// its ACK: `Some(rtt)` on success, `None` when the segment or ACK was
    /// lost.
    pub fn send_segment_at(&self, now: SimInstant, rng: &mut SimRng) -> Option<SimDuration> {
        // Telemetry only observes outcomes; it must never consume RNG
        // draws, or faulted and unfaulted runs would diverge.
        sim::add(SimCounter::NetSegmentsSent, 1);
        if self.fault.active_at(now) {
            sim::add(SimCounter::NetFaultedSamples, 1);
        }
        if self.sample_loss_at(now, rng) {
            sim::add(SimCounter::NetSegmentsLost, 1);
            None
        } else {
            let rtt = self.sample_rtt_at(now, rng);
            sim::observe(SimHist::NetRttMicros, rtt.as_nanos() / 1_000);
            Some(rtt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rtt_centres_on_base() {
        let link = Link::wan();
        let mut rng = SimRng::new(1);
        let n = 20_000;
        let sum: f64 = (0..n)
            .map(|_| link.sample_rtt(&mut rng).as_secs_f64())
            .sum();
        let mean = sum / n as f64;
        assert!((mean - 0.130).abs() < 0.002, "mean = {mean}");
    }

    #[test]
    fn lossless_link_never_drops() {
        let link = Link::lan();
        let mut rng = SimRng::new(2);
        assert!((0..10_000).all(|_| !link.sample_loss(&mut rng)));
    }

    #[test]
    fn loss_rate_calibrated() {
        let link = Link::new(SimDuration::from_millis(10), SimDuration::ZERO, 0.2);
        let mut rng = SimRng::new(3);
        let n = 100_000;
        let losses = (0..n).filter(|_| link.sample_loss(&mut rng)).count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.01, "rate = {rate}");
    }

    #[test]
    fn rtt_has_floor() {
        let link = Link::new(
            SimDuration::from_millis(1),
            SimDuration::from_millis(100),
            0.0,
        );
        let mut rng = SimRng::new(4);
        for _ in 0..10_000 {
            assert!(link.sample_rtt(&mut rng) >= SimDuration::from_micros(100));
        }
    }

    #[test]
    #[should_panic(expected = "loss must be")]
    fn invalid_loss_panics() {
        Link::new(SimDuration::from_millis(1), SimDuration::ZERO, 1.5);
    }

    /// One segment through the plain (unfaulted) samplers.
    fn send_plain(link: &Link, rng: &mut SimRng) -> Option<SimDuration> {
        if link.sample_loss(rng) {
            None
        } else {
            Some(link.sample_rtt(rng))
        }
    }

    #[test]
    fn unfaulted_at_methods_match_plain_methods() {
        let link = Link::internet_lossy();
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        let now = SimInstant::from_nanos(3_000_000_000);
        for _ in 0..10_000 {
            assert_eq!(send_plain(&link, &mut a), link.send_segment_at(now, &mut b));
        }
    }

    #[test]
    fn fault_outside_window_matches_plain_methods() {
        let clean = Link::internet_lossy();
        let faulted = Link::internet_lossy().with_fault(NetFault::burst());
        let mut a = SimRng::new(11);
        let mut b = SimRng::new(11);
        // 20 s is past the burst window [5 s, 15 s).
        let now = SimInstant::from_nanos(20_000_000_000);
        for _ in 0..10_000 {
            assert_eq!(
                send_plain(&clean, &mut a),
                faulted.send_segment_at(now, &mut b)
            );
        }
    }

    #[test]
    fn active_burst_raises_loss_and_rtt() {
        let link = Link::internet_lossy().with_fault(NetFault::burst());
        let mut rng = SimRng::new(13);
        let inside = SimInstant::from_nanos(10_000_000_000);
        let n = 50_000;
        let losses = (0..n)
            .filter(|_| link.sample_loss_at(inside, &mut rng))
            .count();
        let rate = losses as f64 / n as f64;
        assert!((rate - 0.11).abs() < 0.01, "rate = {rate}");

        let sum: f64 = (0..n)
            .map(|_| link.sample_rtt_at(inside, &mut rng).as_secs_f64())
            .sum();
        let mean = sum / n as f64;
        // 55 ms base × 4 = 220 ms.
        assert!((mean - 0.220).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn lossless_lan_with_burst_sees_loss_only_inside_window() {
        let link = Link::lan().with_fault(NetFault::burst());
        let mut rng = SimRng::new(17);
        let before = SimInstant::from_nanos(1_000_000_000);
        assert!((0..10_000).all(|_| !link.sample_loss_at(before, &mut rng)));
        let inside = SimInstant::from_nanos(6_000_000_000);
        let losses = (0..10_000)
            .filter(|_| link.sample_loss_at(inside, &mut rng))
            .count();
        assert!(losses > 0, "burst should add loss to a lossless link");
    }
}
