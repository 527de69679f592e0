//! Service models for the layered-timeout cascade (paper Section 2.2.2).
//!
//! When a Windows user types a server name into the file browser, parallel
//! WINS/DNS lookups race with per-alternative timeouts; on success, SMB,
//! NFS (over SunRPC, whose implementations retry refused connections 7
//! times with exponential backoff from 500 ms) and WebDAV connections race
//! next. A mistyped name therefore takes *over a minute* to surface as an
//! error, even though each individual layer behaves reasonably. These
//! service models provide the behaviours the cascade experiment composes.

use simtime::{SimDuration, SimRng};

/// How a service responds to one attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceBehavior {
    /// Replies successfully after the given latency.
    Responds {
        /// Time from request to reply.
        latency: SimDuration,
    },
    /// Actively refuses the connection after the given latency (a TCP RST:
    /// fast, but triggers client-side retry-with-backoff logic).
    Refused {
        /// Time from request to refusal.
        latency: SimDuration,
    },
    /// Never answers; only the caller's timeout ends the attempt.
    Silent,
}

/// The outcome of a single attempt against a service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AttemptOutcome {
    /// Success after the duration.
    Success(SimDuration),
    /// Active refusal after the duration.
    Refused(SimDuration),
    /// No answer before `timeout`; the attempt consumed the full timeout.
    TimedOut(SimDuration),
}

/// A named service with a fixed behaviour.
#[derive(Debug, Clone)]
pub struct LookupService {
    /// Human-readable name ("DNS", "SMB", ...).
    pub name: &'static str,
    /// Behaviour of this service.
    pub behavior: ServiceBehavior,
}

impl LookupService {
    /// Creates a service.
    pub fn new(name: &'static str, behavior: ServiceBehavior) -> Self {
        LookupService { name, behavior }
    }

    /// Performs one attempt with the caller's `timeout`.
    ///
    /// Latencies get ±10 % multiplicative jitter so repeated attempts are
    /// not artificially identical.
    pub fn attempt(&self, timeout: SimDuration, rng: &mut SimRng) -> AttemptOutcome {
        let jitter = 0.9 + 0.2 * rng.unit_f64();
        match self.behavior {
            ServiceBehavior::Responds { latency } => {
                let t = latency.mul_f64(jitter);
                if t <= timeout {
                    AttemptOutcome::Success(t)
                } else {
                    AttemptOutcome::TimedOut(timeout)
                }
            }
            ServiceBehavior::Refused { latency } => {
                let t = latency.mul_f64(jitter);
                if t <= timeout {
                    AttemptOutcome::Refused(t)
                } else {
                    AttemptOutcome::TimedOut(timeout)
                }
            }
            ServiceBehavior::Silent => AttemptOutcome::TimedOut(timeout),
        }
    }
}

/// Runs the SunRPC retry loop against a service: `retries` attempts with
/// exponential backoff starting at `initial_timeout`, doubling each
/// iteration (the NFS behaviour the paper quotes: 7 tries from 500 ms).
///
/// Returns `(outcome_of_last_attempt, total_elapsed)`.
pub fn sunrpc_retry_loop(
    service: &LookupService,
    initial_timeout: SimDuration,
    retries: u32,
    rng: &mut SimRng,
) -> (AttemptOutcome, SimDuration) {
    let mut elapsed = SimDuration::ZERO;
    let mut timeout = initial_timeout;
    let mut last = AttemptOutcome::TimedOut(SimDuration::ZERO);
    for _ in 0..retries {
        let outcome = service.attempt(timeout, rng);
        match outcome {
            AttemptOutcome::Success(t) => {
                return (outcome, elapsed + t);
            }
            AttemptOutcome::Refused(t) => {
                // Refusal is fast, but the client waits out the rest of the
                // current timeout before retrying with a doubled value.
                elapsed += t.max(timeout);
            }
            AttemptOutcome::TimedOut(t) => {
                elapsed += t;
            }
        }
        last = outcome;
        timeout = timeout * 2;
    }
    (last, elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn responsive_service_succeeds() {
        let dns = LookupService::new(
            "DNS",
            ServiceBehavior::Responds {
                latency: SimDuration::from_millis(30),
            },
        );
        let mut rng = SimRng::new(1);
        match dns.attempt(SimDuration::from_secs(5), &mut rng) {
            AttemptOutcome::Success(t) => assert!(t < SimDuration::from_millis(40)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn silent_service_consumes_full_timeout() {
        let wins = LookupService::new("WINS", ServiceBehavior::Silent);
        let mut rng = SimRng::new(2);
        assert_eq!(
            wins.attempt(SimDuration::from_secs(3), &mut rng),
            AttemptOutcome::TimedOut(SimDuration::from_secs(3))
        );
    }

    #[test]
    fn slow_service_times_out() {
        let slow = LookupService::new(
            "SMB",
            ServiceBehavior::Responds {
                latency: SimDuration::from_secs(10),
            },
        );
        let mut rng = SimRng::new(3);
        match slow.attempt(SimDuration::from_secs(1), &mut rng) {
            AttemptOutcome::TimedOut(t) => assert_eq!(t, SimDuration::from_secs(1)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sunrpc_backoff_takes_over_a_minute() {
        // The paper: 7 retries doubling a 500 ms initial timeout means
        // 0.5 + 1 + 2 + 4 + 8 + 16 + 32 = 63.5 s before NFS gives up.
        let nfs = LookupService::new(
            "NFS",
            ServiceBehavior::Refused {
                latency: SimDuration::from_millis(1),
            },
        );
        let mut rng = SimRng::new(4);
        let (outcome, elapsed) =
            sunrpc_retry_loop(&nfs, SimDuration::from_millis(500), 7, &mut rng);
        assert!(matches!(outcome, AttemptOutcome::Refused(_)));
        assert!(
            elapsed >= SimDuration::from_secs(60),
            "elapsed = {elapsed}, expected over a minute"
        );
    }

    #[test]
    fn sunrpc_success_short_circuits() {
        let ok = LookupService::new(
            "NFS",
            ServiceBehavior::Responds {
                latency: SimDuration::from_millis(10),
            },
        );
        let mut rng = SimRng::new(5);
        let (outcome, elapsed) = sunrpc_retry_loop(&ok, SimDuration::from_millis(500), 7, &mut rng);
        assert!(matches!(outcome, AttemptOutcome::Success(_)));
        assert!(elapsed < SimDuration::from_millis(50));
    }
}
