//! The adaptive-timeout execution policy (Section 5's "what if").
//!
//! The paper measures kernels whose timeouts are fixed, round, human
//! constants; Section 5 argues they should be *learned*. The policy knob
//! selects, for one experiment run, whether the simulated subsystems keep
//! their historical constants or drive the same timers from the learned
//! distributions in this crate:
//!
//! * [`AdaptivePolicy::Off`] — the measured kernels exactly as shipped.
//!   The default. Estimators are still fed, but no decision reads them.
//! * [`AdaptivePolicy::Learned`] — timeouts come from the learned
//!   distributions (§5.1's quantile estimator with a safety margin),
//!   clamped between a floor and the historical constant.
//!
//! Because learned decisions are fed exclusively from workload-level
//! observations (RTT samples, activity gaps) — never from timer-queue
//! internals — a learned run stays byte-identical whichever wheel a spec
//! forces and however many worker threads run the experiments.

/// Which timeout policy an experiment runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdaptivePolicy {
    /// Historical fixed constants.
    #[default]
    Off,
    /// Timeouts driven by the learned distributions.
    Learned,
}

impl AdaptivePolicy {
    /// Canonical lowercase name (used in spec labels and run summaries).
    pub const fn label(self) -> &'static str {
        match self {
            AdaptivePolicy::Off => "off",
            AdaptivePolicy::Learned => "learned",
        }
    }

    /// Whether learned values may replace the fixed constants.
    pub const fn is_learned(self) -> bool {
        matches!(self, AdaptivePolicy::Learned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_name_each_policy() {
        assert_eq!(AdaptivePolicy::Off.label(), "off");
        assert_eq!(AdaptivePolicy::Learned.label(), "learned");
    }

    #[test]
    fn default_is_off() {
        assert_eq!(AdaptivePolicy::default(), AdaptivePolicy::Off);
        assert!(!AdaptivePolicy::Off.is_learned());
        assert!(AdaptivePolicy::Learned.is_learned());
    }
}
