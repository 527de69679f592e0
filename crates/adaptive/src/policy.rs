//! The adaptive-timeout execution policy (Section 5's "what if").
//!
//! The paper measures kernels whose timeouts are fixed, round, human
//! constants; Section 5 argues they should be *learned*. The policy knob
//! selects, for one experiment run, whether the simulated subsystems keep
//! their historical constants or drive the same timers from the learned
//! distributions in this crate:
//!
//! * [`AdaptivePolicy::Off`] — the measured kernels exactly as shipped.
//!   The default; no adaptive state is consulted.
//! * [`AdaptivePolicy::Fixed`] — the full adaptive plumbing is active
//!   (estimators are fed, counters tick) but every timeout decision is
//!   clamped to the historical constant. This degenerate mode must be
//!   byte-identical to `Off` — it proves the plumbing inert when
//!   disabled, the same way a faulted run with a zero-width episode must
//!   equal an unfaulted one.
//! * [`AdaptivePolicy::Learned`] — timeouts come from the learned
//!   distributions (§5.1's quantile estimator with a safety margin),
//!   clamped between a floor and the historical constant.
//!
//! Because learned decisions are fed exclusively from workload-level
//! observations (RTT samples, activity gaps) — never from timer-queue
//! internals — a learned run stays byte-identical whichever wheel a spec
//! forces and however many worker threads run the experiments, preserving
//! the equivalence guarantees of the fixed modes.

/// Which timeout policy an experiment runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AdaptivePolicy {
    /// Historical fixed constants; adaptive plumbing not consulted.
    #[default]
    Off,
    /// Plumbing active, decisions clamped to the fixed constants
    /// (degenerate mode — must reproduce `Off` byte-identically).
    Fixed,
    /// Timeouts driven by the learned distributions.
    Learned,
}

impl AdaptivePolicy {
    /// Canonical lowercase name (used in spec labels and CLI flags).
    pub const fn label(self) -> &'static str {
        match self {
            AdaptivePolicy::Off => "off",
            AdaptivePolicy::Fixed => "fixed",
            AdaptivePolicy::Learned => "learned",
        }
    }

    /// Parses a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "off" => Some(AdaptivePolicy::Off),
            "fixed" => Some(AdaptivePolicy::Fixed),
            "learned" => Some(AdaptivePolicy::Learned),
            _ => None,
        }
    }

    /// Whether learned values may replace the fixed constants.
    pub const fn is_learned(self) -> bool {
        matches!(self, AdaptivePolicy::Learned)
    }

    /// Whether the adaptive plumbing (estimator feeding, counters) is
    /// active at all.
    pub const fn is_active(self) -> bool {
        !matches!(self, AdaptivePolicy::Off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in [
            AdaptivePolicy::Off,
            AdaptivePolicy::Fixed,
            AdaptivePolicy::Learned,
        ] {
            assert_eq!(AdaptivePolicy::parse(p.label()), Some(p));
        }
        assert_eq!(AdaptivePolicy::parse("bogus"), None);
    }

    #[test]
    fn default_is_off() {
        assert_eq!(AdaptivePolicy::default(), AdaptivePolicy::Off);
        assert!(!AdaptivePolicy::Off.is_learned());
        assert!(!AdaptivePolicy::Fixed.is_learned());
        assert!(AdaptivePolicy::Learned.is_learned());
    }
}
