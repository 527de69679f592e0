//! Which timer-queue structure a simulated subsystem builds.
//!
//! The paper's kernels hard-wire their timer structure: Linux 2.6.23.9 uses
//! the cascading hierarchical wheel, Vista's TCP/IP stack and kernel timer
//! table use single-level hashed wheels. Each subsystem names its own
//! structure through [`Backend::build`]; an experiment spec may force one
//! of the two wheels onto every subsystem, which the equivalence suites
//! use to show the traces do not change when it does.

use crate::api::TimerQueue;
use crate::hashed::HashedWheel;
use crate::hierarchical::HierarchicalWheel;

/// Which timer-queue structure a simulated subsystem should use.
///
/// `Native` keeps each subsystem on the structure the real kernel used
/// (hierarchical wheel for Linux timers, hashed rings for Vista); the
/// forced variants put every subsystem onto that one structure. Because
/// the [`TimerQueue`] firing-order contract is exact, a forced backend
/// changes only cost metrics, never the simulated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Per-subsystem historical default (what the paper's kernels shipped).
    #[default]
    Native,
    /// Linux `kernel/timer.c` cascading hierarchical wheel.
    Hierarchical,
    /// Single-level hashed wheel (Varghese & Lauck scheme 6; Vista's ring).
    Hashed,
}

impl Backend {
    /// Canonical lowercase name.
    pub const fn label(self) -> &'static str {
        match self {
            Backend::Native => "native",
            Backend::Hierarchical => "hierarchical",
            Backend::Hashed => "hashed",
        }
    }

    /// Builds a queue for a subsystem whose historical structure is
    /// `native` (with `slot_count` slots when that structure is a hashed
    /// ring). A forced backend overrides the subsystem default.
    pub fn build(self, native: Backend, slot_count: usize) -> Box<dyn TimerQueue> {
        debug_assert_ne!(
            native,
            Backend::Native,
            "subsystem default must be concrete"
        );
        let structure = match self {
            Backend::Native => native,
            forced => forced,
        };
        match structure {
            Backend::Hashed => Box::new(HashedWheel::new(slot_count)),
            Backend::Native | Backend::Hierarchical => Box::new(HierarchicalWheel::new()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_two(mut q: Box<dyn TimerQueue>) -> Vec<(u64, u64)> {
        q.schedule(1, 10);
        q.schedule(2, 5);
        let mut fired = Vec::new();
        q.advance_to(10, &mut |id, exp| fired.push((id, exp)));
        assert!(q.is_empty());
        fired
    }

    #[test]
    fn build_produces_working_queues() {
        for backend in [Backend::Native, Backend::Hierarchical, Backend::Hashed] {
            for native in [Backend::Hierarchical, Backend::Hashed] {
                assert_eq!(
                    fire_two(backend.build(native, 256)),
                    vec![(2, 5), (1, 10)],
                    "backend {} over native {}",
                    backend.label(),
                    native.label()
                );
            }
        }
    }

    #[test]
    fn native_builds_the_subsystem_default() {
        assert_eq!(Backend::default(), Backend::Native);
        let hashed = format!("{:?}", Backend::Native.build(Backend::Hashed, 8));
        assert!(hashed.starts_with("HashedWheel"), "{hashed}");
        let forced = format!("{:?}", Backend::Hierarchical.build(Backend::Hashed, 8));
        assert!(forced.starts_with("HierarchicalWheel"), "{forced}");
    }
}
