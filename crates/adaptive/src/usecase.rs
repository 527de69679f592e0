//! Use-case-specific timer interfaces (Section 5.4).
//!
//! The paper observes that one generic set/cancel interface serves at
//! least five distinct purposes, and proposes replacing it with
//! abstractions tailored to each. The one built here is the scoped
//! timeout ("if this procedure has not returned in t, invoke e" — the
//! Win32 auto-object idiom), whose nesting lets the timer implementation
//! elide an inner timeout that an enclosing, tighter one already covers.

use std::cell::RefCell;
use std::rc::Rc;

use simtime::{SimDuration, SimInstant};

/// Shared registry of scoped timeouts with nested-timeout elision.
///
/// "Specifying timeouts in this manner allows the timer implementation to
/// identify the dependencies when nested timeouts are specified by code
/// on the same thread. If the duration of an inner-level timeout exceeds
/// an already-waiting timeout, the inner timeout may be ignored" (§5.4).
#[derive(Debug, Default)]
pub struct GuardRegistry {
    /// Stack of armed deadlines, innermost last.
    stack: Vec<(u64, SimInstant)>,
    next_id: u64,
    /// Timeouts skipped because an enclosing deadline was tighter.
    pub elided: u64,
    /// Timeouts actually armed.
    pub armed: u64,
}

/// Shared handle to a registry.
pub type GuardRegistryRef = Rc<RefCell<GuardRegistry>>;

/// Creates a fresh shared registry.
pub fn guard_registry() -> GuardRegistryRef {
    Rc::new(RefCell::new(GuardRegistry::default()))
}

/// An RAII scoped timeout: arms on construction, cancels on drop.
#[derive(Debug)]
pub struct TimeoutGuard {
    registry: GuardRegistryRef,
    /// `None` if this guard was elided by an enclosing tighter deadline.
    id: Option<u64>,
    /// The effective deadline guarding this scope.
    deadline: SimInstant,
}

impl TimeoutGuard {
    /// Declares "if this scope has not exited by `now + timeout`, the
    /// enclosing failure handler fires".
    pub fn arm(registry: &GuardRegistryRef, now: SimInstant, timeout: SimDuration) -> Self {
        let mut reg = registry.borrow_mut();
        let deadline = now + timeout;
        let enclosing = reg.stack.last().map(|&(_, d)| d);
        // Elide timeouts no tighter than the enclosing deadline.
        if let Some(outer) = enclosing {
            if deadline >= outer {
                reg.elided += 1;
                return TimeoutGuard {
                    registry: Rc::clone(registry),
                    id: None,
                    deadline: outer,
                };
            }
        }
        let id = reg.next_id;
        reg.next_id += 1;
        reg.armed += 1;
        reg.stack.push((id, deadline));
        TimeoutGuard {
            registry: Rc::clone(registry),
            id: Some(id),
            deadline,
        }
    }

    /// The deadline effectively guarding this scope.
    pub fn deadline(&self) -> SimInstant {
        self.deadline
    }

    /// Whether this guard armed its own timer (vs. piggybacking on an
    /// enclosing one).
    pub fn is_armed(&self) -> bool {
        self.id.is_some()
    }

    /// Whether the scope has overrun its deadline by `now`. The deadline
    /// instant itself counts as expired: the timeout fires *at* it.
    pub fn expired(&self, now: SimInstant) -> bool {
        now >= self.deadline
    }
}

impl Drop for TimeoutGuard {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let mut reg = self.registry.borrow_mut();
            reg.stack.retain(|&(i, _)| i != id);
        }
    }
}

/// Statistics bundle for nested-guard experiments.
#[derive(Debug, Clone, Copy, Default)]
pub struct GuardStats {
    /// Timeouts armed.
    pub armed: u64,
    /// Timeouts elided by nesting.
    pub elided: u64,
}

/// Snapshot of a registry's statistics.
pub fn guard_stats(registry: &GuardRegistryRef) -> GuardStats {
    let reg = registry.borrow();
    GuardStats {
        armed: reg.armed,
        elided: reg.elided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_millis(ms)
    }

    #[test]
    fn guard_cancels_on_drop() {
        let reg = guard_registry();
        {
            let g = TimeoutGuard::arm(&reg, at(0), SimDuration::from_secs(5));
            assert!(g.is_armed());
            assert_eq!(reg.borrow().stack.len(), 1);
        }
        assert_eq!(reg.borrow().stack.len(), 0);
        assert_eq!(guard_stats(&reg).armed, 1);
    }

    #[test]
    fn looser_nested_guard_is_elided() {
        let reg = guard_registry();
        let outer = TimeoutGuard::arm(&reg, at(0), SimDuration::from_secs(5));
        {
            // Inner timeout of 30 s under a 5 s outer: pointless; elided.
            let inner = TimeoutGuard::arm(&reg, at(100), SimDuration::from_secs(30));
            assert!(!inner.is_armed());
            assert_eq!(inner.deadline(), outer.deadline());
        }
        let stats = guard_stats(&reg);
        assert_eq!(stats.armed, 1);
        assert_eq!(stats.elided, 1);
    }

    #[test]
    fn tighter_nested_guard_is_armed() {
        let reg = guard_registry();
        let _outer = TimeoutGuard::arm(&reg, at(0), SimDuration::from_secs(30));
        let inner = TimeoutGuard::arm(&reg, at(100), SimDuration::from_secs(1));
        assert!(inner.is_armed());
        assert!(inner.expired(at(1200)));
        assert!(!inner.expired(at(900)));
    }

    #[test]
    fn guard_expires_exactly_at_its_deadline() {
        // Regression: TimeoutGuard used an exclusive boundary, so a guard
        // polled exactly at its deadline reported "still alive".
        let reg = guard_registry();
        let g = TimeoutGuard::arm(&reg, at(0), SimDuration::from_secs(1));
        assert!(!g.expired(at(999)));
        assert!(g.expired(at(1000)));
    }
}
