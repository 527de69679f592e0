//! Use-case-specific timer interfaces (Section 5.4).
//!
//! The paper observes that one generic set/cancel interface serves at
//! least five distinct purposes, and proposes replacing it with
//! abstractions tailored to each: periodic tickers ("every t, invoke
//! f"), scoped timeouts ("if this procedure has not returned in t,
//! invoke e" — the Win32 auto-object idiom), watchdogs ("if this code
//! path has not executed within t, invoke f") and delays ("after t,
//! invoke e"). These are plain state machines over virtual time so every
//! simulator and experiment can reuse them.

use std::cell::RefCell;
use std::rc::Rc;

use simtime::{SimDuration, SimInstant};

/// A drift-free periodic ticker.
///
/// Naive periodic code re-arms `now + period` from inside the callback,
/// accumulating delivery latency into drift — one reason "periodic
/// tickers requiring precision would benefit from not having to reset
/// themselves and correct for the time taken to do this" (§5.4). The
/// ticker anchors every tick to the ideal grid instead.
#[derive(Debug, Clone)]
pub struct PeriodicTicker {
    base: SimInstant,
    period: SimDuration,
    /// Ticks delivered so far.
    ticks: u64,
}

impl PeriodicTicker {
    /// Creates a ticker anchored at `base`.
    ///
    /// # Panics
    ///
    /// Panics if the period is zero.
    pub fn new(base: SimInstant, period: SimDuration) -> Self {
        assert!(!period.is_zero(), "period must be positive");
        PeriodicTicker {
            base,
            period,
            ticks: 0,
        }
    }

    /// The instant of the next tick (strictly after the last delivered).
    pub fn next_tick(&self) -> SimInstant {
        self.base + self.period * (self.ticks + 1)
    }

    /// Delivers every tick due at or before `now`; returns their ideal
    /// instants (late delivery does not shift the grid).
    pub fn advance_to(&mut self, now: SimInstant) -> Vec<SimInstant> {
        let mut fired = Vec::new();
        while self.next_tick() <= now {
            self.ticks += 1;
            fired.push(self.base + self.period * self.ticks);
        }
        fired
    }

    /// Ticks delivered so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

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

    /// Whether the scope has overrun its deadline by `now`.
    ///
    /// The deadline instant itself counts as expired — every timer in
    /// this crate fires *at* its deadline (see [`Watchdog::expired`] and
    /// [`DelayTimer::poll`], which share the same inclusive boundary).
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

/// A watchdog: fires only if not patted within its window.
#[derive(Debug, Clone)]
pub struct Watchdog {
    timeout: SimDuration,
    deadline: SimInstant,
    /// Times the deadline was pushed out.
    pats: u64,
}

impl Watchdog {
    /// Creates a watchdog whose first window starts at `now`.
    pub fn new(now: SimInstant, timeout: SimDuration) -> Self {
        Watchdog {
            timeout,
            deadline: now + timeout,
            pats: 0,
        }
    }

    /// The code path executed: defer the deadline.
    ///
    /// Returns `true` if the pat landed in time. A pat arriving exactly
    /// at (or after) the deadline is too late — the watchdog has already
    /// fired, and silently sliding the deadline would swallow that fire
    /// (the caller must observe the expiry and [`Watchdog::restart`] the
    /// window instead).
    pub fn pat(&mut self, now: SimInstant) -> bool {
        if self.expired(now) {
            return false;
        }
        self.deadline = now + self.timeout;
        self.pats += 1;
        true
    }

    /// Acknowledges a fired watchdog and restarts its window at `now`.
    pub fn restart(&mut self, now: SimInstant) {
        self.deadline = now + self.timeout;
    }

    /// Returns `true` if the watchdog has fired by `now`.
    ///
    /// Inclusive at the boundary: the watchdog fires *at* its deadline,
    /// matching [`TimeoutGuard::expired`] and [`DelayTimer::poll`].
    pub fn expired(&self, now: SimInstant) -> bool {
        now >= self.deadline
    }

    /// The current deadline.
    pub fn deadline(&self) -> SimInstant {
        self.deadline
    }

    /// Number of deferrals.
    pub fn pats(&self) -> u64 {
        self.pats
    }
}

/// A one-shot delay: "after time t, invoke e".
#[derive(Debug, Clone, Copy)]
pub struct DelayTimer {
    fire_at: SimInstant,
    fired: bool,
}

impl DelayTimer {
    /// Creates a delay due at `now + delay`.
    pub fn new(now: SimInstant, delay: SimDuration) -> Self {
        DelayTimer {
            fire_at: now + delay,
            fired: false,
        }
    }

    /// Polls the delay; returns `true` exactly once, at or after the due
    /// time.
    pub fn poll(&mut self, now: SimInstant) -> bool {
        if !self.fired && now >= self.fire_at {
            self.fired = true;
            true
        } else {
            false
        }
    }

    /// The due instant.
    pub fn fire_at(&self) -> SimInstant {
        self.fire_at
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
    fn ticker_is_drift_free() {
        let mut t = PeriodicTicker::new(at(0), SimDuration::from_millis(100));
        // Delivery is late every time, but ticks stay on the grid.
        assert_eq!(t.advance_to(at(137)), vec![at(100)]);
        assert_eq!(t.advance_to(at(263)), vec![at(200)]);
        assert_eq!(t.advance_to(at(599)), vec![at(300), at(400), at(500)]);
        assert_eq!(t.ticks(), 5);
        assert_eq!(t.next_tick(), at(600));
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
    fn watchdog_defers_and_fires() {
        let mut w = Watchdog::new(at(0), SimDuration::from_millis(500));
        for i in 1..=10 {
            assert!(!w.expired(at(i * 100)));
            w.pat(at(i * 100));
        }
        assert_eq!(w.pats(), 10);
        assert!(!w.expired(at(1400)));
        assert!(w.expired(at(1500)));
    }

    #[test]
    fn delay_fires_once() {
        let mut d = DelayTimer::new(at(0), SimDuration::from_millis(100));
        assert!(!d.poll(at(99)));
        assert!(d.poll(at(100)));
        assert!(!d.poll(at(200)));
    }

    #[test]
    fn guard_expires_exactly_at_its_deadline() {
        // Regression: TimeoutGuard used an exclusive boundary while
        // Watchdog/DelayTimer fired inclusively — a guard polled exactly
        // at its deadline reported "still alive" even though a watchdog
        // with the same deadline had already fired.
        let reg = guard_registry();
        let g = TimeoutGuard::arm(&reg, at(0), SimDuration::from_secs(1));
        assert!(!g.expired(at(999)));
        assert!(g.expired(at(1000)));
    }

    #[test]
    fn pat_at_deadline_is_too_late() {
        // Regression: a pat landing exactly at the deadline used to slide
        // the window, so the fire due at that instant was never observed.
        let mut w = Watchdog::new(at(0), SimDuration::from_millis(500));
        assert!(w.pat(at(499)), "pat before the deadline must land");
        // Deadline is now 999; pat exactly there must be refused.
        assert!(!w.pat(at(999)));
        assert!(w.expired(at(999)));
        assert_eq!(w.pats(), 1);
        // Acknowledge and restart: the window runs again.
        w.restart(at(999));
        assert!(!w.expired(at(1400)));
        assert!(w.expired(at(1499)));
    }

    #[test]
    fn watchdog_and_guard_agree_at_the_boundary() {
        let reg = guard_registry();
        let g = TimeoutGuard::arm(&reg, at(0), SimDuration::from_millis(250));
        let w = Watchdog::new(at(0), SimDuration::from_millis(250));
        let mut d = DelayTimer::new(at(0), SimDuration::from_millis(250));
        for ms in [249u64, 250, 251] {
            assert_eq!(g.expired(at(ms)), w.expired(at(ms)), "at {ms}");
        }
        assert!(!d.poll(at(249)));
        assert!(d.poll(at(250)) && w.expired(at(250)) && g.expired(at(250)));
    }
}
