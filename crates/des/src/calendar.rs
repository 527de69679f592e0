//! The pending-event calendar.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use simtime::fasthash::FoldMap;
use simtime::SimInstant;

/// A handle to a posted event, usable to cancel it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Token(u64);

/// A deterministic time-ordered event queue.
///
/// Ties at the same instant are broken by posting order, which makes whole
/// simulations reproducible from a seed. Popping advances the calendar's
/// notion of "now"; posting an event in the past is rejected rather than
/// silently reordered.
#[derive(Debug)]
pub struct Calendar<E> {
    heap: BinaryHeap<Reverse<(SimInstant, u64, u64)>>,
    payloads: FoldMap<u64, E>,
    now: SimInstant,
    next_key: u64,
}

impl<E> Default for Calendar<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Calendar<E> {
    /// Creates an empty calendar at simulated boot.
    pub fn new() -> Self {
        Calendar {
            heap: BinaryHeap::new(),
            payloads: FoldMap::default(),
            now: SimInstant::BOOT,
            next_key: 0,
        }
    }

    /// The current simulated time (time of the last popped event).
    pub fn now(&self) -> SimInstant {
        self.now
    }

    /// Posts `event` for instant `at`, returning a cancellation token.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time — an event in the past is
    /// always a simulation bug, never recoverable data.
    pub fn post(&mut self, at: SimInstant, event: E) -> Token {
        assert!(
            at >= self.now,
            "event posted for {at} but now is {}",
            self.now
        );
        let key = self.next_key;
        self.next_key += 1;
        self.heap.push(Reverse((at, key, key)));
        self.payloads.insert(key, event);
        Token(key)
    }

    /// Cancels a posted event, returning its payload if it was pending.
    pub fn cancel(&mut self, token: Token) -> Option<E> {
        // The heap entry stays behind and is skipped lazily at pop time.
        self.payloads.remove(&token.0)
    }

    /// Returns `true` if the event behind `token` is still pending.
    pub fn is_pending(&self, token: Token) -> bool {
        self.payloads.contains_key(&token.0)
    }

    /// The time of the earliest pending event.
    pub fn peek_time(&mut self) -> Option<SimInstant> {
        self.skim_stale();
        self.heap.peek().map(|&Reverse((t, _, _))| t)
    }

    /// Pops the earliest event, advancing `now` to its instant.
    pub fn pop(&mut self) -> Option<(SimInstant, E)> {
        loop {
            let Reverse((at, _, key)) = self.heap.pop()?;
            if let Some(event) = self.payloads.remove(&key) {
                self.now = at;
                return Some((at, event));
            }
            // Cancelled entry: skip.
        }
    }

    /// Pops the earliest event if it is at or before `end`.
    pub fn pop_before(&mut self, end: SimInstant) -> Option<(SimInstant, E)> {
        match self.peek_time() {
            Some(t) if t <= end => self.pop(),
            _ => None,
        }
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.payloads.len()
    }

    /// Returns `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.payloads.is_empty()
    }

    /// Drops stale (cancelled) entries from the top of the heap so that
    /// `peek_time` reflects a live event.
    fn skim_stale(&mut self) {
        while let Some(&Reverse((_, _, key))) = self.heap.peek() {
            if self.payloads.contains_key(&key) {
                break;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::SimDuration;

    fn at(s: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_secs(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.post(at(3), "c");
        cal.post(at(1), "a");
        cal.post(at(2), "b");
        assert_eq!(cal.pop(), Some((at(1), "a")));
        assert_eq!(cal.pop(), Some((at(2), "b")));
        assert_eq!(cal.pop(), Some((at(3), "c")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn ties_break_by_posting_order() {
        let mut cal = Calendar::new();
        cal.post(at(1), 1);
        cal.post(at(1), 2);
        cal.post(at(1), 3);
        let order: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn cancel_removes_event() {
        let mut cal = Calendar::new();
        let t1 = cal.post(at(1), "a");
        cal.post(at(2), "b");
        assert!(cal.is_pending(t1));
        assert_eq!(cal.cancel(t1), Some("a"));
        assert!(!cal.is_pending(t1));
        assert_eq!(cal.cancel(t1), None);
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.peek_time(), Some(at(2)));
        assert_eq!(cal.pop(), Some((at(2), "b")));
    }

    #[test]
    fn pop_before_respects_bound() {
        let mut cal = Calendar::new();
        cal.post(at(5), "later");
        assert_eq!(cal.pop_before(at(4)), None);
        assert_eq!(cal.pop_before(at(5)), Some((at(5), "later")));
    }

    #[test]
    fn now_advances_with_pop() {
        let mut cal = Calendar::new();
        cal.post(at(7), ());
        assert_eq!(cal.now(), SimInstant::BOOT);
        cal.pop();
        assert_eq!(cal.now(), at(7));
    }

    #[test]
    #[should_panic(expected = "posted for")]
    fn posting_in_the_past_panics() {
        let mut cal = Calendar::new();
        cal.post(at(5), ());
        cal.pop();
        cal.post(at(1), ());
    }
}
