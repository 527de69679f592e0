//! Timeout provenance and dependency tracking (Section 5.2).
//!
//! The paper identifies relationships between concurrent timers `t1` and
//! `t2` where `t1` is set no later than `t2` and expires after it
//! (*overlap*), classified by which expiries are significant:
//!
//! * **(a)** either just `t1`, or both, signify failure → `max(t1, t2)`
//!   is the real deadline and `t2` is redundant (the DHCP §4.4.5 case);
//! * **(b)** only `t2` need expire → `min(t1, t2)` is the deadline and
//!   `t1` can be eliminated;
//! * **(c)** neither need expire — but cancelling one should cancel the
//!   other (TCP keepalive vs. retransmission);
//!
//! plus a *dependency* relation: `t2` is only set once `t1` ends.
//! This module implements the bookkeeping, the elision rules, and
//! provenance chains for debugging.

use simtime::fasthash::{FoldMap, FoldSet};
use simtime::SimInstant;

/// A timer identity within the dependency graph.
pub type DepId = u64;

/// Which expiries of an overlapping pair are significant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverlapKind {
    /// Rule (a): the *later* expiry is the real deadline.
    MaxMatters,
    /// Rule (b): the *earlier* expiry is the real deadline.
    MinMatters,
    /// Rule (c): neither expiry is wanted; neither timer is elided.
    Neither,
}

/// A declared relation between two timers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a` overlaps `b` (`a` set no later, expiring no earlier).
    Overlaps(OverlapKind),
    /// `b` is only set when `a` ends.
    DependsOn,
}

/// One declared timer.
#[derive(Debug, Clone)]
struct DepTimer {
    set_at: SimInstant,
    expires: SimInstant,
    label: String,
}

/// The provenance/dependency graph.
#[derive(Debug, Default)]
pub struct DepGraph {
    timers: FoldMap<DepId, DepTimer>,
    relations: Vec<(DepId, DepId, Relation)>,
}

impl DepGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a timer with its provenance label.
    ///
    /// # Panics
    ///
    /// Panics if `expires < set_at`.
    pub fn declare(&mut self, id: DepId, label: &str, set_at: SimInstant, expires: SimInstant) {
        assert!(expires >= set_at, "timer expires before it is set");
        self.timers.insert(
            id,
            DepTimer {
                set_at,
                expires,
                label: label.to_owned(),
            },
        );
    }

    /// Declares a relation between two known timers.
    ///
    /// For overlaps, validates the paper's definition: `a` set no later
    /// than `b` and expiring no earlier.
    ///
    /// # Panics
    ///
    /// Panics if either timer is undeclared, or an overlap violates the
    /// set/expiry ordering.
    pub fn relate(&mut self, a: DepId, b: DepId, relation: Relation) {
        let ta = &self.timers[&a];
        let tb = &self.timers[&b];
        if let Relation::Overlaps(_) = relation {
            assert!(
                ta.set_at <= tb.set_at && ta.expires >= tb.expires,
                "overlap requires a set no later and expiring no earlier"
            );
        }
        self.relations.push((a, b, relation));
    }

    /// The timers that actually need arming after applying the elision
    /// rules: rule (a) elides the inner timer, rule (b) elides the outer.
    pub fn required_armed(&self) -> FoldSet<DepId> {
        let mut required: FoldSet<DepId> = self.timers.keys().copied().collect();
        for &(a, b, rel) in &self.relations {
            match rel {
                Relation::Overlaps(OverlapKind::MaxMatters) => {
                    required.remove(&b);
                }
                Relation::Overlaps(OverlapKind::MinMatters) => {
                    required.remove(&a);
                }
                Relation::Overlaps(OverlapKind::Neither) => {}
                Relation::DependsOn => {
                    // The dependent timer is not armed until `a` ends.
                    required.remove(&b);
                }
            }
        }
        required
    }

    /// The provenance chain of `id`: its label, then the labels of the
    /// timers it (transitively) depends on — the traceability §5.2 wants
    /// for debugging nested timeouts.
    pub fn trace_path(&self, id: DepId) -> Vec<String> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        let mut seen = FoldSet::default();
        while let Some(c) = cur {
            if !seen.insert(c) {
                break;
            }
            if let Some(t) = self.timers.get(&c) {
                path.push(t.label.clone());
            }
            cur = self
                .relations
                .iter()
                .find(|&&(_, b, rel)| b == c && rel == Relation::DependsOn)
                .map(|&(a, _, _)| a);
        }
        path
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
    fn rule_a_elides_inner() {
        let mut g = DepGraph::new();
        g.declare(1, "dhcp:overall", at(0), at(60));
        g.declare(2, "dhcp:per_server", at(0), at(10));
        g.relate(1, 2, Relation::Overlaps(OverlapKind::MaxMatters));
        let req = g.required_armed();
        assert!(req.contains(&1));
        assert!(!req.contains(&2));
    }

    #[test]
    fn rule_b_elides_outer() {
        let mut g = DepGraph::new();
        g.declare(1, "outer", at(0), at(60));
        g.declare(2, "inner", at(5), at(10));
        g.relate(1, 2, Relation::Overlaps(OverlapKind::MinMatters));
        let req = g.required_armed();
        assert!(!req.contains(&1));
        assert!(req.contains(&2));
    }

    #[test]
    fn rule_c_elides_neither() {
        let mut g = DepGraph::new();
        g.declare(1, "tcp:keepalive", at(0), at(7200));
        g.declare(2, "tcp:retransmit", at(0), at(3));
        g.relate(1, 2, Relation::Overlaps(OverlapKind::Neither));
        assert_eq!(g.required_armed().len(), 2);
    }

    #[test]
    fn dependency_chain_traces() {
        let mut g = DepGraph::new();
        g.declare(1, "gui:open_server", at(0), at(120));
        g.declare(2, "smb:connect", at(0), at(30));
        g.declare(3, "tcp:syn", at(0), at(3));
        g.relate(1, 2, Relation::DependsOn);
        g.relate(2, 3, Relation::DependsOn);
        assert_eq!(
            g.trace_path(3),
            vec!["tcp:syn", "smb:connect", "gui:open_server"]
        );
        // Dependent timers are not armed up front.
        let req = g.required_armed();
        assert_eq!(req, FoldSet::from_iter([1]));
    }

    #[test]
    #[should_panic(expected = "overlap requires")]
    fn invalid_overlap_rejected() {
        let mut g = DepGraph::new();
        g.declare(1, "short", at(0), at(5));
        g.declare(2, "long", at(0), at(50));
        g.relate(1, 2, Relation::Overlaps(OverlapKind::MaxMatters));
    }
}
