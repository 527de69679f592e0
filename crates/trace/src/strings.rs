//! String interning for provenance labels and process names.
//!
//! The real study post-processed raw stack traces into call-site clusters;
//! the simulation short-circuits that step by letting every simulated
//! subsystem register a provenance label (e.g. `"tcp:retransmit"`,
//! `"Xorg:select"`). Labels are interned so each binary record carries a
//! 4-byte id instead of a string.

use serde::{Deserialize, Serialize};
use simtime::fasthash::FoldMap;

use crate::event::OriginId;

/// A bidirectional string/id table.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct StringTable {
    by_name: FoldMap<String, OriginId>,
    by_id: Vec<String>,
}

impl StringTable {
    /// Creates an empty table; id 0 is reserved for the unknown label.
    pub fn new() -> Self {
        let mut t = StringTable::default();
        t.intern("?");
        t
    }

    /// The id of the reserved unknown label.
    pub const UNKNOWN: OriginId = 0;

    /// Interns a label, returning its stable id.
    pub fn intern(&mut self, name: &str) -> OriginId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = self.by_id.len() as OriginId;
        self.by_id.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        telemetry::sim::gauge_max(
            telemetry::SimGauge::StringTableSize,
            self.by_id.len() as u64,
        );
        id
    }

    /// Looks up a label by id.
    pub fn resolve(&self, id: OriginId) -> &str {
        self.by_id
            .get(id as usize)
            .map(String::as_str)
            .unwrap_or("?")
    }

    /// Looks up an id by label, without interning.
    pub fn lookup(&self, name: &str) -> Option<OriginId> {
        self.by_name.get(name).copied()
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Returns `true` if only the reserved label is present.
    pub fn is_empty(&self) -> bool {
        self.by_id.len() <= 1
    }

    /// Iterates `(id, label)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OriginId, &str)> {
        self.by_id
            .iter()
            .enumerate()
            .map(|(i, s)| (i as OriginId, s.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = StringTable::new();
        let a = t.intern("tcp:retransmit");
        let b = t.intern("tcp:retransmit");
        assert_eq!(a, b);
        assert_eq!(t.resolve(a), "tcp:retransmit");
    }

    #[test]
    fn unknown_is_zero() {
        let t = StringTable::new();
        assert_eq!(t.resolve(StringTable::UNKNOWN), "?");
        assert_eq!(t.resolve(9999), "?");
    }

    #[test]
    fn lookup_does_not_intern() {
        let mut t = StringTable::new();
        assert_eq!(t.lookup("x"), None);
        let id = t.intern("x");
        assert_eq!(t.lookup("x"), Some(id));
    }

    #[test]
    fn iter_covers_all() {
        let mut t = StringTable::new();
        t.intern("a");
        t.intern("b");
        let all: Vec<_> = t.iter().map(|(_, s)| s.to_owned()).collect();
        assert_eq!(all, vec!["?", "a", "b"]);
    }
}
