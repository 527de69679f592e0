//! Runtime-pluggable timer-queue backend selection.
//!
//! The paper's kernels hard-wire their timer structure: Linux 2.6.23.9 uses
//! the cascading hierarchical wheel, Vista's TCP/IP stack and kernel timer
//! table use single-level hashed wheels. [`Backend`] turns that choice into
//! data so an experiment spec can force every subsystem onto one structure
//! — wheel, hashed ring, sorted callout list, or binary heap — and the
//! equivalence suite can prove the traces do not change when it does.

use crate::api::TimerQueue;
use crate::hashed::HashedWheel;
use crate::heap::HeapQueue;
use crate::hierarchical::HierarchicalWheel;
use crate::sharded::ShardedQueue;
use crate::sortedlist::SortedList;

/// The flat structure inside a sharded backend.
///
/// [`Backend`] cannot nest itself (the spec key must stay `Copy`), so the
/// sharded variant names its per-base structure with this mirror enum;
/// `Native` defers to the subsystem default exactly as at top level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InnerBackend {
    /// Per-subsystem historical default.
    #[default]
    Native,
    /// Linux cascading hierarchical wheel.
    Hierarchical,
    /// Single-level hashed wheel.
    Hashed,
    /// Sorted callout list.
    SortedList,
    /// Binary min-heap with lazy deletion.
    Heap,
}

impl InnerBackend {
    /// Parses a flat structure name.
    pub fn parse(s: &str) -> Option<InnerBackend> {
        match Backend::parse(s) {
            Some(Backend::Native) => Some(InnerBackend::Native),
            Some(Backend::Hierarchical) => Some(InnerBackend::Hierarchical),
            Some(Backend::Hashed) => Some(InnerBackend::Hashed),
            Some(Backend::SortedList) => Some(InnerBackend::SortedList),
            Some(Backend::Heap) => Some(InnerBackend::Heap),
            Some(Backend::Sharded { .. }) | None => None,
        }
    }

    /// The equivalent top-level backend.
    pub const fn as_backend(self) -> Backend {
        match self {
            InnerBackend::Native => Backend::Native,
            InnerBackend::Hierarchical => Backend::Hierarchical,
            InnerBackend::Hashed => Backend::Hashed,
            InnerBackend::SortedList => Backend::SortedList,
            InnerBackend::Heap => Backend::Heap,
        }
    }

    /// Canonical lowercase name.
    pub const fn label(self) -> &'static str {
        match self {
            InnerBackend::Native => "native",
            InnerBackend::Hierarchical => "hierarchical",
            InnerBackend::Hashed => "hashed",
            InnerBackend::SortedList => "sortedlist",
            InnerBackend::Heap => "heap",
        }
    }
}

/// Which timer-queue structure a simulated subsystem should use.
///
/// `Native` keeps each subsystem on the structure the real kernel used
/// (hierarchical wheel for Linux timers, hashed rings for Vista); the
/// forced variants put every subsystem onto that one structure; `Sharded`
/// splits any of them into N per-CPU bases with migration (what the real
/// SMP kernels do). Because the [`TimerQueue`] firing-order contract is
/// exact, a forced or sharded backend changes only cost metrics, never
/// the simulated trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Per-subsystem historical default (what the paper's kernels shipped).
    #[default]
    Native,
    /// Linux `kernel/timer.c` cascading hierarchical wheel.
    Hierarchical,
    /// Single-level hashed wheel (Varghese & Lauck scheme 6; Vista's ring).
    Hashed,
    /// Sorted callout list (the historical BSD baseline).
    SortedList,
    /// Binary min-heap with lazy deletion (the textbook priority queue).
    Heap,
    /// N per-CPU bases, each an `inner` structure, with deterministic
    /// placement and cross-base migration on re-arm.
    Sharded {
        /// Number of per-CPU bases (0 is treated as 1).
        shards: u16,
        /// The structure each base runs.
        inner: InnerBackend,
    },
}

impl Backend {
    /// The four concrete flat structures, in matrix order. `Native` is
    /// excluded: it resolves to one of these per subsystem.
    pub const FORCED: [Backend; 4] = [
        Backend::Hierarchical,
        Backend::Hashed,
        Backend::SortedList,
        Backend::Heap,
    ];

    /// The sharded half of the equivalence matrix: every inner structure,
    /// with varied shard counts.
    pub const SHARDED_MATRIX: [Backend; 4] = [
        Backend::Sharded {
            shards: 2,
            inner: InnerBackend::Hierarchical,
        },
        Backend::Sharded {
            shards: 4,
            inner: InnerBackend::Hashed,
        },
        Backend::Sharded {
            shards: 8,
            inner: InnerBackend::SortedList,
        },
        Backend::Sharded {
            shards: 4,
            inner: InnerBackend::Heap,
        },
    ];

    /// Parses a CLI/Env spelling: `native`, `hierarchical`, `hashed`,
    /// `sortedlist`, `heap`, or `sharded[:N][:INNER]` (defaults: 4 bases,
    /// native inner — e.g. `sharded:8:hashed`, `sharded:2`,
    /// `sharded:heap`).
    pub fn parse(s: &str) -> Option<Backend> {
        let s = s.trim().to_ascii_lowercase();
        if let Some(rest) = s.strip_prefix("sharded") {
            if !rest.is_empty() && !rest.starts_with(':') {
                return None;
            }
            let mut shards: u16 = 4;
            let mut inner = InnerBackend::Native;
            for part in rest.split(':').filter(|p| !p.is_empty()) {
                if let Ok(n) = part.parse::<u16>() {
                    if n == 0 {
                        return None;
                    }
                    shards = n;
                } else {
                    inner = InnerBackend::parse(part)?;
                }
            }
            return Some(Backend::Sharded { shards, inner });
        }
        match s.as_str() {
            "native" | "default" => Some(Backend::Native),
            "hierarchical" | "wheel" => Some(Backend::Hierarchical),
            "hashed" | "ring" => Some(Backend::Hashed),
            "sortedlist" | "sorted" | "list" => Some(Backend::SortedList),
            "heap" => Some(Backend::Heap),
            _ => None,
        }
    }

    /// Canonical lowercase name (round-trips through [`Backend::parse`]).
    pub fn label(self) -> String {
        match self {
            Backend::Sharded { shards, inner } => {
                format!("sharded:{}:{}", shards.max(1), inner.label())
            }
            Backend::Native => "native".to_string(),
            Backend::Hierarchical => "hierarchical".to_string(),
            Backend::Hashed => "hashed".to_string(),
            Backend::SortedList => "sortedlist".to_string(),
            Backend::Heap => "heap".to_string(),
        }
    }

    /// The number of per-CPU bases (1 for every unsharded backend).
    pub const fn shards(self) -> u16 {
        match self {
            Backend::Sharded { shards, .. } => {
                if shards == 0 {
                    1
                } else {
                    shards
                }
            }
            _ => 1,
        }
    }

    /// This backend split across `shards` per-CPU bases. An already
    /// sharded backend keeps its inner structure and changes only the
    /// base count.
    pub const fn with_shards(self, shards: u16) -> Backend {
        let inner = match self {
            Backend::Sharded { inner, .. } => inner,
            Backend::Native => InnerBackend::Native,
            Backend::Hierarchical => InnerBackend::Hierarchical,
            Backend::Hashed => InnerBackend::Hashed,
            Backend::SortedList => InnerBackend::SortedList,
            Backend::Heap => InnerBackend::Heap,
        };
        Backend::Sharded { shards, inner }
    }

    /// Resolves `Native` (top-level or inside a sharded backend) to the
    /// given subsystem default; forced backends stay themselves.
    pub fn resolve(self, native: Backend) -> Backend {
        debug_assert_ne!(
            native,
            Backend::Native,
            "subsystem default must be concrete"
        );
        match self {
            Backend::Native => native,
            Backend::Sharded { shards, inner } => {
                let resolved = inner.as_backend().resolve(native);
                Backend::Sharded {
                    shards,
                    inner: InnerBackend::parse(&resolved.label())
                        .expect("flat resolve result is a flat name"),
                }
            }
            forced => forced,
        }
    }

    /// Builds a queue for a subsystem whose historical structure is
    /// `native` (with `slot_count` slots when that structure is a hashed
    /// ring). A forced backend overrides the subsystem default; a sharded
    /// backend builds one inner queue per base. A single base has nothing
    /// to place or migrate, so it is the inner queue itself: the wrapper
    /// would add bookkeeping and no behaviour.
    pub fn build(self, native: Backend, slot_count: usize) -> Box<dyn TimerQueue> {
        match self.resolve(native) {
            Backend::Native => unreachable!("resolve() never returns Native"),
            Backend::Hierarchical => Box::new(HierarchicalWheel::new()),
            Backend::Hashed => Box::new(HashedWheel::new(slot_count)),
            Backend::SortedList => Box::new(SortedList::new()),
            Backend::Heap => Box::new(HeapQueue::new()),
            Backend::Sharded {
                shards: 0 | 1,
                inner,
            } => inner.as_backend().build(native, slot_count),
            Backend::Sharded { shards, inner } => {
                Box::new(ShardedQueue::new(shards as usize, &mut || {
                    inner.as_backend().build(native, slot_count)
                }))
            }
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Backend::parse(s).ok_or_else(|| {
            format!(
                "unknown wheel backend {s:?} (expected native, hierarchical, hashed, \
                 sortedlist, heap, or sharded[:N][:INNER])"
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_labels() {
        for b in [Backend::Native, Backend::Hierarchical, Backend::Hashed]
            .into_iter()
            .chain([Backend::SortedList, Backend::Heap])
            .chain(Backend::SHARDED_MATRIX)
        {
            assert_eq!(Backend::parse(&b.label()), Some(b));
            assert_eq!(b.label().parse::<Backend>().unwrap(), b);
        }
        assert_eq!(Backend::parse("WHEEL"), Some(Backend::Hierarchical));
        assert_eq!(Backend::parse("bogus"), None);
        assert!("bogus".parse::<Backend>().is_err());
    }

    #[test]
    fn sharded_parse_accepts_partial_spellings() {
        assert_eq!(
            Backend::parse("sharded"),
            Some(Backend::Sharded {
                shards: 4,
                inner: InnerBackend::Native
            })
        );
        assert_eq!(
            Backend::parse("sharded:2"),
            Some(Backend::Sharded {
                shards: 2,
                inner: InnerBackend::Native
            })
        );
        assert_eq!(
            Backend::parse("sharded:heap"),
            Some(Backend::Sharded {
                shards: 4,
                inner: InnerBackend::Heap
            })
        );
        assert_eq!(
            Backend::parse("sharded:8:hashed"),
            Some(Backend::Sharded {
                shards: 8,
                inner: InnerBackend::Hashed
            })
        );
        assert_eq!(Backend::parse("sharded:0"), None);
        assert_eq!(Backend::parse("sharded:bogus"), None);
        assert_eq!(Backend::parse("shardedx"), None);
    }

    #[test]
    fn with_shards_and_shards_round_trip() {
        assert_eq!(Backend::Native.shards(), 1);
        assert_eq!(Backend::Heap.with_shards(4).shards(), 4);
        assert_eq!(
            Backend::Hashed.with_shards(2),
            Backend::Sharded {
                shards: 2,
                inner: InnerBackend::Hashed
            }
        );
        // Re-sharding keeps the inner structure.
        assert_eq!(
            Backend::Hashed.with_shards(2).with_shards(8),
            Backend::Sharded {
                shards: 8,
                inner: InnerBackend::Hashed
            }
        );
    }

    #[test]
    fn sharded_resolves_native_inner_to_subsystem_default() {
        let b = Backend::parse("sharded:2").unwrap();
        assert_eq!(
            b.resolve(Backend::Hashed),
            Backend::Sharded {
                shards: 2,
                inner: InnerBackend::Hashed
            }
        );
        // A sharded backend builds a working multiplexed queue.
        let mut q = b.build(Backend::Hierarchical, 256);
        q.schedule(1, 10);
        q.schedule(2, 5);
        let mut fired = Vec::new();
        q.advance_to(10, &mut |id, exp| fired.push((id, exp)));
        assert_eq!(fired, vec![(2, 5), (1, 10)]);
        assert!(q.is_empty());
    }

    #[test]
    fn native_resolves_to_subsystem_default() {
        assert_eq!(Backend::Native.resolve(Backend::Hashed), Backend::Hashed);
        assert_eq!(Backend::Heap.resolve(Backend::Hierarchical), Backend::Heap);
    }

    #[test]
    fn build_produces_working_queues() {
        for forced in Backend::FORCED {
            let mut q = forced.build(Backend::Hierarchical, 256);
            q.schedule(1, 10);
            q.schedule(2, 5);
            let mut fired = Vec::new();
            q.advance_to(10, &mut |id, exp| fired.push((id, exp)));
            assert_eq!(fired, vec![(2, 5), (1, 10)], "backend {forced}");
            assert!(q.is_empty());
        }
    }

    #[test]
    fn forced_list_excludes_native() {
        assert!(!Backend::FORCED.contains(&Backend::Native));
        assert_eq!(Backend::default(), Backend::Native);
    }
}
