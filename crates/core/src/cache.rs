//! Memoisation of experiment runs.
//!
//! Determinism makes experiments cacheable: two equal
//! [`ExperimentSpec`]s always produce identical [`ExperimentResult`]s,
//! so each distinct `(os, workload, duration, seed)` combination only
//! ever needs to run once per process. [`figures::reproduce`], which
//! `repro_all` calls, routes its batch through [`global()`]; the batch
//! names each of the nine experiments once, and the four table
//! workloads feed Figures 2-7, Tables 1-3 and the scatter plots from
//! that one run.
//!
//! [`figures::reproduce`]: crate::figures::reproduce

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use simtime::fasthash::FoldMap;

use crate::experiment::{ExperimentResult, ExperimentSpec};
use crate::parallel::run_experiments_parallel;

/// A thread-safe memo table of completed experiments, keyed by spec,
/// counting its own hits and misses.
#[derive(Default)]
pub struct ExperimentCache {
    results: Mutex<FoldMap<ExperimentSpec, Arc<ExperimentResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for ExperimentCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExperimentCache")
            .field("len", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .finish()
    }
}

impl ExperimentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ExperimentCache::default()
    }

    /// Returns results for every spec in request order, running each
    /// *distinct* uncached spec exactly once — in parallel when there is
    /// more than one to run. Requests answered without a run (already
    /// cached, or duplicates of a spec in the same batch) count as hits;
    /// each spec actually run counts as one miss.
    pub fn run_all(&self, specs: &[ExperimentSpec]) -> Vec<ExperimentResult> {
        // Collect the distinct uncached specs in first-seen order so the
        // parallel batch is deterministic regardless of duplicates.
        let mut todo: Vec<ExperimentSpec> = Vec::new();
        {
            let mut seen: FoldMap<ExperimentSpec, ()> = FoldMap::default();
            let results = self.results.lock().expect("experiment cache poisoned");
            for &spec in specs {
                if results.contains_key(&spec) || seen.insert(spec, ()).is_some() {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                } else {
                    todo.push(spec);
                }
            }
        }
        if !todo.is_empty() {
            self.misses.fetch_add(todo.len() as u64, Ordering::Relaxed);
            let fresh = run_experiments_parallel(&todo);
            for (spec, result) in todo.into_iter().zip(fresh) {
                self.insert(spec, Arc::new(result));
            }
        }
        specs
            .iter()
            .map(|&spec| {
                let hit = self
                    .peek(spec)
                    .expect("every requested spec was just inserted or already cached");
                (*hit).clone()
            })
            .collect()
    }

    /// Cache hits so far (lookups answered without running).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses so far (experiments actually run).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct specs cached.
    pub fn len(&self) -> usize {
        self.results
            .lock()
            .expect("experiment cache poisoned")
            .len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The cached result for `spec`, if any; counts neither a hit nor a
    /// miss.
    fn peek(&self, spec: ExperimentSpec) -> Option<Arc<ExperimentResult>> {
        self.results
            .lock()
            .expect("experiment cache poisoned")
            .get(&spec)
            .cloned()
    }

    /// First insert wins, so concurrent callers that raced on the same
    /// spec all observe one canonical result.
    fn insert(&self, spec: ExperimentSpec, result: Arc<ExperimentResult>) {
        let mut results = self.results.lock().expect("experiment cache poisoned");
        results.entry(spec).or_insert(result);
    }
}

/// The process-wide experiment cache [`figures::reproduce`] runs its
/// batch through.
///
/// [`figures::reproduce`]: crate::figures::reproduce
pub fn global() -> &'static ExperimentCache {
    static GLOBAL: OnceLock<ExperimentCache> = OnceLock::new();
    GLOBAL.get_or_init(ExperimentCache::new)
}
