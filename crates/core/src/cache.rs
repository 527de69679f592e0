//! Memoisation of experiment runs.
//!
//! Determinism makes experiments cacheable: two equal
//! [`ExperimentSpec`]s always produce identical [`ExperimentResult`]s,
//! so each distinct `(os, workload, duration, seed)` combination only
//! ever needs to run once per process. The per-figure drivers and
//! `repro_all` all route through [`global()`], which is what lets the
//! full reproduction reuse the four table workloads across Figures 2-7,
//! Tables 1-3 and the scatter plots instead of re-simulating them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::experiment::{ExperimentResult, ExperimentSpec};
use crate::parallel::run_experiments_parallel;

/// A thread-safe memo table of completed experiments, keyed by spec,
/// counting its own hits and misses.
#[derive(Default)]
pub struct ExperimentCache {
    results: Mutex<HashMap<ExperimentSpec, Arc<ExperimentResult>>>,
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

    /// Returns the result for `spec`, running the experiment only if no
    /// equal spec has been run through this cache before.
    pub fn get_or_run(&self, spec: ExperimentSpec) -> Arc<ExperimentResult> {
        if let Some(hit) = self.lookup(spec) {
            return hit;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = Arc::new(crate::experiment::run_experiment(spec));
        self.insert(spec, result)
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
            let mut seen: HashMap<ExperimentSpec, ()> = HashMap::new();
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

    fn lookup(&self, spec: ExperimentSpec) -> Option<Arc<ExperimentResult>> {
        let hit = self.peek(spec);
        if hit.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// A lookup that does not touch the hit counter (internal plumbing).
    fn peek(&self, spec: ExperimentSpec) -> Option<Arc<ExperimentResult>> {
        self.results
            .lock()
            .expect("experiment cache poisoned")
            .get(&spec)
            .cloned()
    }

    /// First insert wins, so concurrent callers that raced on the same
    /// spec all observe one canonical result.
    fn insert(&self, spec: ExperimentSpec, result: Arc<ExperimentResult>) -> Arc<ExperimentResult> {
        let mut results = self.results.lock().expect("experiment cache poisoned");
        results.entry(spec).or_insert(result).clone()
    }
}

/// The process-wide experiment cache shared by `repro_all` and the
/// per-figure drivers.
pub fn global() -> &'static ExperimentCache {
    static GLOBAL: OnceLock<ExperimentCache> = OnceLock::new();
    GLOBAL.get_or_init(ExperimentCache::new)
}
