//! Benchmark and reproduction binaries for the paper.

use std::time::Instant;

use timerstudy::ExperimentResult;

/// Prints the one-line `[telemetry] stage=...` summary every reproduction
/// binary emits when it finishes. Goes to stderr: stdout is reserved for
/// the artifact text, which the golden-output tests compare byte-for-byte.
pub fn print_stage_summary<'a>(
    stage: &str,
    results: impl IntoIterator<Item = &'a ExperimentResult>,
    started: Instant,
) {
    let mut experiments = 0u64;
    let mut trace_records = 0u64;
    for result in results {
        experiments += 1;
        trace_records += result.records;
    }
    let cache = timerstudy::cache::global();
    eprintln!(
        "{}",
        telemetry::stage_summary_line(
            stage,
            &[
                ("experiments", experiments.to_string()),
                ("trace_records", trace_records.to_string()),
                ("cache_hits", cache.hits().to_string()),
                ("cache_misses", cache.misses().to_string()),
                ("wall_ms", started.elapsed().as_millis().to_string()),
            ],
        )
    );
}
