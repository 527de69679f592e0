//! The million-connection Apache run, scaled for CI.
//!
//! The `ApacheScale` workload holds ~10⁶ concurrent connections — one
//! keepalive watchdog plus one TCP retransmit timer each — on the
//! sharded per-CPU timer bases. CI runs a scaled-down population that
//! still crosses the 2¹⁶ boundary where a port-only connection identity
//! would collide; set `MILLION_CONN_FULL=1` to run the full million
//! (about 500 simulated seconds).
//!
//! What the smoke pins down, at either scale:
//! - the run builds exactly its target population and drains it — zero
//!   leaked timers, expressed as the conservation identity
//!   `schedules == cancels + expirations + still-pending`;
//! - activity waves migrate live watchdogs between bases (the migration
//!   counter is hot) while keeping every connection alive (no watchdog
//!   closes, no retransmit giveups);
//! - the per-CPU bases stay balanced (the imbalance high-watermark is a
//!   small fraction of the per-base population);
//! - the streaming analysis path keeps its bounded-memory guarantee at
//!   this scale (`analysis_resident_events_high_watermark` never exceeds
//!   one chunk).

use simtime::SimDuration;
use telemetry::{SimCounter, SimGauge};
use timerstudy::experiment::ANALYSIS_CHUNK_EVENTS;
use timerstudy::{Backend, ExperimentSpec, Os};
use trace::NullSink;
use workloads::linux::apache::connection_target;
use workloads::Workload;

const SEED: u64 = 7;

/// CI population: 40 s × 2000 conn/s = 80 000 connections, past the
/// 16-bit boundary. The full run is 500 s → 1 000 000.
fn smoke_duration() -> SimDuration {
    if std::env::var("MILLION_CONN_FULL").is_ok_and(|v| v == "1") {
        SimDuration::from_secs(500)
    } else {
        SimDuration::from_secs(40)
    }
}

#[test]
fn mass_population_builds_migrates_and_drains_clean() {
    let duration = smoke_duration();
    let target = connection_target(duration);
    assert!(
        target > u64::from(u16::MAX),
        "the smoke must cross the 2^16 connection-identity boundary"
    );

    let backend = Backend::Native.with_shards(4);
    let (kernel, metrics) = telemetry::sim::scoped(|| {
        workloads::run_linux_backend(
            Workload::ApacheScale,
            SEED,
            duration,
            Box::new(NullSink),
            netsim::NetFault::none(),
            backend,
        )
    });

    // The population reached its target and every connection survived
    // to the close wave: nothing idled past its watchdog, nothing
    // exhausted its retransmit budget, and the drain closed everything.
    let mass = kernel.mass_table();
    assert_eq!(mass.opened_total(), target);
    assert_eq!(mass.watchdog_closes(), 0, "a wave gap outlived a watchdog");
    assert_eq!(mass.rto_giveups(), 0, "a connection exhausted its RTO");
    assert_eq!(mass.open_count(), 0, "the close wave leaked connections");

    // Zero leaked timers, as conservation across all bases: every
    // schedule is matched by a cancel, an expiration, or a timer still
    // legitimately pending (background kernel/LAN population only —
    // the mass table's own timers are all cancelled by the drain).
    let schedules = metrics.counter(SimCounter::WheelSchedules);
    let cancels = metrics.counter(SimCounter::WheelCancels);
    let expirations = metrics.counter(SimCounter::WheelExpirations);
    let pending = kernel.timer_base().pending_count() as u64;
    assert_eq!(
        schedules,
        cancels + expirations + pending,
        "timer leak: {schedules} schedules vs {cancels} cancels + \
         {expirations} expirations + {pending} pending"
    );
    assert!(
        schedules > 2 * target,
        "the mass population's timer traffic must dominate the run"
    );

    // Waves re-arm from rotated CPUs: cross-base migration is hot.
    let migrations = metrics.counter(SimCounter::WheelBaseMigrations);
    assert!(
        migrations > target,
        "expected at least one migration per connection, got {migrations}"
    );

    // Balanced bases: the worst observed spread between the fullest and
    // emptiest base stays a small fraction of the per-base population.
    let imbalance = metrics.gauge(SimGauge::WheelBaseImbalanceMax);
    let per_base = metrics.gauge(SimGauge::WheelPendingHigh) / u64::from(backend.shards());
    assert!(
        imbalance < per_base / 10,
        "bases unbalanced: spread {imbalance} vs ~{per_base} timers per base"
    );
}

#[test]
fn streaming_analysis_stays_bounded_at_scale() {
    // The full experiment pipeline (workload → streaming analyzer →
    // report) at a population past 2¹⁶, on sharded bases: the resident
    // buffer must stay chunk-bounded no matter how many events the mass
    // population emits.
    let duration = SimDuration::from_secs(40);
    let spec = ExperimentSpec::new(Os::Linux, Workload::ApacheScale, duration, SEED).with_shards(4);
    let result = timerstudy::experiment::run_experiment(spec);
    let peak = result.metrics.gauge(SimGauge::AnalysisResidentEventsHigh);
    assert!(peak > 0, "the analyzer saw no events");
    assert!(
        peak <= ANALYSIS_CHUNK_EVENTS as u64,
        "streaming analysis exceeded its chunk bound: {peak}"
    );
    assert!(result.records > 0);
}
