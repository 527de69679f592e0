//! The deterministic sim plane.
//!
//! Sim-plane metrics are derived only from virtual time and event counts,
//! never from wall clocks, allocation addresses or scheduling. Because an
//! experiment is a pure function of its spec and runs confined to one
//! thread, a thread-local accumulator scoped around the run captures a
//! per-experiment snapshot that is bit-identical no matter which thread —
//! or how many — executed it. `run_experiment` wraps every run in
//! [`scoped`] and stores the resulting [`SimSnapshot`] on the experiment
//! result, which is also what makes the plane cache-transparent: a cache
//! hit replays the stored snapshot instead of re-running the simulation.
//!
//! Metric identities are fixed enums rather than string names so the hot
//! path is an array index, not a map lookup (the paper charges 89 ns per
//! trace record; our budget per counter bump is a few nanoseconds, and
//! the `telemetry_overhead_smoke` test of the `timerstudy` crate holds
//! the whole plane under 10 %).

use std::cell::RefCell;

use crate::hist::LogHistogram;

/// Sim-plane counters (monotone event counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimCounter {
    /// Timers armed (or re-armed) in any timer-queue backend.
    WheelSchedules,
    /// Entries moved by hierarchical-wheel cascades.
    WheelCascadeMoves,
    /// Timers fired by any timer-queue backend.
    WheelExpirations,
    /// Pending timers cancelled in any timer-queue backend.
    WheelCancels,
    /// Deferred-maintenance entry touches: cascade moves (hierarchical),
    /// not-yet-due revisits (hashed). The exact sorted list does no
    /// deferred work and never bumps this.
    WheelCascades,
    /// Trace records logged through `TraceLog`.
    TraceRecords,
    /// Bytes encoded into ring buffers.
    TraceRingBytes,
    /// Records dropped by full ring buffers.
    TraceRingDrops,
    /// Records swallowed by the fault-injection sink.
    TraceFaultDrops,
    /// Network segments sent over simulated links.
    NetSegmentsSent,
    /// Network segments (or their ACKs) lost.
    NetSegmentsLost,
    /// TCP retransmissions fired (both OS models).
    NetRetransmits,
    /// Link samples taken while a fault episode was active.
    NetFaultedSamples,
    /// Timestamps perturbed by an active clock fault.
    ClockPerturbations,
    /// Virtual nanoseconds advanced by the simulated kernels.
    SimTimeAdvancedNs,
    /// Retransmission-class timer expirations (TCP RTO, SYN retransmit,
    /// mass-table RTO, Vista wheel retransmit) — the events whose waited
    /// durations feed the fixed-vs-adaptive retransmit-latency figure.
    AdaptiveRtoExpirations,
    /// Total virtual nanoseconds those retransmission expirations spent
    /// armed before firing (the recovery latency the paper's §2.2.2
    /// backoff example pays). Recorded in every policy mode.
    AdaptiveRtoWaitNs,
    /// Timer arms whose value came from a warm learned estimator instead
    /// of the historical constant — zero unless the adaptive policy is
    /// `Learned`.
    AdaptiveLearnedArms,
    /// Chunk buffers handed back to the streaming analysis pipeline for
    /// reuse instead of being freshly allocated — every flush after the
    /// first on a sink reuses the same backing storage.
    AnalysisChunkReuse,
    /// Timer nodes recycled through a backend's slab free list instead of
    /// growing the arena (a disarm/expire made the slot available and a
    /// later arm reclaimed it).
    ArenaRecycles,
}

impl SimCounter {
    /// Every counter, in stable export order. New counters are appended so
    /// existing counters' indices stay stable.
    pub const ALL: [SimCounter; 20] = [
        SimCounter::WheelSchedules,
        SimCounter::WheelCascadeMoves,
        SimCounter::WheelExpirations,
        SimCounter::WheelCancels,
        SimCounter::WheelCascades,
        SimCounter::TraceRecords,
        SimCounter::TraceRingBytes,
        SimCounter::TraceRingDrops,
        SimCounter::TraceFaultDrops,
        SimCounter::NetSegmentsSent,
        SimCounter::NetSegmentsLost,
        SimCounter::NetRetransmits,
        SimCounter::NetFaultedSamples,
        SimCounter::ClockPerturbations,
        SimCounter::SimTimeAdvancedNs,
        SimCounter::AdaptiveRtoExpirations,
        SimCounter::AdaptiveRtoWaitNs,
        SimCounter::AdaptiveLearnedArms,
        SimCounter::AnalysisChunkReuse,
        SimCounter::ArenaRecycles,
    ];

    /// Stable metric name (Prometheus conventions).
    pub const fn name(self) -> &'static str {
        match self {
            SimCounter::WheelSchedules => "wheel_schedules_total",
            SimCounter::WheelCascadeMoves => "wheel_cascade_moves_total",
            SimCounter::WheelExpirations => "wheel_expirations_total",
            SimCounter::WheelCancels => "wheel_cancels_total",
            SimCounter::WheelCascades => "wheel_cascades_total",
            SimCounter::TraceRecords => "trace_records_total",
            SimCounter::TraceRingBytes => "trace_ring_bytes_total",
            SimCounter::TraceRingDrops => "trace_ring_dropped_total",
            SimCounter::TraceFaultDrops => "trace_fault_dropped_total",
            SimCounter::NetSegmentsSent => "net_segments_sent_total",
            SimCounter::NetSegmentsLost => "net_segments_lost_total",
            SimCounter::NetRetransmits => "net_retransmits_total",
            SimCounter::NetFaultedSamples => "net_faulted_samples_total",
            SimCounter::ClockPerturbations => "clock_perturbations_total",
            SimCounter::SimTimeAdvancedNs => "sim_time_advanced_ns_total",
            SimCounter::AdaptiveRtoExpirations => "adaptive_rto_expirations_total",
            SimCounter::AdaptiveRtoWaitNs => "adaptive_rto_wait_ns_total",
            SimCounter::AdaptiveLearnedArms => "adaptive_learned_arms_total",
            SimCounter::AnalysisChunkReuse => "analysis_chunk_reuse_total",
            SimCounter::ArenaRecycles => "arena_recycles_total",
        }
    }
}

/// Sim-plane gauges (high-watermarks; merged by maximum).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimGauge {
    /// Most timers simultaneously pending in the wheel.
    WheelPendingHigh,
    /// Most bytes simultaneously stored in a ring buffer.
    RingBytesHigh,
    /// Largest string-table size reached.
    StringTableSize,
    /// Most events resident in the analysis pipeline's chunk buffer at
    /// once — the streaming pipeline's whole memory footprint, bounded by
    /// the chunk size regardless of trace length.
    AnalysisResidentEventsHigh,
    /// Most timer nodes a backend slab arena ever held live at once — the
    /// arena's whole memory footprint, which the free list keeps from
    /// growing past the workload's peak concurrency.
    ArenaNodesHigh,
}

impl SimGauge {
    /// Every gauge, in stable export order. New gauges are appended so
    /// existing gauges' indices stay stable.
    pub const ALL: [SimGauge; 5] = [
        SimGauge::WheelPendingHigh,
        SimGauge::RingBytesHigh,
        SimGauge::StringTableSize,
        SimGauge::AnalysisResidentEventsHigh,
        SimGauge::ArenaNodesHigh,
    ];

    /// Stable metric name.
    pub const fn name(self) -> &'static str {
        match self {
            SimGauge::WheelPendingHigh => "wheel_pending_high_watermark",
            SimGauge::RingBytesHigh => "trace_ring_bytes_high_watermark",
            SimGauge::StringTableSize => "trace_string_table_size",
            SimGauge::AnalysisResidentEventsHigh => "analysis_resident_events_high_watermark",
            SimGauge::ArenaNodesHigh => "arena_nodes_high_watermark",
        }
    }
}

/// Sim-plane histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimHist {
    /// Entries moved per individual cascade operation.
    WheelCascadeBatch,
    /// Sampled link round-trip times, in microseconds.
    NetRttMicros,
    /// Idle intervals the simulated CPU slept between wakeups, in
    /// microseconds — the dynticks sleep-residency distribution whose
    /// upper buckets are the paper's energy proxy (longer unbroken sleep
    /// = deeper power states).
    CpuIdleGapMicros,
}

impl SimHist {
    /// Every histogram, in stable export order.
    pub const ALL: [SimHist; 3] = [
        SimHist::WheelCascadeBatch,
        SimHist::NetRttMicros,
        SimHist::CpuIdleGapMicros,
    ];

    /// Stable metric name.
    pub const fn name(self) -> &'static str {
        match self {
            SimHist::WheelCascadeBatch => "wheel_cascade_batch_entries",
            SimHist::NetRttMicros => "net_rtt_us",
            SimHist::CpuIdleGapMicros => "cpu_idle_gap_us",
        }
    }
}

const NUM_COUNTERS: usize = SimCounter::ALL.len();
const NUM_GAUGES: usize = SimGauge::ALL.len();
const NUM_HISTS: usize = SimHist::ALL.len();

/// A complete copy of the sim plane at one moment — the unit both stored
/// per experiment result and aggregated into run reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimSnapshot {
    counters: [u64; NUM_COUNTERS],
    gauges: [u64; NUM_GAUGES],
    hists: [LogHistogram; NUM_HISTS],
}

impl SimSnapshot {
    /// An all-zero snapshot.
    pub const fn empty() -> Self {
        SimSnapshot {
            counters: [0; NUM_COUNTERS],
            gauges: [0; NUM_GAUGES],
            hists: [LogHistogram::new(); NUM_HISTS],
        }
    }

    /// One counter's value.
    pub fn counter(&self, c: SimCounter) -> u64 {
        self.counters[index_of_counter(c)]
    }

    /// One gauge's value.
    pub fn gauge(&self, g: SimGauge) -> u64 {
        self.gauges[index_of_gauge(g)]
    }

    /// One histogram.
    pub fn hist(&self, h: SimHist) -> &LogHistogram {
        &self.hists[index_of_hist(h)]
    }

    /// Folds `other` into `self`: counters add, gauges take the maximum,
    /// histograms merge bucket-wise.
    pub fn merge(&mut self, other: &SimSnapshot) {
        for (mine, theirs) in self.counters.iter_mut().zip(other.counters.iter()) {
            *mine += theirs;
        }
        for (mine, theirs) in self.gauges.iter_mut().zip(other.gauges.iter()) {
            *mine = (*mine).max(*theirs);
        }
        for (mine, theirs) in self.hists.iter_mut().zip(other.hists.iter()) {
            mine.merge(theirs);
        }
    }
}

impl Default for SimSnapshot {
    fn default() -> Self {
        SimSnapshot::empty()
    }
}

fn index_of_counter(c: SimCounter) -> usize {
    c as usize
}

fn index_of_gauge(g: SimGauge) -> usize {
    g as usize
}

fn index_of_hist(h: SimHist) -> usize {
    h as usize
}

thread_local! {
    static SIM: RefCell<SimSnapshot> = const { RefCell::new(SimSnapshot::empty()) };
}

/// Adds `n` to a sim-plane counter on this thread.
#[inline]
pub fn add(c: SimCounter, n: u64) {
    if !crate::enabled() {
        return;
    }
    SIM.with(|s| s.borrow_mut().counters[index_of_counter(c)] += n);
}

/// Raises a sim-plane high-watermark gauge to at least `v`.
#[inline]
pub fn gauge_max(g: SimGauge, v: u64) {
    if !crate::enabled() {
        return;
    }
    SIM.with(|s| {
        let mut s = s.borrow_mut();
        let slot = &mut s.gauges[index_of_gauge(g)];
        if v > *slot {
            *slot = v;
        }
    });
}

/// Records one observation in a sim-plane histogram.
#[inline]
pub fn observe(h: SimHist, v: u64) {
    if !crate::enabled() {
        return;
    }
    SIM.with(|s| s.borrow_mut().hists[index_of_hist(h)].record(v));
}

/// A copy of this thread's current accumulation.
pub fn snapshot() -> SimSnapshot {
    SIM.with(|s| s.borrow().clone())
}

/// Zeroes this thread's accumulation.
pub fn reset() {
    SIM.with(|s| *s.borrow_mut() = SimSnapshot::empty());
}

/// Runs `f` in a fresh sim scope and returns its isolated snapshot.
///
/// The surrounding scope's accumulation is saved, zeroed for the
/// duration of `f`, and afterwards restored *merged with* the inner
/// snapshot — so nesting composes and a worker thread's top-level
/// accumulation still reflects everything it executed.
pub fn scoped<T>(f: impl FnOnce() -> T) -> (T, SimSnapshot) {
    let saved = SIM.with(|s| std::mem::take(&mut *s.borrow_mut()));
    let out = f();
    let inner = SIM.with(|s| std::mem::take(&mut *s.borrow_mut()));
    SIM.with(|s| {
        let mut outer = saved;
        outer.merge(&inner);
        *s.borrow_mut() = outer;
    });
    (out, inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_isolates_and_restores() {
        let _on = crate::switch_lock::needs_recording();
        reset();
        add(SimCounter::WheelSchedules, 3);
        let ((), inner) = scoped(|| {
            add(SimCounter::WheelSchedules, 7);
            gauge_max(SimGauge::WheelPendingHigh, 10);
            observe(SimHist::NetRttMicros, 130_000);
        });
        assert_eq!(inner.counter(SimCounter::WheelSchedules), 7);
        assert_eq!(inner.gauge(SimGauge::WheelPendingHigh), 10);
        assert_eq!(inner.hist(SimHist::NetRttMicros).count(), 1);
        // The outer accumulation now contains both.
        let outer = snapshot();
        assert_eq!(outer.counter(SimCounter::WheelSchedules), 10);
        assert_eq!(outer.gauge(SimGauge::WheelPendingHigh), 10);
        reset();
    }

    #[test]
    fn nested_scopes_compose() {
        let _on = crate::switch_lock::needs_recording();
        reset();
        let ((), outer) = scoped(|| {
            add(SimCounter::TraceRecords, 1);
            let ((), inner) = scoped(|| add(SimCounter::TraceRecords, 5));
            assert_eq!(inner.counter(SimCounter::TraceRecords), 5);
        });
        assert_eq!(outer.counter(SimCounter::TraceRecords), 6);
        reset();
    }

    #[test]
    fn merge_adds_counters_and_maxes_gauges() {
        let _on = crate::switch_lock::needs_recording();
        let mut a = SimSnapshot::empty();
        let ((), b) = scoped(|| {
            add(SimCounter::NetSegmentsSent, 4);
            gauge_max(SimGauge::StringTableSize, 9);
        });
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.counter(SimCounter::NetSegmentsSent), 8);
        assert_eq!(a.gauge(SimGauge::StringTableSize), 9);
    }

    #[test]
    fn disabled_records_nothing() {
        let _switch = crate::switch_lock::flips_recording();
        reset();
        crate::set_enabled(false);
        add(SimCounter::WheelSchedules, 1);
        observe(SimHist::NetRttMicros, 1);
        gauge_max(SimGauge::RingBytesHigh, 1);
        crate::set_enabled(true);
        let s = snapshot();
        assert_eq!(s.counter(SimCounter::WheelSchedules), 0);
        assert_eq!(s.gauge(SimGauge::RingBytesHigh), 0);
        reset();
    }
}
