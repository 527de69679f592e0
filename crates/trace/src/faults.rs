//! Deterministic trace-plane fault injection.
//!
//! The paper's methodology (§3) relies on relayfs/ETW tracing being
//! effectively loss-free: the authors sized a 512 MiB buffer so nothing
//! was ever dropped. Real deployments are not that lucky — rings overflow
//! in bursts and coarse clocks smear timestamps. [`FaultSink`] wraps any
//! [`TraceSink`] and injects exactly those two degradations, seeded and
//! fully deterministic, with every dropped record accounted so analysis
//! can report how incomplete its input was.

use simtime::faults::ClockFault;
use simtime::SimRng;

use crate::event::Event;
use crate::logger::TraceSink;

/// Seeded record-drop injection with relayfs overflow semantics.
///
/// Drops are Bernoulli per record at `permille / 1000`, and each hit
/// additionally swallows the following `burst_len - 1` records — ring
/// overflows lose *runs* of consecutive records, not isolated ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DropFault {
    /// Per-record drop probability in permille (10 = 1 %).
    pub permille: u16,
    /// Records lost per overflow episode (minimum 1).
    pub burst_len: u16,
}

impl DropFault {
    /// The disabled fault: nothing is ever dropped.
    pub const fn none() -> Self {
        DropFault {
            permille: 0,
            burst_len: 1,
        }
    }

    /// True when this fault drops nothing.
    pub fn is_none(&self) -> bool {
        self.permille == 0
    }

    /// The default injection preset: 1 % of records lost in bursts of
    /// four — the acceptance-criterion rate for the fault matrix.
    pub const fn one_percent() -> Self {
        DropFault {
            permille: 10,
            burst_len: 4,
        }
    }

    /// The drop probability as a float.
    pub fn probability(&self) -> f64 {
        f64::from(self.permille) / 1000.0
    }
}

impl Default for DropFault {
    fn default() -> Self {
        DropFault::none()
    }
}

/// A [`TraceSink`] adaptor that injects record drops and clock
/// perturbation in front of an inner sink.
///
/// The adaptor owns its own seeded RNG, so the injected fault pattern is a
/// pure function of `(drops, clock, seed)` and the event stream — two runs
/// with the same spec lose exactly the same records. Dropped records are
/// counted in [`FaultSink::dropped`] so downstream accounting can state
/// the exact loss, mirroring the relayfs drop counter.
pub struct FaultSink {
    inner: Box<dyn TraceSink>,
    drops: DropFault,
    clock: ClockFault,
    rng: SimRng,
    dropped: u64,
    remaining_burst: u32,
}

impl FaultSink {
    /// Wraps `inner`, injecting the given faults from `seed`.
    pub fn new(inner: Box<dyn TraceSink>, drops: DropFault, clock: ClockFault, seed: u64) -> Self {
        FaultSink {
            inner,
            drops,
            clock,
            rng: SimRng::new(seed),
            dropped: 0,
            remaining_burst: 0,
        }
    }

    /// Records dropped so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Mutable access to the wrapped sink (to recover results).
    pub fn inner_mut(&mut self) -> &mut dyn TraceSink {
        self.inner.as_mut()
    }
}

impl std::fmt::Debug for FaultSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultSink")
            .field("drops", &self.drops)
            .field("clock", &self.clock)
            .field("dropped", &self.dropped)
            .finish()
    }
}

impl TraceSink for FaultSink {
    fn record(&mut self, event: &Event) {
        if !self.drops.is_none() {
            if self.remaining_burst > 0 {
                self.remaining_burst -= 1;
                self.dropped += 1;
                telemetry::sim::add(telemetry::SimCounter::TraceFaultDrops, 1);
                return;
            }
            if self.rng.chance(self.drops.probability()) {
                self.dropped += 1;
                telemetry::sim::add(telemetry::SimCounter::TraceFaultDrops, 1);
                self.remaining_burst = u32::from(self.drops.burst_len.max(1)) - 1;
                return;
            }
        }
        if !self.clock.is_none() {
            let mut perturbed = *event;
            perturbed.ts = self.clock.perturb(event.ts, &mut self.rng);
            self.inner.record(&perturbed);
            return;
        }
        self.inner.record(event);
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn std::any::Any> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::logger::CollectSink;
    use simtime::SimInstant;

    fn ev(i: u64) -> Event {
        Event::new(SimInstant::from_nanos(i * 1_000), EventKind::Set, i, 0)
    }

    fn collected(sink: &mut FaultSink) -> &Vec<Event> {
        &sink
            .inner_mut()
            .as_any_mut()
            .unwrap()
            .downcast_mut::<CollectSink>()
            .unwrap()
            .events
    }

    #[test]
    fn disabled_faults_pass_everything_through_unchanged() {
        let mut sink = FaultSink::new(
            Box::new(CollectSink::default()),
            DropFault::none(),
            ClockFault::none(),
            1,
        );
        let sent: Vec<Event> = (0..100).map(ev).collect();
        for e in &sent {
            sink.record(e);
        }
        assert_eq!(sink.dropped(), 0);
        assert_eq!(collected(&mut sink), &sent);
    }

    #[test]
    fn drop_accounting_is_exact() {
        let mut sink = FaultSink::new(
            Box::new(CollectSink::default()),
            DropFault::one_percent(),
            ClockFault::none(),
            42,
        );
        let n = 100_000u64;
        for i in 0..n {
            sink.record(&ev(i));
        }
        let delivered = collected(&mut sink).len() as u64;
        assert_eq!(delivered + sink.dropped(), n);
        assert!(sink.dropped() > 0);
        // 1 % Bernoulli in bursts of 4 loses roughly 4 % of records.
        let rate = sink.dropped() as f64 / n as f64;
        assert!((0.02..0.08).contains(&rate), "rate = {rate}");
    }

    #[test]
    fn drops_come_in_bursts() {
        let mut sink = FaultSink::new(
            Box::new(CollectSink::default()),
            DropFault {
                permille: 10,
                burst_len: 4,
            },
            ClockFault::none(),
            7,
        );
        let n = 50_000u64;
        for i in 0..n {
            sink.record(&ev(i));
        }
        // Find the dropped-id runs by diffing delivered timer ids.
        let ids: Vec<u64> = collected(&mut sink).iter().map(|e| e.timer).collect();
        let mut burst_of_four = false;
        let mut prev = None;
        for &id in &ids {
            if let Some(p) = prev {
                if id - p == 5 {
                    burst_of_four = true;
                }
                // A gap is one or more whole bursts back to back; it can
                // never be shorter than one burst.
                assert!(id - p == 1 || id - p >= 5, "gap of {} records", id - p);
            }
            prev = Some(id);
        }
        assert!(burst_of_four, "expected at least one clean 4-record burst");
    }

    #[test]
    fn same_seed_drops_same_records() {
        let run = |seed: u64| {
            let mut sink = FaultSink::new(
                Box::new(CollectSink::default()),
                DropFault::one_percent(),
                ClockFault::none(),
                seed,
            );
            for i in 0..10_000 {
                sink.record(&ev(i));
            }
            let ids: Vec<u64> = collected(&mut sink).iter().map(|e| e.timer).collect();
            (ids, sink.dropped())
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3).0, run(4).0);
    }

    #[test]
    fn clock_fault_perturbs_only_timestamps() {
        let mut sink = FaultSink::new(
            Box::new(CollectSink::default()),
            DropFault::none(),
            ClockFault::jittery(),
            9,
        );
        let sent: Vec<Event> = (0..1_000).map(ev).collect();
        for e in &sent {
            sink.record(e);
        }
        assert_eq!(sink.dropped(), 0);
        let got = collected(&mut sink).clone();
        assert_eq!(got.len(), sent.len());
        let mut moved = 0;
        for (g, s) in got.iter().zip(&sent) {
            let mut expect = *s;
            expect.ts = g.ts;
            assert_eq!(*g, expect, "only the timestamp may change");
            if g.ts != s.ts {
                moved += 1;
            }
        }
        assert!(moved > 0, "jittery clock should move some timestamps");
    }
}
