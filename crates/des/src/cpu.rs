//! Virtual CPU accounting: busy time, idle time and wakeups.

use simtime::{SimDuration, SimInstant};

/// The idle period after which resumed work counts as a wakeup.
const DOZE_THRESHOLD: SimDuration = SimDuration::from_micros(1);

/// Tracks how much virtual CPU time is spent busy and how often an idle
/// CPU is woken.
///
/// A *wakeup* is recorded whenever work arrives while the CPU has been
/// idle for at least the one-microsecond doze threshold. This is
/// the quantity the kernel's dynticks/deferrable-timer work (paper §2.1)
/// and the "better notion of time" proposal (§5.3) try to minimise: each
/// wakeup forces the processor out of a low-power mode.
#[derive(Debug, Clone)]
pub struct CpuMeter {
    busy: SimDuration,
    wakeups: u64,
    busy_until: SimInstant,
    /// Whether any work has been charged yet (the first work after boot
    /// always counts as a wakeup — the CPU starts idle).
    started: bool,
}

impl Default for CpuMeter {
    fn default() -> Self {
        Self::new()
    }
}

impl CpuMeter {
    /// Creates a meter for a CPU that starts idle.
    pub fn new() -> Self {
        CpuMeter {
            busy: SimDuration::ZERO,
            wakeups: 0,
            busy_until: SimInstant::BOOT,
            started: false,
        }
    }

    /// Charges `cost` of CPU work starting at `at`.
    ///
    /// Work that arrives while the CPU is still busy with earlier work is
    /// serialised after it (single simulated CPU, like the paper's Linux
    /// setup which ran on one processor).
    pub fn on_work(&mut self, at: SimInstant, cost: SimDuration) {
        let was_idle =
            at >= self.busy_until && (!self.started || at - self.busy_until >= DOZE_THRESHOLD);
        if was_idle {
            self.wakeups += 1;
            if self.started {
                // The unbroken sleep interval just ended; its length is the
                // dynticks sleep-residency sample (paper §2.1's energy
                // proxy: longer gaps allow deeper power states).
                telemetry::sim::observe(
                    telemetry::sim::SimHist::CpuIdleGapMicros,
                    (at - self.busy_until).as_micros(),
                );
            }
        }
        self.started = true;
        if at > self.busy_until {
            self.busy_until = at;
        }
        self.busy += cost;
        self.busy_until += cost;
    }

    /// Total CPU time charged.
    pub fn busy_time(&self) -> SimDuration {
        self.busy
    }

    /// Number of idle-to-busy wakeups.
    pub fn wakeups(&self) -> u64 {
        self.wakeups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_millis(ms)
    }

    #[test]
    fn counts_wakeups_after_idle() {
        let mut cpu = CpuMeter::new();
        cpu.on_work(t(0), SimDuration::from_millis(1));
        // Arrives while previous work may have just ended: 1 ms gap > 1 µs.
        cpu.on_work(t(10), SimDuration::from_millis(1));
        cpu.on_work(t(20), SimDuration::from_millis(1));
        assert_eq!(cpu.wakeups(), 3);
        assert_eq!(cpu.busy_time(), SimDuration::from_millis(3));
    }

    #[test]
    fn back_to_back_work_is_one_wakeup() {
        let mut cpu = CpuMeter::new();
        cpu.on_work(t(0), SimDuration::from_millis(5));
        // Arrives at 2 ms, while the CPU is still busy until 5 ms.
        cpu.on_work(t(2), SimDuration::from_millis(1));
        assert_eq!(cpu.wakeups(), 1);
        assert_eq!(cpu.busy_time(), SimDuration::from_millis(6));
    }
}
