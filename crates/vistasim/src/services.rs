//! The kernel's own timer population and the background service load.
//!
//! "The kernel typically sets around a thousand timers per second" on a
//! lived-in desktop (Figure 1), while the controlled Idle workload's
//! kernel accounts for ~120 accesses/second (Table 2). Device drivers and
//! kernel subsystems keep fleets of short periodic DPC timers; we model
//! that as a configurable population of self-re-arming `KernelDpc` timers
//! with realistic period mixes.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::Space;

use crate::kernel::{KernelLoadLevel, VistaKernel};
use crate::ktimer::{KtAction, KtHandle};

/// State of the kernel-internal periodic population.
#[derive(Debug, Default)]
pub struct KernelLoad {
    periods: FoldMap<u64, SimDuration>,
}

/// The period mix for a load level: `(period, how many, origin)`.
fn profile(level: KernelLoadLevel) -> Vec<(SimDuration, u32, &'static str)> {
    match level {
        // ~60 kernel sets/s: a controlled idle install (Table 2's idle
        // kernel activity is ~120 accesses/s, i.e. ~60 set+expire pairs).
        KernelLoadLevel::Idle => vec![
            (SimDuration::from_secs(1), 1, "nt:balance_set_manager"),
            (SimDuration::from_millis(100), 2, "ndis:poll"),
            (SimDuration::from_millis(125), 1, "usbport:frame_poll"),
            (SimDuration::from_millis(250), 2, "storport:io_watchdog"),
            (SimDuration::from_millis(500), 4, "nt:cc_lazy_writer"),
            (SimDuration::from_secs(1), 10, "nt:registry_lazy_flush"),
            (SimDuration::from_secs(10), 4, "pnp:device_poll"),
        ],
        // ~1000 kernel sets/s: the Figure 1 desktop.
        KernelLoadLevel::Desktop => vec![
            (
                SimDuration::from_micros(15_625),
                8,
                "nt:balance_set_manager",
            ),
            (SimDuration::from_millis(10), 4, "usbport:frame_poll"),
            (SimDuration::from_millis(50), 6, "ndis:poll"),
            (
                SimDuration::from_millis(100),
                10,
                "http:connection_scavenger",
            ),
            (SimDuration::from_millis(250), 8, "storport:io_watchdog"),
            (SimDuration::from_millis(500), 10, "nt:cc_lazy_writer"),
            (SimDuration::from_secs(1), 16, "nt:registry_lazy_flush"),
        ],
    }
}

impl VistaKernel {
    /// Allocates and arms the kernel's background periodic population.
    pub(crate) fn boot_kernel_load(&mut self) {
        let mix = profile(self.cfg.kernel_load);
        for (period, count, origin) in mix {
            for _ in 0..count {
                let h = self.kt.allocate(
                    &mut self.log,
                    self.now,
                    origin,
                    KtAction::KernelDpc,
                    0,
                    0,
                    Space::Kernel,
                );
                self.kernel_load.periods.insert(h.0, period);
                // Stagger phases so the population does not beat.
                let phase = self
                    .rng
                    .duration_between(SimDuration::from_micros(100), period);
                self.kt.ke_set_timer(&mut self.log, self.now, h, phase);
            }
        }
    }

    /// Expiry path: re-arm with the same period.
    pub(crate) fn kernel_load_fired(&mut self, handle: KtHandle, at: SimInstant) {
        if let Some(&period) = self.kernel_load.periods.get(&handle.0) {
            self.kt.ke_set_timer(&mut self.log, at, handle, period);
        }
    }
}
