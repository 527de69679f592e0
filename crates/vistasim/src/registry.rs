//! Lazy closing of registry handles — the paper's *deferred* pattern.
//!
//! "The timer is repeatedly deferred by a constant amount each time as
//! with a watchdog, but after a few iterations expires, before being
//! restarted again. This mode is used for a deferred operation, for
//! example lazy closing of handles to Vista registry contents. The idea
//! is that the expiry triggers an action which should be taken when the
//! activity in question has been idle for some period" (§4.1.1).
//!
//! Each process using the registry gets one KTIMER that every access
//! pushes out by the constant idle window; when accesses pause long
//! enough, it fires and the cached handles are closed.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{Pid, Space};

use crate::kernel::VistaKernel;
use crate::ktimer::{KtAction, KtHandle};

/// The idle window after which cached registry handles close.
pub const LAZY_CLOSE_IDLE: SimDuration = SimDuration::from_secs(5);

/// Per-process lazy-close state.
#[derive(Debug, Default)]
pub struct RegistryLazyClose {
    timers: FoldMap<Pid, KtHandle>,
    /// Completed lazy closes (handle flushes).
    pub closes: u64,
}

impl VistaKernel {
    /// A registry access from `pid`: defer the lazy-close timer by the
    /// constant idle window (re-arming a pending timer — the deferral).
    pub fn registry_access(&mut self, pid: Pid) {
        let now = self.now;
        let h = match self.registry.timers.get(&pid) {
            Some(&h) => h,
            None => {
                let h = self.kt.allocate(
                    &mut self.log,
                    now,
                    "ntoskrnl:registry_lazy_close",
                    KtAction::RegistryLazyClose { pid },
                    pid,
                    0,
                    Space::Kernel,
                );
                self.registry.timers.insert(pid, h);
                h
            }
        };
        self.charge_call(now);
        // KeSetTimer on an already-queued timer implicitly cancels and
        // re-arms it in one operation — the trace shows a bare re-set,
        // which the lifecycle tracker folds into a *deferral*.
        self.kt.ke_set_timer(&mut self.log, now, h, LAZY_CLOSE_IDLE);
    }

    /// Completed lazy closes (for tests).
    pub fn registry_closes(&self) -> u64 {
        self.registry.closes
    }

    /// Expiry path: the activity went idle; flush the cached handles.
    pub(crate) fn registry_lazy_close_fired(&mut self, _pid: Pid, at: SimInstant) {
        self.charge_call(at);
        self.registry.closes += 1;
        // Not re-armed: the next registry access restarts the cycle.
    }
}
