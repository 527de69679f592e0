//! Winsock2 `select`, implemented over `afd.sys`.
//!
//! "Unlike most Unix variants, these are actually implemented as a
//! blocking ioctl on the afd.sys device driver, which allocates a fresh
//! KTIMER object and requests a DPC callback at the appropriate expiry
//! time to complete the ioctl" (§2.2). Fresh allocation per call is what
//! defeats address-based timer identity on Vista: repeatedly calling
//! `select` on the same socket does not operate on the same kernel timer.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventKind, Pid, Space, Tid};

use crate::kernel::{VistaKernel, VistaNotify};
use crate::ktimer::{KtAction, KtHandle};

/// In-flight select ioctls by (pid, tid).
#[derive(Debug, Default)]
pub struct AfdSelects {
    inflight: FoldMap<(Pid, Tid), KtHandle>,
}

impl AfdSelects {
    /// Number of blocked select calls.
    pub fn inflight_count(&self) -> usize {
        self.inflight.len()
    }
}

impl VistaKernel {
    /// `select(..., timeout)`: blocks the calling thread on a fresh
    /// `afd.sys` KTIMER.
    pub fn winsock_select(&mut self, pid: Pid, tid: Tid, origin: &str, timeout: SimDuration) {
        let now = self.now;
        // Fresh allocation every call — the Vista identity problem.
        let h = self.kt.allocate(
            &mut self.log,
            now,
            origin,
            KtAction::AfdSelect { pid, tid },
            pid,
            tid,
            Space::User,
        );
        self.charge_call(now);
        self.kt.ke_set_timer(&mut self.log, now, h, timeout);
        if let Some(old) = self.afd.inflight.insert((pid, tid), h) {
            // A thread can only block in one select at a time; a stale
            // entry means the previous call already completed.
            self.kt.free(old);
        }
    }

    /// Socket activity completes the ioctl early: the fresh KTIMER is
    /// cancelled and freed.
    ///
    /// Returns `false` if the thread was not blocked in select.
    pub fn winsock_ready(&mut self, pid: Pid, tid: Tid) -> bool {
        let now = self.now;
        match self.afd.inflight.remove(&(pid, tid)) {
            Some(h) => {
                self.charge_call(now);
                self.kt
                    .ke_cancel_timer(&mut self.log, now, h, EventKind::WaitSatisfied);
                self.kt.free(h);
                true
            }
            None => false,
        }
    }

    /// Number of threads blocked in select (for tests).
    pub fn winsock_inflight(&self) -> usize {
        self.afd.inflight_count()
    }

    /// Expiry path: the select timed out; the ioctl completes.
    pub(crate) fn afd_select_fired(
        &mut self,
        handle: KtHandle,
        pid: Pid,
        tid: Tid,
        _at: SimInstant,
    ) {
        self.afd.inflight.remove(&(pid, tid));
        self.kt.free(handle);
        self.notifications
            .push(VistaNotify::SelectTimedOut { pid, tid });
    }
}
