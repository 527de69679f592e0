//! Waits on dispatcher objects with timeouts, and thread sleep.
//!
//! `WaitForSingleObject`/`WaitForMultipleObjects` accept an absolute or
//! relative timeout; the timeout is implemented by a *dedicated KTIMER in
//! the kernel's thread data structure* with a fast-path insertion into the
//! timer ring (§2.2). That dedicated object gives per-thread-stable timer
//! addresses — one of the few stable identities in Vista traces. `Sleep`
//! is the same mechanism with an unsignallable object.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventKind, Pid, Space, Tid};

use crate::kernel::{VistaKernel, VistaNotify};
use crate::ktimer::{KtAction, KtHandle};

/// One thread's wait state.
#[derive(Debug, Clone, Copy)]
struct ThreadWait {
    /// The thread's dedicated KTIMER (allocated once, reused forever).
    ktimer: KtHandle,
    /// Whether a timed wait is currently in progress.
    waiting: bool,
}

/// The per-thread wait timer table.
#[derive(Debug, Default)]
pub struct WaitTable {
    threads: FoldMap<(Pid, Tid), ThreadWait>,
}

impl VistaKernel {
    /// Ensures thread `(pid, tid)` has its dedicated wait KTIMER.
    fn thread_wait_timer(&mut self, pid: Pid, tid: Tid, origin: &str) -> KtHandle {
        if let Some(w) = self.waits.threads.get(&(pid, tid)) {
            return w.ktimer;
        }
        let h = self.kt.allocate(
            &mut self.log,
            self.now,
            origin,
            KtAction::WaitTimeout { pid, tid },
            pid,
            tid,
            Space::User,
        );
        self.waits.threads.insert(
            (pid, tid),
            ThreadWait {
                ktimer: h,
                waiting: false,
            },
        );
        h
    }

    /// `WaitForSingleObject(obj, timeout)`: blocks the thread with a
    /// timeout. The driver later calls [`VistaKernel::signal_wait`] when
    /// the awaited object is signalled, or receives
    /// [`VistaNotify::WaitTimedOut`] if the timeout wins.
    pub fn wait_for_single_object(
        &mut self,
        pid: Pid,
        tid: Tid,
        origin: &str,
        timeout: SimDuration,
    ) {
        let h = self.thread_wait_timer(pid, tid, origin);
        self.charge_call(self.now);
        self.kt.ke_set_timer(&mut self.log, self.now, h, timeout);
        if let Some(w) = self.waits.threads.get_mut(&(pid, tid)) {
            w.waiting = true;
        }
    }

    /// `Sleep(duration)`: a wait that nothing will satisfy.
    pub fn sleep(&mut self, pid: Pid, tid: Tid, origin: &str, duration: SimDuration) {
        self.wait_for_single_object(pid, tid, origin, duration);
    }

    /// The awaited object was signalled: the wait is satisfied and the
    /// thread's timeout is cancelled (logged as the instrumentation's
    /// `satisfied = true` unblock event).
    ///
    /// Returns `false` if the thread was not in a timed wait.
    pub fn signal_wait(&mut self, pid: Pid, tid: Tid) -> bool {
        let Some(w) = self.waits.threads.get_mut(&(pid, tid)) else {
            return false;
        };
        if !w.waiting {
            return false;
        }
        w.waiting = false;
        let h = w.ktimer;
        self.charge_call(self.now);
        self.kt
            .ke_cancel_timer(&mut self.log, self.now, h, EventKind::WaitSatisfied)
    }

    /// Returns `true` if the thread is blocked in a timed wait.
    pub fn is_waiting(&self, pid: Pid, tid: Tid) -> bool {
        self.waits
            .threads
            .get(&(pid, tid))
            .map(|w| w.waiting)
            .unwrap_or(false)
    }

    /// Expiry path: the wait timed out.
    pub(crate) fn wait_timeout_fired(&mut self, pid: Pid, tid: Tid, _at: SimInstant) {
        if let Some(w) = self.waits.threads.get_mut(&(pid, tid)) {
            w.waiting = false;
        }
        self.notifications
            .push(VistaNotify::WaitTimedOut { pid, tid });
    }
}
