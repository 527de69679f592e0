//! Win32 `SetTimer`/`KillTimer`: auto-repeating GUI timers.
//!
//! The Win32 API "wraps these APIs in a form more suitable for
//! event-driven GUI applications": `SetTimer(hwnd, id, elapse)` delivers
//! `WM_TIMER` messages into the application's message queue, repeating
//! until `KillTimer` (§2.2). GUI applications — the paper's browser and
//! Outlook — lean on these heavily, which is why Vista traces are
//! expiry-dominated: a GUI timer *always* expires and re-arms.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventKind, Pid, Space};

use crate::kernel::{VistaKernel, VistaNotify};
use crate::ktimer::{KtAction, KtHandle};

/// One Win32 timer.
#[derive(Debug, Clone, Copy)]
struct W32Timer {
    ktimer: KtHandle,
    elapse: SimDuration,
}

/// All Win32 timers, keyed by (process, timer id).
#[derive(Debug, Default)]
pub struct Win32Timers {
    timers: FoldMap<(Pid, u32), W32Timer>,
}

impl VistaKernel {
    /// `SetTimer(hwnd, id, elapse)`: creates (or re-programs) a repeating
    /// GUI timer.
    pub fn win32_set_timer(&mut self, pid: Pid, id: u32, origin: &str, elapse: SimDuration) {
        let now = self.now;
        self.charge_call(now);
        match self.win32.timers.get_mut(&(pid, id)) {
            Some(t) => {
                t.elapse = elapse;
                let h = t.ktimer;
                self.kt
                    .ke_cancel_timer(&mut self.log, now, h, EventKind::Cancel);
                self.kt.ke_set_timer(&mut self.log, now, h, elapse);
            }
            None => {
                let h = self.kt.allocate(
                    &mut self.log,
                    now,
                    origin,
                    KtAction::WmTimer { pid, id },
                    pid,
                    0,
                    Space::User,
                );
                self.win32
                    .timers
                    .insert((pid, id), W32Timer { ktimer: h, elapse });
                self.kt.ke_set_timer(&mut self.log, now, h, elapse);
            }
        }
    }

    /// `KillTimer(hwnd, id)`.
    pub fn win32_kill_timer(&mut self, pid: Pid, id: u32) -> bool {
        let now = self.now;
        match self.win32.timers.remove(&(pid, id)) {
            Some(t) => {
                self.charge_call(now);
                self.kt
                    .ke_cancel_timer(&mut self.log, now, t.ktimer, EventKind::Cancel);
                self.kt.free(t.ktimer);
                true
            }
            None => false,
        }
    }

    /// `CreateWaitableTimer`: the Win32 wrapper over `NtCreateTimer`
    /// (§2.2: "expose the NT API interface largely unmodified"). Returns
    /// the handle slot.
    pub fn create_waitable_timer(&mut self, pid: Pid, origin: &str) -> u32 {
        self.nt_create_timer(pid, origin)
    }

    /// `SetWaitableTimer(handle, due, period)`.
    pub fn set_waitable_timer(
        &mut self,
        pid: Pid,
        handle: u32,
        due_in: SimDuration,
        period: Option<SimDuration>,
    ) -> bool {
        self.nt_set_timer_periodic(pid, handle, due_in, period)
    }

    /// `CancelWaitableTimer(handle)`.
    pub fn cancel_waitable_timer(&mut self, pid: Pid, handle: u32) -> bool {
        self.nt_cancel_timer(pid, handle)
    }

    /// Expiry path: post `WM_TIMER` and auto-repeat.
    pub(crate) fn wm_timer_fired(&mut self, pid: Pid, id: u32, at: SimInstant) {
        if let Some(t) = self.win32.timers.get(&(pid, id)) {
            let (h, elapse) = (t.ktimer, t.elapse);
            self.kt.ke_set_timer(&mut self.log, at, h, elapse);
            self.notifications.push(VistaNotify::WmTimer { pid, id });
        }
    }
}
