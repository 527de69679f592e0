//! The NT API timer layer: handle-identified timers with APC delivery.
//!
//! `NtCreateTimer`/`NtSetTimer`/`NtCancelTimer` export the kernel timer
//! abstraction to user space, identifying timers via HANDLEs in the kernel
//! handle table and delivering expiry through asynchronous procedure calls
//! (§2.2). The Win32 waitable-timer API is a thin wrapper over this.

use simtime::fasthash::FoldMap;
use simtime::SimDuration;
use trace::{EventKind, Pid, Space};

use crate::kernel::VistaKernel;
use crate::ktimer::{KtAction, KtHandle};

/// NT timer objects by (process, handle slot).
#[derive(Debug, Default)]
pub struct NtTimers {
    handles: FoldMap<(Pid, u32), KtHandle>,
    /// Auto-repeat periods (`NtSetTimer`'s `Period` argument).
    periods: FoldMap<(Pid, u32), SimDuration>,
    next_slot: u32,
}

impl VistaKernel {
    /// `NtCreateTimer`: allocates a timer object, returning its handle
    /// slot.
    pub fn nt_create_timer(&mut self, pid: Pid, origin: &str) -> u32 {
        let now = self.now;
        let slot = self.nt.next_slot;
        self.nt.next_slot += 1;
        let h = self.kt.allocate(
            &mut self.log,
            now,
            origin,
            KtAction::NtApc { pid, handle: slot },
            pid,
            0,
            Space::User,
        );
        self.nt.handles.insert((pid, slot), h);
        self.charge_call(now);
        slot
    }

    /// `NtSetTimer(handle, due)` — one-shot (`Period = 0`).
    pub fn nt_set_timer(&mut self, pid: Pid, slot: u32, due_in: SimDuration) -> bool {
        self.nt_set_timer_periodic(pid, slot, due_in, None)
    }

    /// `NtSetTimer(handle, due, Period)`: with a period the kernel
    /// re-arms the timer on every expiry after delivering the APC.
    pub fn nt_set_timer_periodic(
        &mut self,
        pid: Pid,
        slot: u32,
        due_in: SimDuration,
        period: Option<SimDuration>,
    ) -> bool {
        let now = self.now;
        match self.nt.handles.get(&(pid, slot)) {
            Some(&h) => {
                match period {
                    Some(p) => self.nt.periods.insert((pid, slot), p),
                    None => self.nt.periods.remove(&(pid, slot)),
                };
                self.charge_call(now);
                self.kt.ke_set_timer(&mut self.log, now, h, due_in);
                true
            }
            None => false,
        }
    }

    /// Expiry path: deliver the APC notification and auto-repeat if the
    /// handle has a period.
    pub(crate) fn nt_apc_fired(&mut self, pid: Pid, slot: u32, at: simtime::SimInstant) {
        self.notifications
            .push(crate::kernel::VistaNotify::NtTimerExpired { pid, handle: slot });
        let period = self.nt.periods.get(&(pid, slot)).copied();
        if let (Some(p), Some(&h)) = (period, self.nt.handles.get(&(pid, slot))) {
            self.kt.ke_set_timer(&mut self.log, at, h, p);
        }
    }

    /// `NtCancelTimer(handle)` (also stops any auto-repeat).
    pub fn nt_cancel_timer(&mut self, pid: Pid, slot: u32) -> bool {
        let now = self.now;
        match self.nt.handles.get(&(pid, slot)) {
            Some(&h) => {
                self.nt.periods.remove(&(pid, slot));
                self.charge_call(now);
                self.kt
                    .ke_cancel_timer(&mut self.log, now, h, EventKind::Cancel)
            }
            None => false,
        }
    }

    /// `NtClose` on a timer handle.
    pub fn nt_close_timer(&mut self, pid: Pid, slot: u32) -> bool {
        let now = self.now;
        self.nt.periods.remove(&(pid, slot));
        match self.nt.handles.remove(&(pid, slot)) {
            Some(h) => {
                self.kt
                    .ke_cancel_timer(&mut self.log, now, h, EventKind::Cancel);
                self.kt.free(h);
                true
            }
            None => false,
        }
    }
}
