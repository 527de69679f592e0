//! The user-space timer syscall layer.
//!
//! Section 2.1 of the paper: only `timer_settime` and `alarm` set a timer
//! without blocking; every other syscall (`select`, `poll`, `epoll_wait`,
//! `nanosleep`) sets a timeout as the latest return time of a blocking
//! call. Relative values are measured directly at the system call, so no
//! stale-now jitter applies (§3.1).
//!
//! `select` has the countdown semantics behind Figure 4: when it returns
//! early due to file-descriptor activity, Linux writes the *remaining*
//! time back into the timeout argument, and programs like X and icewm pass
//! that updated value straight back in, producing the characteristic
//! sawtooth of repeatedly counting-down timeouts.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventFlags, Pid, Space, Tid};

use crate::hrtimer::HrHandle;
use crate::kernel::{LinuxKernel, Notify};
use crate::timers::{Callback, TimerHandle, UserKind};

/// Per-task syscall timer registry (one slot per (task, syscall kind),
/// mirroring the kernel-stack `schedule_timeout` timer reuse that makes
/// Linux select timers correlate with stable addresses).
#[derive(Debug, Default)]
pub struct SyscallTimers {
    by_task: FoldMap<(Pid, Tid, UserKind), TimerHandle>,
    hr_by_task: FoldMap<(Pid, Tid), HrHandle>,
    /// POSIX interval timers by (pid, user timer id).
    posix: FoldMap<(Pid, u32), TimerHandle>,
    /// Auto-repeat intervals of armed POSIX timers (`it_interval`).
    posix_intervals: FoldMap<TimerHandle, SimDuration>,
}

impl LinuxKernel {
    /// Looks up or creates the timer backing a `(task, kind)` wait.
    fn user_timer(&mut self, pid: Pid, tid: Tid, kind: UserKind, origin: &str) -> TimerHandle {
        if let Some(&h) = self.syscall_timers.by_task.get(&(pid, tid, kind)) {
            return h;
        }
        let h = self.base.init_timer(
            &mut self.log,
            self.now,
            origin,
            Callback::User(kind),
            pid,
            tid,
            Space::User,
        );
        self.syscall_timers.by_task.insert((pid, tid, kind), h);
        h
    }

    /// `select(2)` with a timeout: arms the task's select timer.
    pub fn sys_select(
        &mut self,
        pid: Pid,
        tid: Tid,
        origin: &str,
        timeout: SimDuration,
    ) -> TimerHandle {
        let h = self.user_timer(pid, tid, UserKind::Select, origin);
        self.charge_call(self.now);
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            h,
            timeout,
            SimDuration::ZERO,
            EventFlags::default(),
        );
        h
    }

    /// File-descriptor activity ends a `select` early: the timer is
    /// cancelled and the *remaining* time is returned (what the kernel
    /// writes back into the timeout argument).
    pub fn sys_select_return(&mut self, handle: TimerHandle) -> SimDuration {
        let remaining = self
            .base
            .expiry_of(handle)
            .map(|j| self.base.clock().instant_of(j).duration_since(self.now))
            .unwrap_or(SimDuration::ZERO);
        self.charge_call(self.now);
        self.base.del_timer(&mut self.log, self.now, handle);
        remaining
    }

    /// `poll(2)` with a timeout.
    pub fn sys_poll(
        &mut self,
        pid: Pid,
        tid: Tid,
        origin: &str,
        timeout: SimDuration,
    ) -> TimerHandle {
        let h = self.user_timer(pid, tid, UserKind::Poll, origin);
        self.charge_call(self.now);
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            h,
            timeout,
            SimDuration::ZERO,
            EventFlags::default(),
        );
        h
    }

    /// Ends a blocking `poll` early (fd became ready).
    pub fn sys_poll_return(&mut self, handle: TimerHandle) {
        self.charge_call(self.now);
        self.base.del_timer(&mut self.log, self.now, handle);
    }

    /// `alarm(2)`: arms (or with zero, cancels) the per-process alarm.
    pub fn sys_alarm(&mut self, pid: Pid, origin: &str, seconds: u64) -> Option<TimerHandle> {
        let h = self.user_timer(pid, 0, UserKind::Alarm, origin);
        self.charge_call(self.now);
        if seconds == 0 {
            self.base.del_timer(&mut self.log, self.now, h);
            None
        } else {
            self.base.mod_timer_in(
                &mut self.log,
                self.now,
                h,
                SimDuration::from_secs(seconds),
                SimDuration::ZERO,
                EventFlags::default(),
            );
            Some(h)
        }
    }

    /// POSIX `timer_settime`: arms timer `timer_id` of process `pid` as a
    /// one-shot (`it_interval = 0`).
    pub fn sys_timer_settime(
        &mut self,
        pid: Pid,
        timer_id: u32,
        origin: &str,
        timeout: SimDuration,
    ) -> TimerHandle {
        self.sys_timer_settime_interval(pid, timer_id, origin, timeout, SimDuration::ZERO)
    }

    /// POSIX `timer_settime` with an `it_interval`: after the first
    /// expiry the timer auto-repeats at `interval` (the kernel re-arms it
    /// during signal delivery), producing the user-space *periodic*
    /// pattern of Figure 2.
    pub fn sys_timer_settime_interval(
        &mut self,
        pid: Pid,
        timer_id: u32,
        origin: &str,
        timeout: SimDuration,
        interval: SimDuration,
    ) -> TimerHandle {
        let h = match self.syscall_timers.posix.get(&(pid, timer_id)) {
            Some(&h) => h,
            None => {
                let h = self.base.init_timer(
                    &mut self.log,
                    self.now,
                    origin,
                    Callback::User(UserKind::PosixTimer),
                    pid,
                    0,
                    Space::User,
                );
                self.syscall_timers.posix.insert((pid, timer_id), h);
                h
            }
        };
        if interval.is_zero() {
            self.syscall_timers.posix_intervals.remove(&h);
        } else {
            self.syscall_timers.posix_intervals.insert(h, interval);
        }
        self.charge_call(self.now);
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            h,
            timeout,
            SimDuration::ZERO,
            EventFlags::default(),
        );
        h
    }

    /// POSIX `timer_delete` / settime(0): cancels a POSIX timer (and its
    /// auto-repeat interval).
    pub fn sys_timer_cancel(&mut self, pid: Pid, timer_id: u32) -> bool {
        match self.syscall_timers.posix.get(&(pid, timer_id)) {
            Some(&h) => {
                self.syscall_timers.posix_intervals.remove(&h);
                self.charge_call(self.now);
                self.base.del_timer(&mut self.log, self.now, h)
            }
            None => false,
        }
    }

    /// Re-arms an expired POSIX interval timer, if it has an interval.
    /// Called from the expiry dispatch path.
    pub(crate) fn posix_interval_rearm(&mut self, handle: TimerHandle, at: SimInstant) {
        if let Some(&interval) = self.syscall_timers.posix_intervals.get(&handle) {
            self.base.mod_timer_in(
                &mut self.log,
                at,
                handle,
                interval,
                SimDuration::ZERO,
                EventFlags {
                    periodic_rearm: true,
                    ..EventFlags::default()
                },
            );
        }
    }

    /// `nanosleep(2)`: arms the task's hrtimer.
    pub fn sys_nanosleep(
        &mut self,
        pid: Pid,
        tid: Tid,
        origin: &str,
        dur: SimDuration,
    ) -> HrHandle {
        let h = match self.syscall_timers.hr_by_task.get(&(pid, tid)) {
            Some(&h) => h,
            None => {
                let h =
                    self.hr
                        .hrtimer_init(&mut self.log, self.now, origin, pid, tid, Space::User);
                self.syscall_timers.hr_by_task.insert((pid, tid), h);
                h
            }
        };
        self.charge_call(self.now);
        self.hr.hrtimer_start(&mut self.log, self.now, h, dur);
        h
    }

    /// Runs due hrtimers, surfacing nanosleep wakeups as notifications.
    pub(crate) fn run_hrtimers(&mut self, at: SimInstant) {
        let fired = self.hr.run(&mut self.log, at);
        for f in fired {
            // All modelled hrtimer users are task sleeps; identify the
            // owning task by reverse lookup.
            if let Some((&(pid, tid), _)) = self
                .syscall_timers
                .hr_by_task
                .iter()
                .find(|(_, &h)| h == f.handle)
            {
                self.notifications.push(Notify::NanosleepExpired {
                    handle: f.handle,
                    pid,
                    tid,
                });
            }
        }
    }
}
