//! The unified timer-event model shared by both simulated kernels.

use serde::{Deserialize, Serialize};
use simtime::{SimDuration, SimInstant};

/// A process identifier.
pub type Pid = u32;
/// A thread identifier.
pub type Tid = u32;
/// The address identity of a timer object.
///
/// On Linux most timer structs are statically allocated and reused, so the
/// address is a stable identity; on Vista most are allocated on the fly, so
/// addresses recur only coincidentally. Both behaviours matter to the
/// analysis (Section 3 of the paper) and are reproduced by the simulators.
pub type TimerAddr = u64;
/// An interned provenance (call-site / subsystem) identifier.
pub type OriginId = u32;

/// Whether a timer operation originated in user space or the kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Space {
    /// Set implicitly by kernel code (drivers, protocols, housekeeping).
    Kernel,
    /// Set explicitly from user space through a system call.
    User,
}

/// The kind of timer operation a record describes.
///
/// The Linux instrumentation logs `init_timer`, `__mod_timer`, `del_timer`
/// and callback execution; the Vista instrumentation logs `KeSetTimer`,
/// `KeCancelTimer`, the expiry DPC, and thread unblock (with a flag for
/// whether the wait was satisfied or timed out). Both map onto this enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EventKind {
    /// Timer data structure initialised (`init_timer` / object creation).
    Init,
    /// Timer armed or re-armed (`__mod_timer` / `KeSetTimer`).
    Set,
    /// Timer disarmed before expiry (`del_timer` / `KeCancelTimer`).
    Cancel,
    /// Timer reached its expiry and its callback/DPC ran.
    Expire,
    /// A blocked thread's wait ended because the awaited event arrived
    /// (Vista wait fast-path, wait satisfied => the timeout was *implicitly
    /// cancelled*).
    WaitSatisfied,
    /// A blocked thread's wait ended because the timeout fired.
    WaitTimedOut,
}

impl EventKind {
    /// Returns `true` if this kind represents an expiry.
    pub fn is_expire(self) -> bool {
        matches!(self, EventKind::Expire | EventKind::WaitTimedOut)
    }
}

/// One logged timer operation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Virtual timestamp at which the operation was logged.
    pub ts: SimInstant,
    /// Operation kind.
    pub kind: EventKind,
    /// Identity of the timer object.
    pub timer: TimerAddr,
    /// The *relative* timeout requested, when known.
    ///
    /// User-space sets always carry this (system calls accept relative
    /// values, measured directly at the syscall per Section 3.1); kernel
    /// sets carry the value reconstructed from the absolute expiry, which
    /// is why the classifier tolerates jitter.
    pub timeout: Option<SimDuration>,
    /// The absolute expiry time the timer was armed for, when known.
    pub expires: Option<SimInstant>,
    /// Interned provenance label (call site / subsystem / program).
    pub origin: OriginId,
    /// Owning process.
    pub pid: Pid,
    /// Owning thread.
    pub tid: Tid,
    /// User or kernel origin.
    pub space: Space,
    /// Operation flags.
    pub flags: EventFlags,
}

/// Auxiliary per-event flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EventFlags {
    /// The timer was marked deferrable (Linux 2.6.22 flag).
    pub deferrable: bool,
    /// The expiry was rounded with `round_jiffies`.
    pub rounded: bool,
    /// The set came from a `select`-style countdown re-arm (the remaining
    /// time of an earlier timeout, not a fresh programmer-chosen value).
    pub countdown: bool,
    /// The timer is a periodic re-arm performed by kernel infrastructure.
    pub periodic_rearm: bool,
}

impl Event {
    /// Creates a minimal event; the builder-style setters fill the rest.
    pub fn new(ts: SimInstant, kind: EventKind, timer: TimerAddr, origin: OriginId) -> Self {
        Event {
            ts,
            kind,
            timer,
            timeout: None,
            expires: None,
            origin,
            pid: 0,
            tid: 0,
            space: Space::Kernel,
            flags: EventFlags::default(),
        }
    }

    /// Sets the relative timeout.
    pub fn with_timeout(mut self, timeout: SimDuration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the absolute expiry.
    pub fn with_expires(mut self, expires: SimInstant) -> Self {
        self.expires = Some(expires);
        self
    }

    /// Sets process/thread identity and space.
    pub fn with_task(mut self, pid: Pid, tid: Tid, space: Space) -> Self {
        self.pid = pid;
        self.tid = tid;
        self.space = space;
        self
    }

    /// Sets the flags.
    pub fn with_flags(mut self, flags: EventFlags) -> Self {
        self.flags = flags;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_predicates() {
        assert!(EventKind::Expire.is_expire());
        assert!(EventKind::WaitTimedOut.is_expire());
        assert!(!EventKind::Cancel.is_expire());
        assert!(!EventKind::WaitSatisfied.is_expire());
    }

    #[test]
    fn builder_fills_fields() {
        let e = Event::new(SimInstant::from_nanos(5), EventKind::Set, 0xdead, 3)
            .with_timeout(SimDuration::from_millis(20))
            .with_expires(SimInstant::from_nanos(25_000_005))
            .with_task(12, 34, Space::User);
        assert_eq!(e.timeout.unwrap().as_millis(), 20);
        assert_eq!(e.pid, 12);
        assert_eq!(e.tid, 34);
        assert_eq!(e.space, Space::User);
        assert_eq!(e.origin, 3);
    }
}
