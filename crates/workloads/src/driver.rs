//! Workload driver scaffolding: an event calendar interleaved with a
//! simulated kernel.
//!
//! A workload model is a [`World`] state machine plus a set of scheduled
//! closures. The driver alternates between the workload's own calendar
//! and the kernel's pending timer expiries, so both sides react promptly
//! (a select that times out re-issues immediately, an ACK arrival cancels
//! the retransmit timer at the right instant). One loop drives both
//! kernel models, so the Linux and Vista traces come from the same
//! interleaving rules.

use des::Calendar;
use simtime::{SimDuration, SimInstant, SimRng};

use linuxsim::{LinuxKernel, Notify};
use vistasim::{VistaKernel, VistaNotify};

/// Derives the seed for one trial of a multi-trial experiment.
///
/// Each trial must see an independent random stream, yet the derivation
/// has to be a pure function of `(base_seed, trial)` so that trials can
/// be launched in any order — or on any worker thread — and still
/// reproduce bit-for-bit. A splitmix64-style finalizer over the packed
/// pair gives well-mixed, collision-resistant seeds (the low trial
/// numbers of neighbouring base seeds land far apart).
///
/// Trial 0 returns `base_seed` unchanged so a single-trial experiment is
/// byte-identical to the historical single-seed runs.
pub fn trial_seed(base_seed: u64, trial: u32) -> u64 {
    if trial == 0 {
        return base_seed;
    }
    let mut z = base_seed
        .wrapping_add(u64::from(trial).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What the driver needs from a simulated kernel.
pub trait Kernel {
    /// An event the kernel surfaces to the workload.
    type Notify;
    /// The current simulated time.
    fn now(&self) -> SimInstant;
    /// The next instant at which a pending timer can fire, if any.
    fn next_wakeup(&self) -> Option<SimInstant>;
    /// Advances simulated time to `target`, firing every timer due. A
    /// `target` already passed is a no-op: callback delivery latency can
    /// carry the kernel past an instant the driver asked for.
    fn advance_to(&mut self, target: SimInstant);
    /// Drains the notifications raised since the last call.
    fn take_notifications(&mut self) -> Vec<Self::Notify>;
}

/// Implements [`Kernel`] by forwarding to the kernel's inherent methods.
macro_rules! forward_kernel {
    ($kernel:ty, $notify:ty) => {
        impl Kernel for $kernel {
            type Notify = $notify;
            fn now(&self) -> SimInstant {
                <$kernel>::now(self)
            }
            fn next_wakeup(&self) -> Option<SimInstant> {
                <$kernel>::next_wakeup(self)
            }
            fn advance_to(&mut self, target: SimInstant) {
                <$kernel>::advance_to(self, target)
            }
            fn take_notifications(&mut self) -> Vec<$notify> {
                <$kernel>::take_notifications(self)
            }
        }
    };
}

forward_kernel!(LinuxKernel, Notify);
forward_kernel!(VistaKernel, VistaNotify);

/// A scheduled workload action.
type Action<K, W> = Box<dyn FnOnce(&mut Driver<K, W>)>;

/// Reactions to kernel notifications.
pub trait World<K: Kernel>: Sized {
    /// Handles one kernel notification.
    fn on_notify(driver: &mut Driver<K, Self>, notify: K::Notify);
}

/// The workload driver: a kernel, the workload's state and randomness,
/// and its calendar of scheduled actions.
pub struct Driver<K, W> {
    /// The simulated kernel.
    pub kernel: K,
    /// Workload randomness.
    pub rng: SimRng,
    /// Workload state.
    pub world: W,
    calendar: Calendar<Action<K, W>>,
}

/// A workload driver on the Linux model.
pub type LinuxDriver<W> = Driver<LinuxKernel, W>;
/// A workload driver on the Vista model.
pub type VistaDriver<W> = Driver<VistaKernel, W>;

impl<K: Kernel, W: World<K>> Driver<K, W> {
    /// Creates a driver.
    pub fn new(kernel: K, rng: SimRng, world: W) -> Self {
        Driver {
            kernel,
            rng,
            world,
            calendar: Calendar::new(),
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimInstant {
        self.kernel.now()
    }

    /// Schedules an action after `delay`.
    pub fn after(&mut self, delay: SimDuration, action: impl FnOnce(&mut Self) + 'static) {
        let at = self.kernel.now() + delay;
        self.calendar.post(at, Box::new(action));
    }

    /// Runs the interleaved simulation until `end`. At each instant the
    /// kernel's expiries run first and their notifications are handled
    /// before the calendar's actions for that instant; actions due at
    /// `end` run, later ones never do.
    pub fn run_until(&mut self, end: SimInstant) {
        loop {
            self.drain_notifications();
            let next_cal = self.calendar.peek_time();
            let next_kernel = self.kernel.next_wakeup();
            // The earliest of: workload event, kernel expiry, the end.
            let step_to = [next_cal, next_kernel]
                .into_iter()
                .flatten()
                .fold(end, SimInstant::min);
            self.kernel.advance_to(step_to);
            self.drain_notifications();
            if Some(step_to) == next_cal {
                while let Some((_, action)) = self.calendar.pop_before(step_to) {
                    action(self);
                    self.drain_notifications();
                }
            }
            if step_to == end {
                break;
            }
        }
        self.kernel.advance_to(end);
        self.drain_notifications();
    }

    /// Runs the simulation for `duration` after boot and returns the
    /// finished kernel.
    pub fn finish(mut self, duration: SimDuration) -> K {
        self.run_until(SimInstant::BOOT + duration);
        self.kernel
    }

    fn drain_notifications(&mut self) {
        loop {
            let notes = self.kernel.take_notifications();
            if notes.is_empty() {
                break;
            }
            for n in notes {
                W::on_notify(self, n);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(ms: u64) -> SimInstant {
        SimInstant::BOOT + SimDuration::from_millis(ms)
    }

    /// A scripted kernel: each expiry raises its label as a notification
    /// once time reaches it.
    struct FakeKernel {
        now: SimInstant,
        expiries: Vec<(SimInstant, &'static str)>,
        notes: Vec<&'static str>,
    }

    impl Kernel for FakeKernel {
        type Notify = &'static str;
        fn now(&self) -> SimInstant {
            self.now
        }
        fn next_wakeup(&self) -> Option<SimInstant> {
            self.expiries.iter().map(|&(t, _)| t).min()
        }
        fn advance_to(&mut self, target: SimInstant) {
            self.now = self.now.max(target);
            let now = self.now;
            let (due, pending) = self.expiries.iter().partition(|&&(t, _)| t <= now);
            self.expiries = pending;
            self.notes.extend(due.into_iter().map(|(_, label)| label));
        }
        fn take_notifications(&mut self) -> Vec<&'static str> {
            std::mem::take(&mut self.notes)
        }
    }

    /// Records, in order, each notification and action with its instant.
    struct Log(Vec<(SimInstant, &'static str)>);

    impl World<FakeKernel> for Log {
        fn on_notify(driver: &mut Driver<FakeKernel, Self>, note: &'static str) {
            let now = driver.now();
            driver.world.0.push((now, note));
            if note == "expiry" {
                // The handler's system call completes at once and raises a
                // notification of its own, which must also run before the
                // calendar's action for this instant.
                driver.kernel.notes.push("echo");
            }
        }
    }

    fn action(label: &'static str) -> impl FnOnce(&mut Driver<FakeKernel, Log>) {
        move |d| {
            let now = d.now();
            d.world.0.push((now, label));
        }
    }

    #[test]
    fn kernel_runs_first_and_nothing_runs_past_the_end() {
        let kernel = FakeKernel {
            now: SimInstant::BOOT,
            expiries: vec![(at(5), "expiry"), (at(20), "late expiry")],
            notes: Vec::new(),
        };
        let mut driver = Driver::new(kernel, SimRng::new(1), Log(Vec::new()));
        driver.after(SimDuration::from_millis(5), action("action"));
        driver.after(SimDuration::from_millis(10), action("at end"));
        driver.after(
            SimDuration::from_millis(10) + SimDuration::from_nanos(1),
            action("past end"),
        );
        driver.run_until(at(10));
        assert_eq!(
            driver.world.0,
            [
                (at(5), "expiry"),
                (at(5), "echo"),
                (at(5), "action"),
                (at(10), "at end"),
            ]
        );
        assert_eq!(driver.kernel.now(), at(10));
    }
}
