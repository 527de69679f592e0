//! The Figure 4 series: the values a `select` countdown passes.
//!
//! "Both the X server and the icewm window manager start by setting a
//! constant timeout for select. When select returns due to file
//! descriptor activity, Linux updates the timeout value to reflect the
//! time remaining, and the processes use this new value until it reaches
//! zero" (§4.2, Figure 4). The figure plots every timed Set of the
//! followed processes (Xorg in the paper), so the countdown shows in the
//! dots themselves, as a sawtooth.

use serde::{Deserialize, Serialize};
use trace::{Event, EventKind, Pid};

/// Dots kept per series, at most.
const MAX_DOTS: usize = 200_000;

/// One dot of the Figure 4 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dot {
    /// Trace time, seconds.
    pub t: f64,
    /// Timeout value set, seconds.
    pub value: f64,
}

/// The Figure 4 dot series of the processes it follows.
#[derive(Debug)]
pub(crate) struct DotSeries {
    pids: Vec<Pid>,
    dots: Vec<Dot>,
}

impl DotSeries {
    /// Creates an empty series following `pids`.
    pub(crate) fn new(pids: Vec<Pid>) -> Self {
        DotSeries {
            pids,
            dots: Vec::new(),
        }
    }

    /// Records `event` as a dot if it is a timed Set of a followed
    /// process.
    pub(crate) fn push(&mut self, event: &Event) {
        if event.kind != EventKind::Set {
            return;
        }
        let Some(value) = event.timeout else {
            return;
        };
        if self.pids.contains(&event.pid) && self.dots.len() < MAX_DOTS {
            self.dots.push(Dot {
                t: event.ts.as_secs_f64(),
                value: value.as_secs_f64(),
            });
        }
    }

    /// The dots, in trace order.
    pub(crate) fn dots(&self) -> &[Dot] {
        &self.dots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simtime::{SimDuration, SimInstant};

    fn set(ms: u64, value_ms: u64) -> Event {
        Event::new(
            SimInstant::BOOT + SimDuration::from_millis(ms),
            EventKind::Set,
            1,
            0,
        )
        .with_timeout(SimDuration::from_millis(value_ms))
        .with_task(100, 100, trace::Space::User)
    }

    #[test]
    fn dots_recorded_for_target_pids() {
        let mut d = DotSeries::new(vec![100]);
        d.push(&set(1000, 600_000));
        d.push(&set(2000, 599_000));
        assert_eq!(d.dots().len(), 2);
        assert!((d.dots()[0].value - 600.0).abs() < 1e-9);
        assert!((d.dots()[1].t - 2.0).abs() < 1e-9);
    }
}
