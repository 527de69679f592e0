//! The ARP neighbour cache and its timers.
//!
//! Table 3 attributes four frequent constants to ARP: the 8 s cache flush
//! (periodic), table work at 2 s and 4 s (periodic), and the 5 s
//! per-neighbour timeout. The 5 s timer is the source of the "vertical
//! array" at five seconds in Figures 9–11: it is set to a constant value
//! and cancelled at random intervals by reachability confirmations from
//! ambient LAN traffic.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventFlags, Space, TraceLog};

use crate::ids::NeighId;
use crate::kernel::LinuxKernel;
use crate::timers::{Callback, TimerBase, TimerHandle};

/// The per-neighbour timeout constant.
pub const NEIGH_TIMEOUT: SimDuration = SimDuration::from_secs(5);
/// Cache flush period.
pub const GC_PERIOD: SimDuration = SimDuration::from_secs(8);
/// Table-work periods (two neighbour tables).
pub const TBL_PERIODS: [SimDuration; 2] = [SimDuration::from_secs(2), SimDuration::from_secs(4)];

/// One neighbour entry.
#[derive(Debug)]
struct Neigh {
    timer: TimerHandle,
    reachable: bool,
}

/// The neighbour table.
#[derive(Debug, Default)]
pub struct ArpTable {
    gc: Option<TimerHandle>,
    periodic: Vec<TimerHandle>,
    neighbors: FoldMap<NeighId, Neigh>,
    pool: Vec<TimerHandle>,
    next_id: u32,
}

impl ArpTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates and arms the boot-time ARP timers.
    pub fn boot(&mut self, base: &mut TimerBase, log: &mut TraceLog, now: SimInstant) {
        let gc = base.init_timer(
            log,
            now,
            "net:arp_cache_flush",
            Callback::ArpGc,
            0,
            0,
            Space::Kernel,
        );
        base.mod_timer_in(
            log,
            now,
            gc,
            GC_PERIOD,
            SimDuration::ZERO,
            EventFlags {
                periodic_rearm: true,
                ..EventFlags::default()
            },
        );
        self.gc = Some(gc);
        for (i, period) in TBL_PERIODS.iter().enumerate() {
            let origin = if i == 0 {
                "net:arp_tbl_work_2s"
            } else {
                "net:arp_tbl_work_4s"
            };
            let h = base.init_timer(
                log,
                now,
                origin,
                Callback::ArpPeriodic(i as u8),
                0,
                0,
                Space::Kernel,
            );
            base.mod_timer_in(
                log,
                now,
                h,
                *period,
                SimDuration::ZERO,
                EventFlags {
                    periodic_rearm: true,
                    ..EventFlags::default()
                },
            );
            self.periodic.push(h);
        }
    }

    /// Number of live neighbour entries.
    pub fn neighbor_count(&self) -> usize {
        self.neighbors.len()
    }
}

impl LinuxKernel {
    /// A LAN packet touched neighbour `host` (0-based small host index).
    ///
    /// If the entry has a pending timeout, the packet *confirms*
    /// reachability and the 5 s timer is cancelled; either way the entry
    /// is refreshed with a new 5 s constant timeout — the set/cancel churn
    /// behind the paper's 5 s vertical scatter array.
    pub fn arp_lan_packet(&mut self, host: u32) {
        let id = NeighId(host);
        self.charge_call(self.now);
        let timer = match self.arp.neighbors.get(&id) {
            Some(n) => {
                let t = n.timer;
                if self.base.is_pending(t) {
                    self.base.del_timer(&mut self.log, self.now, t);
                }
                t
            }
            None => {
                let t = match self.arp.pool.pop() {
                    Some(t) => t,
                    None => self.base.init_timer(
                        &mut self.log,
                        self.now,
                        "net:arp_neigh_timeout",
                        Callback::ArpNeighTimeout(id),
                        0,
                        0,
                        Space::Kernel,
                    ),
                };
                self.base
                    .retarget_callback(t, Callback::ArpNeighTimeout(id));
                self.arp.neighbors.insert(
                    id,
                    Neigh {
                        timer: t,
                        reachable: true,
                    },
                );
                self.arp.next_id = self.arp.next_id.max(host + 1);
                t
            }
        };
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            timer,
            NEIGH_TIMEOUT,
            jitter,
            EventFlags::default(),
        );
    }

    /// Number of live ARP entries (for tests).
    pub fn arp_neighbor_count(&self) -> usize {
        self.arp.neighbor_count()
    }

    pub(crate) fn arp_gc_expired(&mut self, handle: TimerHandle, at: SimInstant) {
        // Flush stale entries, then re-arm — a pure periodic. Sorted so
        // slab-pool recycling order (and thus the trace) is deterministic.
        let mut stale: Vec<NeighId> = self
            .arp
            .neighbors
            .iter()
            .filter(|(_, n)| !n.reachable)
            .map(|(&id, _)| id)
            .collect();
        stale.sort();
        for id in stale {
            if let Some(n) = self.arp.neighbors.remove(&id) {
                self.arp.pool.push(n.timer);
            }
        }
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            at,
            handle,
            GC_PERIOD,
            jitter,
            EventFlags {
                periodic_rearm: true,
                ..EventFlags::default()
            },
        );
    }

    pub(crate) fn arp_periodic_expired(&mut self, handle: TimerHandle, table: u8, at: SimInstant) {
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            at,
            handle,
            TBL_PERIODS[table as usize % 2],
            jitter,
            EventFlags {
                periodic_rearm: true,
                ..EventFlags::default()
            },
        );
    }

    pub(crate) fn arp_neigh_expired(&mut self, id: NeighId, at: SimInstant) {
        self.charge_call(at);
        if let Some(n) = self.arp.neighbors.get_mut(&id) {
            // No confirmation arrived in time: the entry goes stale and
            // will be collected by the next cache flush.
            n.reachable = false;
        }
    }
}
