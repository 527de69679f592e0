//! The NTDLL user-level threadpool timer ring.
//!
//! `CreateThreadpoolTimer`/`SetThreadpoolTimer` maintain a user-level
//! timer ring multiplexed over a *single* kernel timer per pool (§2.2).
//! Most user-level operations therefore never reach the kernel — only
//! changes to the ring's earliest deadline re-arm the kernel timer. This
//! is the layering that masks timer provenance (§3.3): the kernel trace
//! sees one "ntdll:threadpool" timer, whatever the application does above
//! it.

use std::collections::BTreeMap;

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventKind, Pid, Space};

use crate::kernel::{VistaKernel, VistaNotify};
use crate::ktimer::{KtAction, KtHandle};

/// One user-level threadpool timer.
#[derive(Debug, Clone, Copy)]
struct TpTimer {
    due: SimInstant,
    /// Auto-repeat period (`msPeriod`), if periodic.
    period: Option<SimDuration>,
}

/// One process's threadpool.
#[derive(Debug)]
struct Pool {
    kernel_timer: KtHandle,
    timers: FoldMap<u32, TpTimer>,
    /// The ring index: due time → timer ids (insertion-ordered within).
    ring: BTreeMap<(SimInstant, u32), ()>,
    next_id: u32,
    /// User-level ring operations that never reached the kernel.
    masked_ops: u64,
}

/// All threadpools, by process.
#[derive(Debug, Default)]
pub struct Threadpools {
    pools: FoldMap<Pid, Pool>,
}

impl Threadpools {
    /// Total user-level operations absorbed by rings without a kernel op.
    pub fn masked_ops(&self) -> u64 {
        self.pools.values().map(|p| p.masked_ops).sum()
    }
}

impl VistaKernel {
    fn pool_mut(&mut self, pid: Pid) -> &mut Pool {
        if !self.pools.pools.contains_key(&pid) {
            let kernel_timer = self.kt.allocate(
                &mut self.log,
                self.now,
                "ntdll:threadpool_ring",
                KtAction::ThreadpoolRing { pid },
                pid,
                0,
                Space::User,
            );
            self.pools.pools.insert(
                pid,
                Pool {
                    kernel_timer,
                    timers: FoldMap::default(),
                    ring: BTreeMap::new(),
                    next_id: 1,
                    masked_ops: 0,
                },
            );
        }
        self.pools.pools.get_mut(&pid).expect("just inserted")
    }

    /// `SetThreadpoolTimer`: arms a user-level timer; only a new earliest
    /// deadline reaches the kernel. Returns the timer id.
    pub fn threadpool_set_timer(
        &mut self,
        pid: Pid,
        due_in: SimDuration,
        period: Option<SimDuration>,
    ) -> u32 {
        let now = self.now;
        let pool = self.pool_mut(pid);
        let id = pool.next_id;
        pool.next_id += 1;
        let due = now + due_in;
        pool.timers.insert(id, TpTimer { due, period });
        let was_earliest = pool.ring.keys().next().map(|&(d, _)| d);
        pool.ring.insert((due, id), ());
        let new_earliest = pool.ring.keys().next().map(|&(d, _)| d);
        let kernel_timer = pool.kernel_timer;
        if new_earliest != was_earliest {
            // Ring head changed: re-arm the single kernel timer.
            let head = new_earliest.expect("ring non-empty");
            self.charge_call(now);
            self.kt
                .ke_cancel_timer(&mut self.log, now, kernel_timer, EventKind::Cancel);
            self.kt
                .ke_set_timer(&mut self.log, now, kernel_timer, head.duration_since(now));
        } else {
            self.pool_mut(pid).masked_ops += 1;
        }
        id
    }

    /// User-level ring operations that never touched the kernel.
    pub fn threadpool_masked_ops(&self) -> u64 {
        self.pools.masked_ops()
    }

    /// Expiry path: the pool's kernel timer fired — run every due
    /// user-level timer, re-insert periodics, re-arm for the new head.
    pub(crate) fn threadpool_ring_fired(&mut self, pid: Pid, at: SimInstant) {
        let Some(pool) = self.pools.pools.get_mut(&pid) else {
            return;
        };
        let kernel_timer = pool.kernel_timer;
        let mut callbacks = Vec::new();
        while let Some((&(due, id), ())) = pool.ring.iter().next() {
            if due > at {
                break;
            }
            pool.ring.remove(&(due, id));
            callbacks.push(id);
            if let Some(t) = pool.timers.get_mut(&id) {
                match t.period {
                    Some(p) => {
                        t.due = due + p;
                        pool.ring.insert((t.due, id), ());
                    }
                    None => {
                        pool.timers.remove(&id);
                    }
                }
            }
        }
        let next = pool.ring.keys().next().map(|&(d, _)| d);
        if let Some(head) = next {
            let rel = head.duration_since(at);
            self.kt.ke_set_timer(&mut self.log, at, kernel_timer, rel);
        }
        for id in callbacks {
            self.notifications.push(VistaNotify::TpCallback { pid, id });
        }
    }
}
