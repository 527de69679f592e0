//! The block layer's timers: the unplug timer and the IDE command timeout.
//!
//! Table 3: the block I/O scheduler's 0.004 s (one-jiffy) unplug timeout,
//! and the 30 s IDE command timeout. The unplug timer batches queued
//! requests briefly before dispatching them; the command timeout is the
//! canonical *timeout* pattern — armed per request, almost always
//! cancelled milliseconds later when the disk completes.

use simtime::fasthash::FoldMap;
use simtime::{SimDuration, SimInstant};
use trace::{EventFlags, Space, TraceLog};

use crate::ids::ReqId;
use crate::kernel::LinuxKernel;
use crate::timers::{Callback, TimerBase, TimerHandle};

/// Unplug delay: one jiffy (Table 3's 0.004 s).
pub const UNPLUG_DELAY: SimDuration = SimDuration::from_millis(4);
/// IDE command timeout (Table 3's 30 s).
pub const IDE_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// The block layer state.
#[derive(Debug, Default)]
pub struct BlockLayer {
    unplug: Option<TimerHandle>,
    requests: FoldMap<ReqId, TimerHandle>,
    pool: Vec<TimerHandle>,
    next_id: u32,
    /// Requests aborted by a fired command timeout.
    pub aborted: u64,
}

impl BlockLayer {
    /// Creates an empty block layer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates the unplug timer at boot.
    pub fn boot(&mut self, base: &mut TimerBase, log: &mut TraceLog, now: SimInstant) {
        self.unplug = Some(base.init_timer(
            log,
            now,
            "block:unplug",
            Callback::BlockUnplug,
            0,
            0,
            Space::Kernel,
        ));
    }

    /// In-flight request count.
    pub fn inflight(&self) -> usize {
        self.requests.len()
    }
}

impl LinuxKernel {
    /// Submits one block I/O request: plugs the queue (arming the 1-jiffy
    /// unplug timer if idle) and arms the request's 30 s command timeout.
    pub fn blk_submit(&mut self) -> ReqId {
        let id = ReqId(self.blk.next_id);
        self.blk.next_id += 1;
        self.charge_call(self.now);
        if let Some(unplug) = self.blk.unplug {
            if !self.base.is_pending(unplug) {
                let jitter = self.sample_set_jitter();
                self.base.mod_timer_in(
                    &mut self.log,
                    self.now,
                    unplug,
                    UNPLUG_DELAY,
                    jitter,
                    EventFlags::default(),
                );
            }
        }
        let t = match self.blk.pool.pop() {
            Some(t) => t,
            None => self.base.init_timer(
                &mut self.log,
                self.now,
                "ide:command_timeout",
                Callback::IdeTimeout(id),
                0,
                0,
                Space::Kernel,
            ),
        };
        self.base.retarget_callback(t, Callback::IdeTimeout(id));
        let jitter = self.sample_set_jitter();
        self.base.mod_timer_in(
            &mut self.log,
            self.now,
            t,
            IDE_TIMEOUT,
            jitter,
            EventFlags::default(),
        );
        self.blk.requests.insert(id, t);
        id
    }

    /// A request completed: cancel its command timeout.
    pub fn blk_complete(&mut self, id: ReqId) {
        if let Some(t) = self.blk.requests.remove(&id) {
            self.charge_call(self.now);
            self.base.del_timer(&mut self.log, self.now, t);
            self.blk.pool.push(t);
        }
    }

    /// Number of in-flight block requests (for tests).
    pub fn blk_inflight(&self) -> usize {
        self.blk.inflight()
    }

    pub(crate) fn blk_unplug_expired(&mut self, at: SimInstant) {
        // Queue dispatched; nothing re-armed until the next submit plugs.
        self.charge_call(at);
    }

    pub(crate) fn ide_timeout_expired(&mut self, id: ReqId, at: SimInstant) {
        self.charge_call(at);
        if let Some(t) = self.blk.requests.remove(&id) {
            self.blk.aborted += 1;
            self.blk.pool.push(t);
        }
    }
}
