//! Model-based property test of the standard timer base: the cascading
//! wheel behind `mod_timer`/`del_timer` must agree with a trivially
//! correct reference model under arbitrary operation sequences.

use std::collections::BTreeMap;

use linuxsim::timers::{Callback, TimerBase, TimerHandle, UserKind};
use proptest::prelude::*;
use simtime::{Jiffies, SimDuration, SimInstant};
use trace::{EventFlags, Space, TraceLog};

/// Slots `DEFERRABLE..SLOTS` carry the deferrable flag.
const SLOTS: usize = 6;
const DEFERRABLE: usize = 4;

#[derive(Debug, Clone)]
enum Op {
    Mod {
        slot: usize,
        delta_ms: u64,
    },
    /// `mod_timer` for an absolute jiffy `back` jiffies at or before the
    /// current one: past due, it fires on the next processed jiffy.
    ModPast {
        slot: usize,
        back: u64,
    },
    Del {
        slot: usize,
    },
    Advance {
        ms: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..SLOTS, 1u64..20_000).prop_map(|(slot, delta_ms)| Op::Mod { slot, delta_ms }),
        (0..SLOTS, 0u64..3).prop_map(|(slot, back)| Op::ModPast { slot, back }),
        (0..SLOTS).prop_map(|slot| Op::Del { slot }),
        (1u64..5_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

/// A pending timer in the model.
#[derive(Debug, Clone, Copy)]
struct Armed {
    /// The armed expiry jiffy.
    expires: u64,
    /// The jiffy it fires in: its expiry, or the next one the base
    /// processes when armed at or before the last one processed.
    fires: u64,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_agrees_with_reference_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut log = TraceLog::collecting();
        let mut base = TimerBase::new();
        let clock = base.clock();
        let handles: Vec<TimerHandle> = (0..SLOTS)
            .map(|i| {
                base.init_timer(
                    &mut log,
                    SimInstant::BOOT,
                    &format!("prop:{i}"),
                    Callback::User(UserKind::Poll),
                    1,
                    1,
                    Space::Kernel,
                )
            })
            .collect();
        for &handle in &handles[DEFERRABLE..] {
            base.set_deferrable(handle);
        }
        // Reference: handle index → armed timer.
        let mut model: BTreeMap<usize, Armed> = BTreeMap::new();
        let mut now = SimInstant::BOOT;
        // The last jiffy `run_timers` processed.
        let mut processed = 0u64;
        for op in &ops {
            match *op {
                Op::Mod { slot, delta_ms } => {
                    let expires = base.mod_timer_in(
                        &mut log,
                        now,
                        handles[slot],
                        SimDuration::from_millis(delta_ms),
                        SimDuration::ZERO,
                        EventFlags::default(),
                    );
                    let expires = expires.as_u64();
                    model.insert(slot, Armed { expires, fires: expires.max(processed + 1) });
                }
                Op::ModPast { slot, back } => {
                    let expires = clock.jiffies_at(now).as_u64().saturating_sub(back);
                    base.mod_timer(&mut log, now, handles[slot], Jiffies(expires), EventFlags::default());
                    model.insert(slot, Armed { expires, fires: expires.max(processed + 1) });
                }
                Op::Del { slot } => {
                    let was = base.del_timer(&mut log, now, handles[slot]);
                    prop_assert_eq!(was, model.remove(&slot).is_some());
                }
                Op::Advance { ms } => {
                    now += SimDuration::from_millis(ms);
                    let target = clock.jiffies_at(now).as_u64();
                    let mut fired: Vec<(usize, u64)> = base
                        .run_timers(now)
                        .iter()
                        .map(|f| (f.handle.0 as usize, f.expires.as_u64()))
                        .collect();
                    fired.sort_unstable();
                    let expected: Vec<(usize, u64)> = model
                        .iter()
                        .filter(|(_, a)| a.fires <= target)
                        .map(|(&s, a)| (s, a.expires))
                        .collect();
                    model.retain(|_, a| a.fires > target);
                    prop_assert_eq!(fired, expected);
                    processed = processed.max(target);
                }
            }
            // Pending bookkeeping agrees at every step, fired and
            // cancelled timers included.
            prop_assert_eq!(base.pending_count(), model.len());
            for (slot, handle) in handles.iter().enumerate() {
                prop_assert_eq!(base.is_pending(*handle), model.contains_key(&slot));
                prop_assert_eq!(
                    base.expiry_of(*handle).map(|j| j.as_u64()),
                    model.get(&slot).map(|a| a.expires)
                );
            }
            let next = |skip_deferrable: bool| {
                model
                    .iter()
                    .filter(|&(&slot, _)| !skip_deferrable || slot < DEFERRABLE)
                    .map(|(_, a)| a.expires)
                    .min()
                    .map(|j| clock.instant_of(Jiffies(j)))
            };
            prop_assert_eq!(base.next_expiry(false), next(false));
            prop_assert_eq!(base.next_expiry(true), next(true));
        }
    }
}
