//! Fixed-size binary record encoding for trace events.
//!
//! The relayfs channel in the authors' Linux instrumentation logged small
//! fixed-size binary records into a 512 MiB kernel buffer and converted
//! them to text offline. We use the same shape: every event encodes to
//! exactly [`RECORD_SIZE`] bytes so the ring buffer can reason in whole
//! records and a reader can seek freely.

use bytes::{Buf, BufMut};
use simtime::{SimDuration, SimInstant};

use crate::event::{Event, EventFlags, EventKind, Space};

/// The exact encoded size of one record, in bytes.
pub const RECORD_SIZE: usize = 48;

/// Sentinel encoding of `None` for optional u64 fields.
const NONE_SENTINEL: u64 = u64::MAX;

/// Errors produced while decoding a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input shorter than [`RECORD_SIZE`].
    Truncated {
        /// Bytes available.
        available: usize,
    },
    /// Unknown event-kind discriminant.
    BadKind(u8),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { available } => {
                write!(f, "truncated record: {available} of {RECORD_SIZE} bytes")
            }
            DecodeError::BadKind(k) => write!(f, "unknown event kind {k}"),
        }
    }
}

impl std::error::Error for DecodeError {}

fn kind_to_u8(kind: EventKind) -> u8 {
    match kind {
        EventKind::Init => 0,
        EventKind::Set => 1,
        EventKind::Cancel => 2,
        EventKind::Expire => 3,
        EventKind::WaitSatisfied => 4,
        EventKind::WaitTimedOut => 5,
    }
}

fn kind_from_u8(b: u8) -> Result<EventKind, DecodeError> {
    Ok(match b {
        0 => EventKind::Init,
        1 => EventKind::Set,
        2 => EventKind::Cancel,
        3 => EventKind::Expire,
        4 => EventKind::WaitSatisfied,
        5 => EventKind::WaitTimedOut,
        other => return Err(DecodeError::BadKind(other)),
    })
}

fn pack_space_flags(space: Space, flags: EventFlags) -> u8 {
    let mut b = 0u8;
    if matches!(space, Space::User) {
        b |= 1;
    }
    if flags.deferrable {
        b |= 1 << 1;
    }
    if flags.rounded {
        b |= 1 << 2;
    }
    if flags.periodic_rearm {
        b |= 1 << 4;
    }
    b
}

fn unpack_space_flags(b: u8) -> (Space, EventFlags) {
    let space = if b & 1 != 0 {
        Space::User
    } else {
        Space::Kernel
    };
    let flags = EventFlags {
        deferrable: b & (1 << 1) != 0,
        rounded: b & (1 << 2) != 0,
        periodic_rearm: b & (1 << 4) != 0,
    };
    (space, flags)
}

/// Encodes an event into exactly [`RECORD_SIZE`] bytes appended to `buf`.
pub fn encode(event: &Event, buf: &mut impl BufMut) {
    buf.put_u64_le(event.ts.as_nanos());
    buf.put_u8(kind_to_u8(event.kind));
    buf.put_u8(pack_space_flags(event.space, event.flags));
    buf.put_u16_le(0); // Reserved padding.
    buf.put_u32_le(event.pid);
    buf.put_u32_le(event.tid);
    buf.put_u32_le(event.origin);
    buf.put_u64_le(event.timer);
    buf.put_u64_le(event.timeout.map_or(NONE_SENTINEL, |d| d.as_nanos()));
    buf.put_u64_le(event.expires.map_or(NONE_SENTINEL, |i| i.as_nanos()));
}

/// Decodes the record at the front of `record`, validating its length and
/// kind byte; bytes past the first [`RECORD_SIZE`] are ignored.
pub fn decode(record: &[u8]) -> Result<Event, DecodeError> {
    let Some(mut buf) = record.get(..RECORD_SIZE) else {
        return Err(DecodeError::Truncated {
            available: record.len(),
        });
    };
    let ts = SimInstant::from_nanos(buf.get_u64_le());
    let kind = kind_from_u8(buf.get_u8())?;
    let (space, flags) = unpack_space_flags(buf.get_u8());
    let _pad = buf.get_u16_le();
    let pid = buf.get_u32_le();
    let tid = buf.get_u32_le();
    let origin = buf.get_u32_le();
    let timer = buf.get_u64_le();
    let timeout = match buf.get_u64_le() {
        NONE_SENTINEL => None,
        ns => Some(SimDuration::from_nanos(ns)),
    };
    let expires = match buf.get_u64_le() {
        NONE_SENTINEL => None,
        ns => Some(SimInstant::from_nanos(ns)),
    };
    Ok(Event {
        ts,
        kind,
        timer,
        timeout,
        expires,
        origin,
        pid,
        tid,
        space,
        flags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;

    fn arb_event() -> impl Strategy<Value = Event> {
        (
            any::<u64>().prop_map(|n| n >> 1), // Keep below the sentinel.
            0u8..6,
            any::<u64>(),
            proptest::option::of((any::<u64>()).prop_map(|n| n >> 1)),
            proptest::option::of((any::<u64>()).prop_map(|n| n >> 1)),
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            any::<bool>(),
            any::<[bool; 3]>(),
        )
            .prop_map(
                |(ts, kind, timer, timeout, expires, origin, pid, tid, user, fl)| Event {
                    ts: SimInstant::from_nanos(ts),
                    kind: kind_from_u8(kind).unwrap(),
                    timer,
                    timeout: timeout.map(SimDuration::from_nanos),
                    expires: expires.map(SimInstant::from_nanos),
                    origin,
                    pid,
                    tid,
                    space: if user { Space::User } else { Space::Kernel },
                    flags: EventFlags {
                        deferrable: fl[0],
                        rounded: fl[1],
                        periodic_rearm: fl[2],
                    },
                },
            )
    }

    proptest! {
        #[test]
        fn roundtrip(event in arb_event()) {
            let mut buf = BytesMut::new();
            encode(&event, &mut buf);
            prop_assert_eq!(buf.len(), RECORD_SIZE);
            let back = decode(&buf).unwrap();
            prop_assert_eq!(event, back);
        }
    }

    #[test]
    fn record_size_is_exact() {
        let e = Event::new(SimInstant::BOOT, EventKind::Set, 1, 2);
        let mut buf = BytesMut::new();
        encode(&e, &mut buf);
        assert_eq!(buf.len(), RECORD_SIZE);
    }

    #[test]
    fn truncated_fails() {
        assert_eq!(
            decode(&[0u8; RECORD_SIZE - 1]),
            Err(DecodeError::Truncated {
                available: RECORD_SIZE - 1
            })
        );
    }

    #[test]
    fn bad_kind_fails() {
        let mut bytes = [0u8; RECORD_SIZE];
        bytes[8] = 99; // Kind byte follows the 8-byte timestamp.
        assert_eq!(decode(&bytes), Err(DecodeError::BadKind(99)));
    }
}
