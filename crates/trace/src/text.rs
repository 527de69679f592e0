//! The textual trace format.
//!
//! "After running the workload, we used a user-space program to read out
//! the buffer and convert the trace into a textual format, which we then
//! processed to gain the results presented in this paper" (§3.2). This
//! module is that converter: one line per record, tab-separated and
//! stable, for external tooling.
//!
//! ```text
//! 12.004000000  SET     0xc1000040  tcp:retransmit  pid=0 tid=0 K  timeout=0.204  expires=12.208
//! ```

use crate::event::{Event, EventKind, Space};
use crate::strings::StringTable;

/// Renders one event as a text line (without trailing newline).
pub fn to_line(event: &Event, strings: &StringTable) -> String {
    let kind = match event.kind {
        EventKind::Init => "INIT",
        EventKind::Set => "SET",
        EventKind::Cancel => "CANCEL",
        EventKind::Expire => "EXPIRE",
        EventKind::WaitSatisfied => "WAIT_SAT",
        EventKind::WaitTimedOut => "WAIT_TMO",
    };
    let space = match event.space {
        Space::Kernel => "K",
        Space::User => "U",
    };
    let mut line = format!(
        "{:.9}\t{kind}\t{:#x}\t{}\tpid={} tid={} {space}",
        event.ts.as_secs_f64(),
        event.timer,
        strings.resolve(event.origin),
        event.pid,
        event.tid,
    );
    if let Some(t) = event.timeout {
        line.push_str(&format!("\ttimeout={:.9}", t.as_secs_f64()));
    }
    if let Some(e) = event.expires {
        line.push_str(&format!("\texpires={:.9}", e.as_secs_f64()));
    }
    let f = event.flags;
    if f.deferrable || f.rounded || f.periodic_rearm {
        line.push_str("\tflags=");
        if f.deferrable {
            line.push('D');
        }
        if f.rounded {
            line.push('R');
        }
        if f.periodic_rearm {
            line.push('P');
        }
    }
    line
}

/// Converts a whole ring buffer to text.
pub fn dump_ring(
    ring: &crate::ring::RingBuffer,
    strings: &StringTable,
) -> Result<String, crate::codec::DecodeError> {
    let mut out = String::new();
    for event in crate::reader::RingReader::new(ring) {
        out.push_str(&to_line(&event?, strings));
        out.push('\n');
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventFlags;
    use simtime::{SimDuration, SimInstant};

    fn sample() -> (Event, StringTable) {
        let mut strings = StringTable::new();
        let origin = strings.intern("tcp:retransmit");
        let e = Event::new(
            SimInstant::from_nanos(12_004_000_000),
            EventKind::Set,
            0xC100_0040,
            origin,
        )
        .with_timeout(SimDuration::from_millis(204))
        .with_expires(SimInstant::from_nanos(12_208_000_000))
        .with_task(0, 0, Space::Kernel)
        .with_flags(EventFlags {
            periodic_rearm: true,
            ..EventFlags::default()
        });
        (e, strings)
    }

    #[test]
    fn line_format_is_stable() {
        let (e, strings) = sample();
        let line = to_line(&e, &strings);
        assert_eq!(
            line,
            "12.004000000\tSET\t0xc1000040\ttcp:retransmit\tpid=0 tid=0 K\ttimeout=0.204000000\texpires=12.208000000\tflags=P"
        );
    }

    #[test]
    fn minimal_line_omits_optional_fields() {
        let mut strings = StringTable::new();
        let origin = strings.intern("x");
        let e = Event::new(SimInstant::from_nanos(5), EventKind::Cancel, 7, origin).with_task(
            3,
            4,
            Space::User,
        );
        assert_eq!(
            to_line(&e, &strings),
            "0.000000005\tCANCEL\t0x7\tx\tpid=3 tid=4 U"
        );
    }

    #[test]
    fn ring_dump_has_one_line_per_record() {
        use crate::logger::{RingSink, TraceSink};
        use crate::ring::RingBuffer;
        let mut strings = StringTable::new();
        let origin = strings.intern("a");
        let mut sink = RingSink::new(RingBuffer::new(1 << 16));
        for i in 0..5u64 {
            sink.record(&Event::new(
                SimInstant::from_nanos(i),
                EventKind::Set,
                i,
                origin,
            ));
        }
        let text = dump_ring(sink.ring(), &strings).unwrap();
        assert_eq!(text.lines().count(), 5);
    }
}
