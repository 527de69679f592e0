//! Record a workload into the relayfs-style binary ring buffer and dump
//! it as text — the paper's §3.2 offline pipeline, end to end.
//!
//! ```sh
//! cargo run --release --example dump_trace
//! ```

use simtime::SimDuration;
use trace::{RingBuffer, RingSink};
use workloads::{run_linux, Workload};

fn main() {
    // Ten simulated seconds of the idle desktop into a binary ring.
    let sink = RingSink::new(RingBuffer::new(64 * 1024 * 1024));
    let mut kernel = run_linux(
        Workload::Idle,
        7,
        SimDuration::from_secs(10),
        Box::new(sink),
    );
    let counts = kernel.log().counts();
    println!(
        "captured {} timer operations ({} bytes of binary records)\n",
        counts.accesses,
        counts.accesses as usize * trace::codec::RECORD_SIZE
    );

    // The §3.2 step: take the ring out of the kernel's sink and convert
    // its binary records to the textual format.
    let ring = kernel
        .log_mut()
        .sink_mut()
        .as_any_mut()
        .and_then(|a| a.downcast_mut::<RingSink>())
        .map(|s| std::mem::replace(s, RingSink::new(RingBuffer::new(trace::codec::RECORD_SIZE))))
        .expect("ring sink")
        .into_ring();
    let text = trace::text::dump_ring(&ring, kernel.log().strings()).expect("decode");
    println!("first 15 lines of the textual trace:");
    for line in text.lines().take(15) {
        println!("  {line}");
    }
    println!("  ... ({} lines total)", text.lines().count());
}
