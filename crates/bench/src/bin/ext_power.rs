//! Extension experiment (paper §2.1 / §5.3): wakeup batching ablation.
//!
//! Measures CPU wakeups per second for the idle Linux desktop under:
//! the always-ticking baseline, dynticks, dynticks + round_jiffies on
//! every periodic, dynticks + deferrable periodics, and both — plus the
//! idealised coalescer over flexible TimeSpecs.

use adaptive::{Coalescer, TimeSpec};
use linuxsim::{LinuxConfig, LinuxKernel};
use simtime::{SimDuration, SimInstant, SimRng};
use trace::NullSink;

fn run(dynticks: bool, round: bool, defer: bool) -> f64 {
    let cfg = LinuxConfig {
        seed: 7,
        dynticks,
        round_all_periodics: round,
        defer_all_periodics: defer,
        ..LinuxConfig::default()
    };
    let mut k = LinuxKernel::new(cfg, Box::new(NullSink));
    k.set_idle(true);
    let secs = 300;
    k.advance_to(SimInstant::BOOT + SimDuration::from_secs(secs));
    k.cpu().wakeups() as f64 / secs as f64
}

fn main() {
    bench::check_args(std::env::args(), &[], "usage: ext_power");
    let mut out = bench::Stdout::default();
    writeln!(
        out,
        "=== Idle-system wakeup ablation (paper 2.1 / 5.3) ===\n"
    );
    writeln!(out, "configuration                              wakeups/s");
    writeln!(out, "----------------------------------------------------");
    let base = run(false, false, false);
    writeln!(
        out,
        "periodic tick (HZ=250), no dynticks        {base:>9.1}"
    );
    let dt = run(true, false, false);
    writeln!(out, "dynticks                                   {dt:>9.1}");
    let dtr = run(true, true, false);
    writeln!(out, "dynticks + round_jiffies on periodics      {dtr:>9.1}");
    let dtd = run(true, false, true);
    writeln!(out, "dynticks + deferrable periodics            {dtd:>9.1}");
    let all = run(true, true, true);
    writeln!(out, "dynticks + round_jiffies + deferrable      {all:>9.1}");

    // The idealised 5.3 design: flexible TimeSpecs + minimal coalescing.
    let mut c = Coalescer::new();
    let mut rng = SimRng::new(7);
    let boot = SimInstant::BOOT;
    // The idle housekeeping population over 60 s, all flexible to +-50%.
    let periods_ms: [(u64, &str); 8] = [
        (1000, "workqueue"),
        (2000, "workqueue2"),
        (5000, "writeback"),
        (500, "clocksource"),
        (248, "usb"),
        (5000, "pkt_sched"),
        (2000, "e1000"),
        (5000, "init"),
    ];
    let mut id = 0u64;
    for &(period, _) in &periods_ms {
        let mut t = period;
        while t < 60_000 {
            let slack = period / 2;
            c.add(
                id,
                TimeSpec::Window {
                    earliest: boot + SimDuration::from_millis(t.saturating_sub(slack)),
                    latest: boot + SimDuration::from_millis(t + slack),
                },
            );
            id += 1;
            t += period;
        }
    }
    let _ = &mut rng;
    let plan = c.plan(boot + SimDuration::from_secs(120));
    let coalesced = plan.len() as f64 / 60.0;
    let naive = c.naive_wakeup_count() as f64 / 60.0;
    writeln!(
        out,
        "ideal: flexible TimeSpec + coalescer       {coalesced:>9.1}   (vs {naive:.1} naive)"
    );
    writeln!(
        out,
        "\nreduction from baseline to full batching: {:.0}x",
        base / all.max(0.01)
    );
}
