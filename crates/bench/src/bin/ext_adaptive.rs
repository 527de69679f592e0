//! Extension experiment (paper §5.1): adaptive vs fixed timeouts.
//!
//! A client calls a service whose response latency is log-normal around
//! 130 ms (the paper's file-server RTT). Occasionally the service dies.
//! We measure, for a fixed 30 s timeout (the paper's title number) and
//! the confidence-based adaptive timeout: failure-detection latency and
//! spurious-timeout rate — and what happens across a LAN→WAN level shift.

use adaptive::AdaptiveTimeout;
use simtime::{LogNormal, Sample, SimDuration, SimRng};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: ext_adaptive");
    let mut out = bench::Stdout::default();
    let mut rng = SimRng::new(7);
    let lan = LogNormal::from_median(0.0008, 0.4); // LAN file server.
    let wan = LogNormal::from_median(0.130, 0.4); // Same server via WAN.

    writeln!(out, "=== Adaptive vs fixed timeouts (paper 5.1) ===\n");
    writeln!(
        out,
        "workload: 50000 requests, 0.2% of them hit a dead server\n"
    );

    for (name, dist) in [("LAN (0.8 ms median)", &lan), ("WAN (130 ms median)", &wan)] {
        let fixed = SimDuration::from_secs(30);
        let mut est = AdaptiveTimeout::new(0.99, fixed);
        let mut fixed_detect = SimDuration::ZERO;
        let mut adaptive_detect = SimDuration::ZERO;
        let mut failures = 0u64;
        let mut spurious = 0u64;
        let mut requests = 0u64;
        for _ in 0..50_000 {
            requests += 1;
            let timeout = est.timeout();
            if rng.chance(0.002) {
                // Dead server: the caller waits out its whole timeout.
                failures += 1;
                fixed_detect += fixed;
                adaptive_detect += timeout;
                est.observe_timeout();
            } else {
                let latency = dist.sample_duration(&mut rng);
                if latency >= timeout {
                    // Adaptive timeout fired although the answer was
                    // coming — a spurious timeout.
                    spurious += 1;
                    est.observe_timeout();
                } else {
                    est.observe_success(latency);
                }
            }
        }
        let fd = fixed_detect.as_secs_f64() / failures.max(1) as f64;
        let ad = adaptive_detect.as_secs_f64() / failures.max(1) as f64;
        writeln!(out, "--- {name} ---");
        writeln!(out, "  mean failure detection, fixed 30 s : {fd:>9.3} s");
        writeln!(
            out,
            "  mean failure detection, adaptive   : {ad:>9.3} s  ({:.0}x faster)",
            fd / ad.max(1e-9)
        );
        writeln!(
            out,
            "  spurious timeouts: {spurious} / {requests} ({:.3}%)",
            100.0 * spurious as f64 / requests as f64
        );
        writeln!(out, "  learned timeout after run: {}\n", est.timeout());
    }

    // Level shift: learn on the LAN, then move to the WAN.
    writeln!(
        out,
        "--- level shift: laptop moves from LAN to WAN (paper 5.1) ---"
    );
    let mut est = AdaptiveTimeout::new(0.99, SimDuration::from_secs(30));
    for _ in 0..20_000 {
        est.observe_success(lan.sample_duration(&mut rng));
    }
    writeln!(out, "  timeout learned on LAN: {}", est.timeout());
    let mut timeouts_before_adapting = 0u64;
    for _ in 0..200 {
        let latency = wan.sample_duration(&mut rng);
        if latency >= est.timeout() {
            timeouts_before_adapting += 1;
            est.observe_timeout();
        } else {
            est.observe_success(latency);
        }
    }
    writeln!(
        out,
        "  WAN requests spuriously timed out while re-learning: {timeouts_before_adapting} / 200"
    );
    writeln!(out, "  timeout after re-learning on WAN: {}", est.timeout());
    writeln!(out, "  level-shift resets performed: {}", est.resets());
}
