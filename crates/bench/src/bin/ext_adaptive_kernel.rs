//! Extension experiment: adaptive timeouts *inside* the traced system.
//!
//! The paper's §5.1 proposal, closed-loop: an Apache-like worker polls
//! client sockets. The legacy code uses the hardcoded 15 s of Table 3;
//! the adaptive variant asks the estimator for a 99.9 %-confidence
//! timeout learned from this connection population's observed request
//! gaps. Dead clients (hung connections) are injected; we measure how
//! long a worker slot stays hostage to each policy, driving the real
//! simulated kernel timer API throughout.

use adaptive::AdaptiveTimeout;
use linuxsim::{LinuxConfig, LinuxKernel};
use simtime::{LogNormal, Sample, SimDuration, SimInstant, SimRng};
use trace::NullSink;

/// One policy run: returns (mean hostage time, p99-ish max, sets, cancels).
fn run(adaptive: bool) -> (f64, f64, u64) {
    let mut kernel = LinuxKernel::new(
        LinuxConfig {
            seed: 7,
            ..LinuxConfig::default()
        },
        Box::new(NullSink),
    );
    kernel.register_process(140, "apache2");
    let mut rng = SimRng::new(99);
    // Request gaps on a healthy connection: median 120 ms, long tail.
    let gap_dist = LogNormal::from_median(0.120, 0.8);
    let mut estimator = AdaptiveTimeout::new(0.999, SimDuration::from_secs(15))
        .with_bounds(SimDuration::from_millis(50), SimDuration::from_secs(15));
    let mut now = SimInstant::BOOT;
    let mut hostage = Vec::new();
    for i in 0..20_000u64 {
        let timeout = if adaptive {
            estimator.timeout()
        } else {
            SimDuration::from_secs(15)
        };
        let handle = kernel.sys_poll(140, 140, "apache2:socket_poll", timeout);
        // 1 % of connections hang (client died mid-request).
        if rng.chance(0.01) {
            // The worker waits out the whole timeout.
            now = now + timeout + SimDuration::from_millis(1);
            kernel.advance_to(now);
            hostage.push(timeout.as_secs_f64());
            if adaptive {
                estimator.observe_timeout();
            }
        } else {
            let gap = gap_dist.sample_duration(&mut rng).min(timeout);
            now += gap.max(SimDuration::from_micros(100));
            kernel.advance_to(now);
            if kernel.timer_base().is_pending(handle) {
                kernel.sys_poll_return(handle);
                if adaptive {
                    estimator.observe_success(gap);
                }
            } else if adaptive {
                // The learned timeout fired although the client was alive:
                // spurious, counted by the estimator.
                estimator.observe_timeout();
            }
        }
        if i % 1000 == 0 {
            now += SimDuration::from_millis(5);
        }
    }
    let mean = hostage.iter().sum::<f64>() / hostage.len().max(1) as f64;
    let max = hostage.iter().copied().fold(0.0f64, f64::max);
    (mean, max, kernel.log().counts().set)
}

fn main() {
    bench::check_args(std::env::args(), &[], "usage: ext_adaptive_kernel");
    let mut out = bench::Stdout::default();
    writeln!(
        out,
        "=== Adaptive socket-poll timeout inside the simulated kernel ===\n"
    );
    writeln!(
        out,
        "20000 requests, 1% hung clients; worker-slot hostage time per hang:\n"
    );
    let (fixed_mean, fixed_max, fixed_sets) = run(false);
    let (ad_mean, ad_max, ad_sets) = run(true);
    writeln!(out, "policy            mean      worst   kernel timer sets");
    writeln!(
        out,
        "fixed 15 s     {fixed_mean:>7.2}s   {fixed_max:>7.2}s   {fixed_sets:>8}"
    );
    writeln!(
        out,
        "adaptive 99.9% {ad_mean:>7.2}s   {ad_max:>7.2}s   {ad_sets:>8}"
    );
    writeln!(
        out,
        "\nworker slots are freed {:.0}x faster with learned timeouts,",
        fixed_mean / ad_mean.max(1e-9)
    );
    writeln!(
        out,
        "with the same kernel timer API and no extra timer churn."
    );
}
