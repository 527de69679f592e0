//! Extension experiment (paper §2.2.2 / §5.2): the layered-timeout
//! cascade, and what dependency tracking saves.
//!
//! A user mistypes a server name in the file browser. Name lookups race
//! with per-provider timeouts; then SMB/NFS/WebDAV connection attempts
//! race, with NFS-over-SunRPC retrying refused connections 7 times from
//! 500 ms with doubling. The paper: "recovering from a typing error can
//! take over a minute!"

use adaptive::deps::{DepGraph, OverlapKind, Relation};
use adaptive::usecase::{guard_registry, guard_stats, TimeoutGuard};
use netsim::rpc::{sunrpc_retry_loop, AttemptOutcome};
use netsim::{LookupService, ServiceBehavior};
use simtime::{SimDuration, SimInstant, SimRng};

fn main() {
    bench::check_args(std::env::args(), &[], "usage: ext_layering");
    let mut out = bench::Stdout::default();
    let mut rng = SimRng::new(7);
    writeln!(out, "=== The layered-timeout cascade (paper 2.2.2) ===\n");

    // Phase 1: parallel name lookups for a mistyped name.
    let wins = LookupService::new("WINS", ServiceBehavior::Silent);
    let dns = LookupService::new("DNS", ServiceBehavior::Silent);
    let lookup_timeout = SimDuration::from_secs(5);
    let w = wins.attempt(lookup_timeout, &mut rng);
    let d = dns.attempt(lookup_timeout, &mut rng);
    let phase1 = match (w, d) {
        (AttemptOutcome::TimedOut(a), AttemptOutcome::TimedOut(b)) => a.max(b),
        _ => SimDuration::ZERO,
    };
    writeln!(
        out,
        "phase 1 - WINS/DNS lookups (5 s each, parallel): {phase1}"
    );

    // Suppose a stale broadcast answer lets it continue: the file
    // protocols race next against the dead host.
    let smb = LookupService::new(
        "SMB",
        ServiceBehavior::Refused {
            latency: SimDuration::from_millis(2),
        },
    );
    let webdav = LookupService::new("WebDAV", ServiceBehavior::Silent);
    let nfs = LookupService::new(
        "NFS",
        ServiceBehavior::Refused {
            latency: SimDuration::from_millis(2),
        },
    );
    // SMB: its own 30 s connect timeout ends on the refusal-retry budget.
    let smb_time = SimDuration::from_secs(9); // 3 refused syn retries.
    let _ = smb.attempt(SimDuration::from_secs(30), &mut rng);
    // WebDAV: waits out its full 30 s.
    let webdav_time = match webdav.attempt(SimDuration::from_secs(30), &mut rng) {
        AttemptOutcome::TimedOut(t) => t,
        _ => SimDuration::ZERO,
    };
    // NFS over SunRPC: 7 refused retries with doubling 500 ms timeouts.
    let (outcome, nfs_time) = sunrpc_retry_loop(&nfs, SimDuration::from_millis(500), 7, &mut rng);
    writeln!(out, "phase 2 - SMB refused-retry budget:  {smb_time}");
    writeln!(out, "phase 2 - WebDAV full timeout:       {webdav_time}");
    writeln!(
        out,
        "phase 2 - NFS SunRPC backoff ({outcome:?}): {nfs_time}"
    );
    let phase2 = smb_time.max(webdav_time).max(nfs_time);
    let total = phase1 + phase2;
    writeln!(out, "\nuser-visible failure latency: {total}");
    assert!(total > SimDuration::from_secs(60));
    writeln!(
        out,
        "=> 'recovering from a typing error can take over a minute!' reproduced\n"
    );

    // What dependency tracking (5.2) and nested-guard elision (5.4) fix.
    writeln!(
        out,
        "=== With timeout provenance and dependency tracking (paper 5.2/5.4) ===\n"
    );
    let mut g = DepGraph::new();
    let boot = SimInstant::BOOT;
    let s = |secs| boot + SimDuration::from_secs(secs);
    g.declare(1, "shell:open_server", boot, s(120));
    g.declare(2, "mup:name_lookup", boot, s(5));
    g.declare(3, "smb:connect", boot, s(30));
    g.declare(4, "nfs:sunrpc", boot, s(64));
    g.declare(5, "webdav:connect", boot, s(30));
    g.relate(1, 2, Relation::DependsOn);
    g.relate(1, 3, Relation::Overlaps(OverlapKind::MinMatters));
    g.relate(1, 4, Relation::Overlaps(OverlapKind::MinMatters));
    g.relate(1, 5, Relation::Overlaps(OverlapKind::MinMatters));
    writeln!(
        out,
        "timers armed without tracking: 5; with elision rules: {}",
        g.required_armed().len()
    );
    writeln!(out, "provenance of the NFS timer: {:?}", g.trace_path(4));

    // Nested RAII guards: the inner 30 s attempts are pointless under a
    // tight outer deadline.
    let reg = guard_registry();
    let outer = TimeoutGuard::arm(&reg, boot, SimDuration::from_secs(10));
    {
        let _lookup = TimeoutGuard::arm(&reg, boot, SimDuration::from_secs(5));
        let _smb = TimeoutGuard::arm(&reg, boot, SimDuration::from_secs(30));
        let _nfs = TimeoutGuard::arm(&reg, boot, SimDuration::from_secs(64));
    }
    let stats = guard_stats(&reg);
    writeln!(
        out,
        "nested guards under a 10 s user deadline: {} armed, {} elided",
        stats.armed, stats.elided
    );
    writeln!(
        out,
        "user now sees the failure at the outer deadline: {}",
        outer.deadline()
    );
}
