//! Vista workload models.

pub mod firefox;
pub mod idle;
pub mod outlook;
pub mod skype;
pub mod webserver;

use simtime::SimDuration;
use trace::Pid;
use vistasim::VistaKernel;

use crate::driver::{VistaDriver, World};
use crate::pids;

/// A service thread that sleeps for a constant round value, forever —
/// the *delay* pattern. Each wait timeout restarts the sleep, so worlds
/// route [`vistasim::VistaNotify::WaitTimedOut`] back via
/// [`resume_sleep_loops`].
struct SleepLoop {
    pid: Pid,
    tid: u32,
    origin: &'static str,
    period: SimDuration,
}

impl SleepLoop {
    fn sleep<W: World<VistaKernel>>(&self, driver: &mut VistaDriver<W>) {
        driver
            .kernel
            .sleep(self.pid, self.tid, self.origin, self.period);
    }
}

/// The idle desktop's service sleep loops. csrss's 500 ms timed wait
/// always times out — one of the "more than two timers per second"
/// setters the paper names; the svchost instances sleep at round values.
/// [`boot_services`] starts csrss's loop mid-boot and the rest last.
const SLEEP_LOOPS: [SleepLoop; 4] = [
    SleepLoop {
        pid: pids::CSRSS,
        tid: 1,
        origin: "csrss.exe:wait",
        period: SimDuration::from_millis(500),
    },
    SleepLoop {
        pid: pids::SVCHOST_BASE,
        tid: 2,
        origin: "svchost.exe:Sleep",
        period: SimDuration::from_secs(1),
    },
    SleepLoop {
        pid: pids::SVCHOST_BASE + 1,
        tid: 2,
        origin: "svchost.exe:Sleep",
        period: SimDuration::from_secs(5),
    },
    SleepLoop {
        pid: pids::SVCHOST_BASE + 2,
        tid: 2,
        origin: "svchost.exe:Sleep",
        period: SimDuration::from_secs(10),
    },
];

/// Boots the idle desktop's background service population: the 26
/// background processes of §3.5's Vista idle workload.
///
/// Each service runs one of the user-level idioms: periodic threadpool
/// timers, `Sleep` loops, message-loop `SetTimer`s, or timed waits that
/// are usually satisfied.
pub fn boot_services<W: World<VistaKernel> + 'static>(driver: &mut VistaDriver<W>) {
    let [csrss_loop, svchost_loops @ ..] = &SLEEP_LOOPS;
    driver.kernel.register_process(pids::CSRSS, "csrss.exe");
    driver
        .kernel
        .register_process(pids::AUDIO_TRAY, "systray_audio.exe");
    for i in 0..8 {
        driver
            .kernel
            .register_process(pids::SVCHOST_BASE + i, "svchost.exe");
    }
    // The rest of the 26-process background population, each owning a
    // few timers of its own (Table 2 counts 135-228 distinct KTIMERs on
    // an idle desktop).
    let extras: [(u32, &str); 10] = [
        (170, "wininit.exe"),
        (171, "lsass.exe"),
        (172, "services.exe"),
        (173, "dwm.exe"),
        (174, "explorer.exe"),
        (175, "taskeng.exe"),
        (176, "spoolsv.exe"),
        (177, "SearchIndexer.exe"),
        (178, "audiodg.exe"),
        (179, "sidebar.exe"),
    ];
    for (pid, name) in extras {
        driver.kernel.register_process(pid, name);
    }
    // dwm and sidebar run GUI timers; explorer keeps several.
    driver
        .kernel
        .win32_set_timer(173, 1, "dwm.exe:SetTimer", SimDuration::from_millis(1_000));
    driver.kernel.win32_set_timer(
        174,
        1,
        "explorer.exe:SetTimer",
        SimDuration::from_millis(500),
    );
    driver
        .kernel
        .win32_set_timer(174, 2, "explorer.exe:SetTimer", SimDuration::from_secs(5));
    driver.kernel.win32_set_timer(
        179,
        1,
        "sidebar.exe:SetTimer",
        SimDuration::from_millis(2_000),
    );
    // NT-handle periodics for the service managers (taskeng's schedule
    // scan, the indexer's batch flush, the spooler's port poll).
    for (pid, origin, secs) in [
        (175u32, "taskeng.exe:NtSetTimer", 60u64),
        (176, "spoolsv.exe:NtSetTimer", 30),
        (177, "SearchIndexer.exe:NtSetTimer", 120),
        (171, "lsass.exe:NtSetTimer", 300),
        (172, "services.exe:NtSetTimer", 45),
    ] {
        let slot = driver.kernel.nt_create_timer(pid, origin);
        driver.kernel.nt_set_timer_periodic(
            pid,
            slot,
            SimDuration::from_secs(secs),
            Some(SimDuration::from_secs(secs)),
        );
    }
    // Event-style waits for wininit/audiodg (usually satisfied).
    event_service(driver, 170, 1);
    event_service(driver, 178, 1);
    // Threadpool periodics for the extra services too.
    driver.kernel.threadpool_set_timer(
        172,
        SimDuration::from_secs(20),
        Some(SimDuration::from_secs(20)),
    );
    driver.kernel.threadpool_set_timer(
        177,
        SimDuration::from_secs(90),
        Some(SimDuration::from_secs(90)),
    );
    csrss_loop.sleep(driver);
    // The audio tray applet: a 100 ms GUI timer.
    driver.kernel.win32_set_timer(
        pids::AUDIO_TRAY,
        1,
        "systray_audio.exe:SetTimer",
        SimDuration::from_millis(100),
    );
    // svchost instances: threadpool periodics at service-ish periods.
    let periods = [30u64, 60, 60, 120, 300, 300, 600, 900];
    for (i, &secs) in periods.iter().enumerate() {
        driver.kernel.threadpool_set_timer(
            pids::SVCHOST_BASE + i as u32,
            SimDuration::from_secs(secs),
            Some(SimDuration::from_secs(secs)),
        );
    }
    // An event-driven service: timed waits usually satisfied by its
    // partner's activity (Table 2's idle cancellations).
    event_service(driver, pids::SVCHOST_BASE + 3, 3);
    // Registry-using services exhibit the deferred lazy-close pattern.
    registry_bursts(driver, pids::SVCHOST_BASE + 4);
    registry_bursts(driver, pids::SVCHOST_BASE + 5);
    // A handful of service Sleep loops at round values.
    for l in svchost_loops {
        l.sleep(driver);
    }
}

/// Routes a wait timeout back into its sleep loop, if it belongs to one.
pub fn resume_sleep_loops<W: World<VistaKernel>>(driver: &mut VistaDriver<W>, pid: Pid, tid: u32) {
    if let Some(l) = SLEEP_LOOPS.iter().find(|l| l.pid == pid && l.tid == tid) {
        l.sleep(driver);
    }
}

/// An event-driven service: waits 5 s, usually signalled within a couple
/// of seconds.
fn event_service<W: World<VistaKernel> + 'static>(driver: &mut VistaDriver<W>, pid: Pid, tid: u32) {
    driver.kernel.wait_for_single_object(
        pid,
        tid,
        "svchost.exe:WaitEvent",
        SimDuration::from_secs(5),
    );
    let delay = SimDuration::from_millis(300 + (pid as u64 * 37 + tid as u64 * 911) % 2_500);
    driver.after(delay, move |d| {
        d.kernel.signal_wait(pid, tid);
        event_service(d, pid, tid);
    });
}

/// Bursty registry activity: a process touches the registry several
/// times in quick succession (each touch deferring the lazy-close
/// timer), then goes idle long enough for the close to fire — producing
/// the paper's fifth, Vista-specific *deferred* pattern.
pub fn registry_bursts<W: World<VistaKernel> + 'static>(driver: &mut VistaDriver<W>, pid: Pid) {
    // Active phase: 3-6 accesses ~1.5 s apart.
    let touches = 3 + driver.rng.range_u64(0, 4);
    for i in 0..touches {
        let at = SimDuration::from_millis(200 + i * (1_200 + driver.rng.range_u64(0, 800)));
        driver.after(at, move |d| d.kernel.registry_access(pid));
    }
    // Idle long enough for the 5 s lazy close to fire, then repeat.
    let idle = SimDuration::from_secs(12 + driver.rng.range_u64(0, 10));
    let next = SimDuration::from_millis(200 + touches * 2_000) + idle;
    driver.after(next, move |d| registry_bursts(d, pid));
}
