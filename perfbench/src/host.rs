//! The host side of a run: facts read from `/proc`, and pinning the
//! process to one CPU. Every function returns `None` where the file, field
//! or call does not exist (any non-Linux host), so the benchmark reports
//! the quantity as absent instead of failing.

/// The number in a `/proc/*/status` line `key:\t  123 kB`.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (name, rest) = line.split_once(':')?;
        if name.trim() != key {
            return None;
        }
        rest.split_whitespace().next()?.parse().ok()
    })
}

/// The `model name` line of `/proc/cpuinfo`.
pub fn cpu_model(cpuinfo: &str) -> Option<String> {
    cpuinfo.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        (name.trim() == "model name").then(|| value.trim().to_string())
    })
}

/// High-water mark of this process's resident memory, in kB (`VmHWM`).
pub fn peak_rss_kb() -> Option<u64> {
    status_field(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// Times the calling thread gave up its CPU, blocking or preempted
/// (`voluntary_ctxt_switches` plus `nonvoluntary_ctxt_switches`). Read
/// around `Machine::run` on the engine thread, each sim-thread resume is
/// one such switch: the engine either blocks waiting for the reply or, on
/// one CPU, is preempted by the sim-thread it just woke.
pub fn context_switches() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
    let voluntary = status_field(&status, "voluntary_ctxt_switches")?;
    Some(voluntary + status_field(&status, "nonvoluntary_ctxt_switches")?)
}

/// The host's CPU model from `/proc/cpuinfo`.
pub fn host_cpu_model() -> Option<String> {
    cpu_model(&std::fs::read_to_string("/proc/cpuinfo").ok()?)
}

/// Restricts the calling thread, and every thread it spawns afterwards, to
/// the lowest-numbered CPU it may run on, and returns that CPU.
///
/// Only one sim-thread runs at a time, so the simulator needs one CPU.
/// Left to spread over several, every resume wakes a thread on another
/// CPU; on a virtual machine that wake-up costs several times the switch
/// itself and its cost drifts with the host's load, which made the
/// unpinned run-to-run spread two to three times wider.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    const WORDS: usize = 16;
    let mut allowed = [0u64; WORDS];
    // SAFETY: `allowed` is a writable buffer of exactly the byte size
    // passed, and pid 0 names the calling thread.
    let got =
        unsafe { sched_getaffinity(0, std::mem::size_of_val(&allowed), allowed.as_mut_ptr()) };
    if got != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64).find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the byte size passed,
    // and pid 0 names the calling thread.
    let set = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (set == 0).then_some(cpu)
}

/// Pinning is not available off Linux.
#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

/// Host nanoseconds for one round trip between two plain threads over a
/// pair of rendezvous channels: the operating-system hand-off every
/// sim-thread resume is built on, measured with no repository code.
///
/// On a virtual machine this cost drifts with load outside the machine,
/// and the simulator's run time drifts with it while sim-threads are
/// operating-system threads. The benchmark reports it beside its timings,
/// never divides by it, so a reader can tell host drift from a change.
pub fn reference_round_trip_ns() -> f64 {
    use std::sync::mpsc::sync_channel;
    const CHUNKS: usize = 5;
    const TRIPS: u32 = 500;
    let (to_echo, echo_rx) = sync_channel::<u32>(1);
    let (echo_tx, from_echo) = sync_channel::<u32>(1);
    let echo = std::thread::spawn(move || {
        while let Ok(v) = echo_rx.recv() {
            if echo_tx.send(v).is_err() {
                break;
            }
        }
    });
    let trip = |i| {
        to_echo.send(i).expect("echo thread is alive");
        from_echo.recv().expect("echo thread is alive")
    };
    trip(0);
    // The median of several short chunks, so a momentary stall of the
    // host does not move the reference.
    let chunks: Vec<f64> = (0..CHUNKS)
        .map(|_| {
            let start = std::time::Instant::now();
            for i in 0..TRIPS {
                std::hint::black_box(trip(i));
            }
            start.elapsed().as_nanos() as f64 / f64::from(TRIPS)
        })
        .collect();
    let ns = crate::stats::median(&chunks).expect("CHUNKS > 0");
    drop(to_echo);
    echo.join()
        .expect("echo thread exits when its channel closes");
    ns
}
