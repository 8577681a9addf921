//! Thread placement.  On a small host the kernel sometimes packs the
//! generator, the server loop and the worker onto one CPU and sometimes
//! spreads them, and a run's latency depends on which it chose.  The
//! serving workloads therefore give the generator the last CPU and the
//! program the others, as if the client were another machine.

/// CPUs for the program under test and the CPU for the generator, or
/// `None` on a host with a single CPU.
pub fn split() -> Option<(Vec<usize>, usize)> {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    (cpus >= 2).then(|| ((0..cpus - 1).collect(), cpus - 1))
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `cpus`.  Returns whether the kernel accepted it; placement is an
/// aid to steadiness, so a refusal is not an error.
#[cfg(target_os = "linux")]
pub fn pin_current_thread(cpus: &[usize]) -> bool {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        if cpu < 64 * mask.len() {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
    }
    // SAFETY: `mask` is a live, initialised buffer of exactly the size
    // passed, which is what sched_setaffinity(2) reads; pid 0 names the
    // calling thread, and the call changes nothing but its CPU set.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

#[cfg(not(target_os = "linux"))]
pub fn pin_current_thread(_cpus: &[usize]) -> bool {
    false
}
