//! The few things the harness needs from the host: CPU pinning, peak
//! resident memory, load average, and a fixed calibration spin.
//!
//! The workspace has no `libc` crate, so the three system calls are
//! declared by hand. Everything here is Linux-only; on another platform
//! pinning reports failure and the harness refuses to time anything.

use std::time::Instant;

/// `cpu_set_t` is 1024 bits on Linux.
const CPU_SET_WORDS: usize = 16;

#[cfg(target_os = "linux")]
mod ffi {
    /// `struct rusage` on 64-bit Linux: two `timeval`s followed by
    /// fourteen `long`s, of which `ru_maxrss` is the first.
    #[repr(C)]
    #[derive(Default)]
    #[allow(dead_code)] // the kernel writes every field; only one is read
    pub struct RUsage {
        pub ru_utime: [i64; 2],
        pub ru_stime: [i64; 2],
        pub ru_maxrss: i64,
        pub rest: [i64; 13],
    }

    pub const RUSAGE_CHILDREN: i32 = -1;

    extern "C" {
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
}

/// The CPUs this process may run on, lowest first.
#[cfg(target_os = "linux")]
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; CPU_SET_WORDS];
    // SAFETY: `mask` is a live, writable buffer of exactly the byte size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { ffi::sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..CPU_SET_WORDS * 64)
        .filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

#[cfg(not(target_os = "linux"))]
pub fn allowed_cpus() -> Vec<usize> {
    Vec::new()
}

/// Pin the calling thread (and every thread or process it later spawns,
/// which inherit the mask) to one CPU: the highest-numbered one allowed,
/// since CPU 0 usually takes the host's interrupts. Returns the CPU.
///
/// Must run before the first thread is spawned.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let allowed = allowed_cpus();
    let cpu = *allowed
        .last()
        .ok_or("sched_getaffinity reported no allowed CPU")?;
    let mut mask = [0u64; CPU_SET_WORDS];
    mask[cpu / 64] = 1u64 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of exactly the byte size passed;
    // pid 0 names the calling thread.
    let rc = unsafe { ffi::sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        return Err(format!("sched_setaffinity(cpu {cpu}) failed"));
    }
    if allowed_cpus() != [cpu] {
        return Err(format!("affinity mask did not narrow to cpu {cpu}"));
    }
    Ok(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Result<usize, String> {
    Err("CPU pinning is implemented for Linux only".to_string())
}

/// Peak resident set of this process (`VmHWM` of `/proc/self/status`), in
/// MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Largest peak resident set among the child processes this process has
/// waited for (`RUSAGE_CHILDREN.ru_maxrss`), in MiB; 0 with no children.
#[cfg(target_os = "linux")]
pub fn children_peak_rss_mb() -> f64 {
    let mut ru = ffi::RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // kernel fills on 64-bit Linux.
    let rc = unsafe { ffi::getrusage(ffi::RUSAGE_CHILDREN, &mut ru) };
    if rc != 0 {
        return 0.0;
    }
    ru.ru_maxrss as f64 / 1024.0
}

#[cfg(not(target_os = "linux"))]
pub fn children_peak_rss_mb() -> f64 {
    0.0
}

/// The 1-minute load average.
pub fn loadavg1() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/loadavg").ok()?;
    text.split_whitespace().next()?.parse().ok()
}

/// Online CPUs, as `nproc` would print before any pinning.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A fixed xorshift spin: the same arithmetic on every host, so its wall
/// time is a reading of how fast this CPU is running right now. Taken
/// before and after a workload; two readings that disagree mean the host
/// changed speed under the measurement.
pub fn calib_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}
