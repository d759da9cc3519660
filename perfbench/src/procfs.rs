//! Process and host sampling from `/proc`: peak resident memory and CPU
//! time of the benchmark process and its worker processes, and the host's steal
//! share. Every reader returns 0 when the file is missing or unreadable,
//! so a sample never fails a run.

use std::fs;

/// Peak resident set size (`VmHWM`) of `pid`, in MB.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = fs::read_to_string(format!("/proc/{pid}/status")) else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User plus system CPU time of this process and all of its threads,
/// live or exited, in nanoseconds (`getrusage(RUSAGE_SELF)`, µs
/// resolution). Time the hypervisor steals is not counted, which is why
/// CPU-bound timings use it: on a shared VM wall time swings with steal.
pub fn self_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of x86-64 and aarch64 Linux: two timevals, then
    /// fourteen longs this module does not read.
    #[repr(C)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the C
    // layout (the repr(C) mirror above), and getrusage writes only that
    // struct; RUSAGE_SELF is always a valid `who`.
    if unsafe { getrusage(RUSAGE_SELF, &mut usage) } != 0 {
        return 0;
    }
    let us = |t: &Timeval| (t.sec.max(0) as u64) * 1_000_000 + t.usec.max(0) as u64;
    (us(&usage.utime) + us(&usage.stime)) * 1000
}

/// CPU time another process `pid` has run, summed over its live threads,
/// in nanoseconds (`/proc/<pid>/task/*/schedstat`, field 1). Threads that
/// exited earlier are not counted; the shard worker's threads live as
/// long as the worker.
pub fn cpu_ns(pid: u32) -> u64 {
    let Ok(tasks) = fs::read_dir(format!("/proc/{pid}/task")) else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|t| fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Aggregate CPU jiffies `(total, steal)` from the first line of
/// `/proc/stat`.
pub fn host_jiffies() -> (u64, u64) {
    let Ok(stat) = fs::read_to_string("/proc/stat") else {
        return (0, 0);
    };
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (fields.iter().sum(), fields.get(7).copied().unwrap_or(0))
}

/// Steal share in percent between two [`host_jiffies`] readings.
pub fn steal_pct(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.0.saturating_sub(before.0);
    if total == 0 {
        return 0.0;
    }
    100.0 * after.1.saturating_sub(before.1) as f64 / total as f64
}

/// This process's id.
pub fn self_pid() -> u32 {
    std::process::id()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_is_readable() {
        assert!(peak_rss_mb(self_pid()) > 0.0);
        let (own, threads) = (self_cpu_ns(), cpu_ns(self_pid()));
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(self_cpu_ns() > own, "{x}");
        assert!(cpu_ns(self_pid()) > threads);
        assert_eq!(cpu_ns(u32::MAX), 0);
        assert_eq!(peak_rss_mb(u32::MAX), 0.0);
    }

    #[test]
    fn steal_share_arithmetic() {
        assert_eq!(steal_pct((100, 5), (300, 15)), 5.0);
        assert_eq!(steal_pct((100, 5), (100, 5)), 0.0);
    }
}
