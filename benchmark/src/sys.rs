//! What the operating system knows about this process: CPU time and peak
//! resident memory, read from `/proc` (Linux only, as is the benchmark).

use std::fs;

/// Kernel clock ticks per second for `/proc/*/stat` times. `USER_HZ` has
/// been 100 on every Linux ABI for two decades; without libc there is no
/// `sysconf` to ask.
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn process_cpu_secs() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the line, 12 and 13 here.
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric tick count");
    (ticks(11) + ticks(12)) / USER_HZ
}

/// Peak resident set size of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kib: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kib / 1024.0
}

/// Node threads for the live workloads: one per core, at most four.
pub fn live_nodes() -> u32 {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get() as u32)
        .clamp(2, 4)
}
