//! What the benchmark reads about its own process: peak resident memory and
//! the CPUs it may run on. Linux only; elsewhere the readings are `None`.

use std::fs;

fn status_field(name: &str) -> Option<String> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(':'))
        .map(|v| v.trim().to_owned())
}

/// Peak resident set size (`VmHWM`) in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let kb: f64 = status_field("VmHWM")?
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// CPUs this process may run on (`Cpus_allowed_list`) — what `nproc`
/// prints.
pub fn allowed_cpus() -> Option<usize> {
    let list = status_field("Cpus_allowed_list")?;
    list.split(',')
        .map(|part| match part.split_once('-') {
            Some((a, b)) => {
                Some(b.trim().parse::<usize>().ok()? + 1 - a.trim().parse::<usize>().ok()?)
            }
            None => part.trim().parse::<usize>().ok().map(|_| 1),
        })
        .sum()
}

/// `std::thread::available_parallelism`, or 1 when unknown.
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}
