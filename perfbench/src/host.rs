//! Facts about the host and the process, read without changing anything:
//! the build stamp, CPU steal from `/proc/stat`, and peak resident memory.

use std::fmt::Write as _;

/// Clock ticks per second of the `/proc/stat` counters (`USER_HZ`, 100 on
/// every mainstream Linux architecture).
const USER_HZ: f64 = 100.0;

/// The build and host facts stamped on every run.
pub struct Stamp {
    pub parallelism: usize,
    pub rustc: &'static str,
    pub profile: &'static str,
    pub git_rev: &'static str,
}

impl Stamp {
    pub fn read() -> Stamp {
        Stamp {
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
            rustc: env!("PERFBENCH_RUSTC"),
            profile: env!("PERFBENCH_PROFILE"),
            git_rev: env!("PERFBENCH_GIT_REV"),
        }
    }

    /// The stamp plus the steal seen over the run, as one JSON object.
    pub fn to_json(&self, workload: &str, seed: u64, steal_s: Option<f64>) -> String {
        let mut out = String::new();
        let steal = steal_s.map_or("null".to_string(), |s| format!("{s}"));
        write!(
            out,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"available_parallelism\": {}, \
             \"rustc\": \"{}\", \"profile\": \"{}\", \"git_rev\": \"{}\", \"steal_s\": {steal}}}",
            self.parallelism, self.rustc, self.profile, self.git_rev
        )
        .expect("writing to a String cannot fail");
        out
    }
}

/// Cumulative CPU steal of the whole machine, in seconds, from the `cpu`
/// line of `/proc/stat` (its eighth counter); `None` where the file or
/// the counter is missing.
pub fn steal_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let ticks: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(ticks as f64 / USER_HZ)
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPUs the `/proc/stat` totals add up (its `cpuN` lines; 1 when the
/// file cannot be read).
pub fn cpus_in_stat() -> usize {
    std::fs::read_to_string("/proc/stat")
        .map(|stat| {
            stat.lines()
                .filter(|l| l.starts_with("cpu") && !l.starts_with("cpu "))
                .count()
        })
        .unwrap_or(0)
        .max(1)
}
