//! The `env` block of a report: what the numbers were measured on.

use std::process::Command;

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Jiffies the hypervisor ran someone else while this machine was
/// runnable, summed over cpus (`/proc/stat`, 8th value of the `cpu` line).
pub fn steal_jiffies() -> u64 {
    read("/proc/stat")
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn loadavg() -> String {
    read("/proc/loadavg")
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// One line describing the machine and build, printed with every report.
pub fn describe(seed: u64, steal_before: u64) -> String {
    let cpu = read("/proc/cpuinfo")
        .lines()
        .find_map(|l| l.strip_prefix("model name")?.split(':').nth(1))
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "env: nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" commit={} seed={seed} loadavg=\"{}\" steal_jiffies={}",
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        loadavg(),
        steal_jiffies().saturating_sub(steal_before),
    )
}
