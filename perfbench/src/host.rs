//! Readings from the host and the process: CPU time, peak memory, CPU
//! steal, and the host record printed with every run so a run on a
//! contended host can be told apart instead of averaged in.

use serde::Serialize;
use std::path::Path;

/// CPU time every live thread of this process has run, in seconds (ns
/// resolution, from each task's `schedstat`). Threads that exit take their
/// time with them, so only bracket windows in which no thread exits.
pub fn tasks_cpu_s() -> f64 {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return 0.0;
    };
    dir.filter_map(|e| std::fs::read_to_string(e.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .sum::<f64>()
        / 1e9
}

/// Live threads of this process.
pub fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

/// Waits (up to 2 s) until no more than `n` threads are live, so threads
/// a set-up started and is ending do not exit inside a timed window and
/// take their CPU time out of its reading.
pub fn settle_threads(n: usize) {
    let until = std::time::Instant::now() + std::time::Duration::from_secs(2);
    while threads() > n && std::time::Instant::now() < until {
        // lint:allow(no-sleep): polls /proc for exited threads between timed windows; nothing to wait on
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// Wall clock, CPU of every thread and host steal, read together at a
/// window boundary.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    at: std::time::Instant,
    cpu_s: f64,
    steal: u64,
}

impl Reading {
    /// Reads all three now.
    pub fn now() -> Self {
        Self {
            cpu_s: tasks_cpu_s(),
            steal: steal_jiffies(),
            at: std::time::Instant::now(),
        }
    }

    /// (wall s, CPU s, steal jiffies) from `self` to `later`.
    pub fn until(&self, later: &Reading) -> (f64, f64, u64) {
        (
            later.at.duration_since(self.at).as_secs_f64(),
            later.cpu_s - self.cpu_s,
            later.steal.saturating_sub(self.steal),
        )
    }
}

/// Peak resident set of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host-wide CPU steal, in jiffies since boot (`/proc/stat`, `cpu` line).
pub fn steal_jiffies() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .find(|l| l.starts_with("cpu "))
        .and_then(|l| l.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit the benchmark was built from, read from `.git` without
/// running git; `unknown` in a plain source tree.
fn git_sha(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(sha) = read(&git.join(reference)) {
        return sha;
    }
    read(&git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (sha, name) = l.split_once(' ')?;
                (name == reference).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// What a run records about the machine it ran on.
#[derive(Debug, Clone, Serialize)]
pub struct HostRecord {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu_model: String,
    /// SIMD backend the kernel dispatch picked.
    pub simd: String,
    /// Commit SHA, or `unknown`.
    pub git_sha: String,
    /// Host steal, jiffies: the total since boot when read, the steal
    /// accrued since then in [`Self::to_json`].
    pub steal_jiffies: u64,
}

impl HostRecord {
    /// Reads the host record; `root` is the source tree's root.
    pub fn read(root: &Path) -> Self {
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: cpu_model(),
            simd: umicro::kernel::simd::active().name().to_string(),
            git_sha: git_sha(root),
            steal_jiffies: steal_jiffies(),
        }
    }

    /// One JSON object line, with the steal accrued since [`Self::read`].
    pub fn to_json(&self) -> String {
        let accrued = Self {
            steal_jiffies: steal_jiffies().saturating_sub(self.steal_jiffies),
            ..self.clone()
        };
        serde_json::to_string(&accrued).unwrap_or_default()
    }
}
