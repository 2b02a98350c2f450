//! Host fingerprint and process resource readings, all from `/proc` and
//! the build; nothing outside the checkout is written.

use std::path::Path;
use std::process::Command;

/// Where a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Usable hardware threads.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// Kernel release.
    pub kernel: String,
    /// Compiler that built the benchmark.
    pub rustc: String,
    /// Commit of the measured tree, or `none` outside a git checkout.
    pub git_rev: String,
    /// Whether tracked files differ from that commit (`None` when unknown).
    pub git_dirty: Option<bool>,
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status.success().then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Reads the fingerprint. Git is asked only when the working directory is
/// itself a checkout root, so no parent directory is ever searched.
pub fn fingerprint() -> Host {
    let cpu_model = read("/proc/cpuinfo")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = read("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let (git_rev, git_dirty) = if Path::new(".git").exists() {
        let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string());
        let dirty = git(&["status", "--porcelain", "--untracked-files=no"]).map(|s| !s.is_empty());
        (rev, dirty)
    } else {
        ("none".to_string(), None)
    };
    Host {
        nproc: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        cpu_model,
        kernel,
        rustc: env!("NAVBENCH_RUSTC").to_string(),
        git_rev,
        git_dirty,
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    read("/proc/self/status")
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// User + system CPU time of the whole process (every thread, including
/// exited ones) in nanoseconds, at the kernel's 10 ms tick resolution.
pub fn process_cpu_ns() -> u64 {
    // Fields 14 and 15 of /proc/self/stat, counted after the `(comm)`
    // field, which may itself contain spaces. Linux reports them in
    // USER_HZ = 100 ticks per second.
    read("/proc/self/stat")
        .and_then(|s| {
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            let utime: u64 = f.get(11)?.parse().ok()?;
            let stime: u64 = f.get(12)?.parse().ok()?;
            Some((utime + stime) * 10_000_000)
        })
        .unwrap_or(0)
}
