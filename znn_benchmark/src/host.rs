//! Host facts and noise signals read from `/proc`, plus the run
//! directory every file the benchmark writes goes into.

use std::path::PathBuf;

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker count of the multi-worker phases: `min(nproc, 4)`.
pub fn workers() -> usize {
    nproc().min(4)
}

/// Aggregate CPU jiffies from the first line of `/proc/stat`:
/// `(steal, total)`. `None` off Linux.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already included in user/nice
    let total = fields.iter().take(8).sum();
    Some((*fields.get(7)?, total))
}

/// Measures the hypervisor steal share of all CPU time between
/// construction and [`StealMeter::share`].
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> Self {
        StealMeter(cpu_jiffies())
    }

    pub fn share(&self) -> Option<f64> {
        let (s0, t0) = self.0?;
        let (s1, t1) = cpu_jiffies()?;
        (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
    }
}

/// CPU seconds (user + system, all threads) this process has consumed.
pub fn process_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // the command name (field 2) may contain spaces; fields after the
    // closing parenthesis are positional: utime is 14th, stime 15th overall
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    // USER_HZ is 100 on every Linux ABI Rust's std supports
    Some((utime + stime) / 100.0)
}

/// Peak resident set (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Directory for everything a run writes (checkpoints, span dumps):
/// `znn_benchmark_runs/` next to the build profile directory of the
/// running executable, i.e. inside the cargo target directory, which
/// is inside the checkout and ignored by git.
pub fn run_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the benchmark needs its own path to place its files");
    let profile_dir = exe.parent().expect("executable has a parent directory");
    profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("znn_benchmark_runs")
}

/// Where a traced run's spans go.
pub fn span_path(workload: &str, seed: u64) -> PathBuf {
    run_dir().join(format!("spans-{workload}-{seed}.jsonl"))
}
