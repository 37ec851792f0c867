//! Host facts the results depend on: core count and peak resident memory.

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set (`VmHWM`) of process `pid`, or of this process when
/// `None`, in MiB. `None` when `/proc` does not report it.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The host-labelling line: a run whose thread budget exceeds the host's
/// cores is oversubscribed, and its parallel figures are not speed-ups.
pub fn describe_budget(budget: usize, parts: &str) -> String {
    let cores = nproc();
    let label = if budget > cores {
        "OVERSUBSCRIBED"
    } else {
        "within host cores"
    };
    format!("host: nproc={cores}, thread budget={budget} ({parts}) -> {label}")
}
