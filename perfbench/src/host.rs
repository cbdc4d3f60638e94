//! Host-side observations that are not part of the system under test: a
//! fixed DRAM-bound probe (to tell a host slow phase apart from a program
//! change), resident-memory readings and the run's identity.

use std::hint::black_box;
use std::time::Instant;

/// 4 Mi slots of 8 bytes: larger than the last-level cache of the hosts the
/// benchmark targets, so every probe step is a DRAM round trip.
const PROBE_SLOTS: usize = 1 << 22;
const PROBE_STEPS: usize = 400_000;
const PROBE_REPEATS: usize = 5;

/// A random single-cycle permutation to chase (Sattolo's algorithm, fixed
/// xorshift seed), so the probe's work is identical on every run.
pub struct Probe {
    next: Vec<u32>,
}

impl Probe {
    pub fn new() -> Self {
        let mut next: Vec<u32> = (0..PROBE_SLOTS as u32).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in (1..PROBE_SLOTS).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x % i as u64) as usize;
            next.swap(i, j);
        }
        Probe { next }
    }

    /// Median wall time of a fixed pointer chase, in milliseconds.
    pub fn measure_ms(&self) -> f64 {
        let mut samples: Vec<f64> = (0..PROBE_REPEATS)
            .map(|_| {
                let start = Instant::now();
                let mut at = 0u32;
                for _ in 0..PROBE_STEPS {
                    at = self.next[at as usize];
                }
                black_box(at);
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[PROBE_REPEATS / 2]
    }
}

/// A `/proc/self/status` field in MiB (Linux); `None` where unavailable.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Current resident set size in MiB.
pub fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

/// Resident-set high-water mark of the process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit when the benchmark runs inside a git work tree
/// (read from `.git` directly, no `git` process); `"unknown"` otherwise.
pub fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => read(&format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string()),
        None => head.to_string(),
    }
}
