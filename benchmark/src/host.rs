//! What the host looked like while a workload ran: core count, load,
//! a fixed calibration spin and the process's peak memory. All of it is
//! reported next to the metrics so that two sets of runs taken on
//! differently loaded machines can be told apart.

use std::fs;
use std::hint::black_box;
use std::time::Instant;

use serde_json::{json, Value};

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The 1/5/15-minute load averages, or `"unknown"` off Linux.
fn loadavg() -> String {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .map(|text| {
            text.split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Host milliseconds for a fixed integer spin (2^24 xorshift steps): the
/// same work on every machine and every commit, so a change in it is a
/// change in the host, not in the program.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..(1u32 << 24) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// One reading of the host, taken at the start and at the end of every
/// workload.
#[derive(Clone, Debug)]
pub struct HostSample {
    pub nproc: usize,
    pub loadavg: String,
    pub calibration_ms: f64,
}

impl HostSample {
    pub fn take() -> HostSample {
        HostSample {
            nproc: nproc(),
            loadavg: loadavg(),
            calibration_ms: calibration_ms(),
        }
    }

    pub fn to_json(&self) -> Value {
        json!({
            "nproc": self.nproc as u64,
            "loadavg": self.loadavg,
            "calibration_ms": self.calibration_ms,
        })
    }
}

impl std::fmt::Display for HostSample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "nproc={} loadavg={} calibration_ms={:.3}",
            self.nproc, self.loadavg, self.calibration_ms
        )
    }
}
