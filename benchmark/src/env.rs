//! The environment block stamped into every result file, and the process's
//! own memory readings.

use serde::Content;
use std::process::Command;
use std::time::{Duration, Instant};

/// Where and on what a result was measured. `nproc` and `cpu_model` gate
/// `agree`; `calib_ns_per_iter` makes a slower or busier box recognisable.
#[derive(Debug, Clone)]
pub struct Environment {
    pub nproc: usize,
    pub cpu_model: String,
    pub ram_mb: u64,
    pub rustc: String,
    pub git_commit: String,
    /// Driver workers the workloads run with (always 1; see the README).
    pub workers: usize,
    pub calib_ns_per_iter: f64,
}

impl Environment {
    /// Probe the machine. Takes [`CALIBRATION`] for the calibration loop.
    pub fn capture() -> Environment {
        Environment {
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            cpu_model: proc_field("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
            ram_mb: proc_mb("/proc/meminfo", "MemTotal") as u64,
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
            workers: 1,
            calib_ns_per_iter: calibrate(),
        }
    }

    pub fn to_content(&self) -> Content {
        Content::Map(vec![
            ("nproc".into(), Content::U64(self.nproc as u64)),
            ("cpu_model".into(), Content::Str(self.cpu_model.clone())),
            ("ram_mb".into(), Content::U64(self.ram_mb)),
            ("rustc".into(), Content::Str(self.rustc.clone())),
            ("git_commit".into(), Content::Str(self.git_commit.clone())),
            ("workers".into(), Content::U64(self.workers as u64)),
            (
                "calib_ns_per_iter".into(),
                Content::F64(self.calib_ns_per_iter),
            ),
        ])
    }
}

fn unknown() -> String {
    "unknown".to_string()
}

/// First `key : value` line of a `/proc` file.
fn proc_field(path: &str, key: &str) -> Option<String> {
    let text = std::fs::read_to_string(path).ok()?;
    text.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        (k.trim() == key).then(|| v.trim().to_string())
    })
}

/// First output line of a command, or `"unknown"` (a checkout that is not
/// a git repository, a box without the tool).
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(unknown)
}

/// Length of the calibration loop.
pub const CALIBRATION: Duration = Duration::from_millis(500);

/// Nanoseconds per iteration of a fixed integer loop (a 64-bit LCG step,
/// a dependent chain the compiler cannot shorten), run for [`CALIBRATION`].
fn calibrate() -> f64 {
    const BATCH: u64 = 1 << 20;
    let start = Instant::now();
    let (mut x, mut iters) = (1u64, 0u64);
    while start.elapsed() < CALIBRATION {
        for _ in 0..BATCH {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
        }
        iters += BATCH;
    }
    std::hint::black_box(x);
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A `key: <n> kB` field of a `/proc` file in MB; 0 where the file or the
/// field is missing.
fn proc_mb(path: &str, key: &str) -> f64 {
    proc_field(path, key)
        .and_then(|v| v.trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A `/proc/self/status` memory field (`VmRSS`, `VmHWM`) in MB.
pub fn status_mb(field: &str) -> f64 {
    proc_mb("/proc/self/status", field)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_readings_are_positive_on_linux() {
        assert!(status_mb("VmRSS") > 0.0);
        assert!(status_mb("VmHWM") >= status_mb("VmRSS") * 0.5);
        assert_eq!(status_mb("NoSuchField"), 0.0);
    }
}
