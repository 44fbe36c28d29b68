//! Host facts: a speed probe that calls no repository code, peak memory, and
//! the provenance every result carries.

use std::path::Path;
use std::time::Instant;

/// About the probe's median on the reference host, a 2-vCPU Intel Xeon VM.
/// Set-up times are scaled by this over the run's probe: seconds as that
/// host would take them.
pub const REFERENCE_PROBE_MS: f64 = 30.0;

/// Elements the probe sorts: 8 MiB of `u64`, twice the L2 cache of the
/// reference host, so that the sort runs from L3 and memory like the
/// workloads do.
const PROBE_LEN: usize = 1 << 20;

/// Times `sort_unstable` on a fixed pseudo-random array of [`PROBE_LEN`]
/// `u64`s, in milliseconds. It calls no repository code. On the reference
/// host the sort slowed down with the workloads when the host did: over
/// four minutes, 20-second medians of 500 000-point exact clustering
/// spread 23 % (quartiles over median) and 1 % divided by this probe, but
/// 19 % divided by a pure integer and floating-point loop; over twelve
/// `serve-journal` runs the job p50 spread 14 %, 8 % divided by this probe
/// and 12 % by a 2 MiB sort. Interleaved with the workload, it tells host
/// drift apart from a change in the program.
///
/// The array is allocated once and refilled for every reading: a large
/// allocation freed and made again would move the allocator's mmap
/// threshold and with it the process's peak memory, which therefore
/// includes these 8 MiB.
pub struct Probe(Vec<u64>);

impl Default for Probe {
    fn default() -> Probe {
        Probe(vec![0; PROBE_LEN])
    }
}

impl Probe {
    pub fn ms(&mut self) -> f64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for v in &mut self.0 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *v = x;
        }
        let t = Instant::now();
        self.0.sort_unstable();
        std::hint::black_box(&self.0);
        t.elapsed().as_secs_f64() * 1e3
    }
}

/// Peak resident set size (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit of the checkout when it is a git work tree (read from
/// `.git/HEAD` without running git), else `"unknown"`.
pub fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".to_string()),
        None => head,
    }
}
