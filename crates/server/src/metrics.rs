//! Lock-free metrics registry + Prometheus-style text exposition.
//!
//! The single source of truth for every daemon counter: the `health` verb,
//! the `metrics` verb, the `--metrics-listen` HTTP endpoint, and the final
//! shutdown envelope all project the same `AtomicU64` cells, so they can
//! never disagree. Counters and histogram buckets are plain relaxed
//! `fetch_add`s — the job hot path never takes a lock to be observable.
//! Gauges (queue depth, in-flight, cache occupancy, drain state) are
//! sampled from the live server at scrape time and passed in as a
//! [`Gauges`] snapshot.
//!
//! Latency histograms use the same fixed log2 bucketing as
//! `dbscan_core::trace::hist`: bucket `k` holds values in
//! `[2^k, 2^(k+1))` (value 0 shares bucket 0 with 1), 64 buckets cover the
//! full `u64` range, and the exposition renders them cumulatively with
//! exact inclusive `le` bounds (`2^(k+1) - 1`) plus the conventional
//! `+Inf` terminal bucket.

use crate::cache::CacheStats;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every monotonic counter the daemon maintains.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MCounter {
    /// Jobs admitted past the queue bound check.
    Submitted,
    /// Jobs that reached `done`.
    Completed,
    /// Jobs that reached `failed` (typed errors and caught panics).
    Failed,
    /// Jobs cancelled (verb, drain, or cooperative deadline-cancel).
    Cancelled,
    /// Submissions shed by admission control (`overloaded`).
    ShedJobs,
    /// Jobs the pressure valve switched to ρ-approximate.
    DegradedJobs,
    /// Worker panics observed (in-pipeline poison latches and job-boundary
    /// `catch_unwind` trips).
    WorkerPanics,
    /// Parallel runs that recovered by re-running sequentially.
    SequentialFallbacks,
    /// Non-terminal jobs re-enqueued from the journal at startup.
    RecoveredJobs,
    /// Connections closed by the `--conn-timeout` idle deadline
    /// (slow-loris defense).
    EvictedConns,
    /// Frames that were not valid UTF-8 JSON, or grew past
    /// `--max-frame-bytes` without a newline.
    MalformedFrames,
    /// Connections refused at accept because `--max-conns` was reached.
    RejectedConns,
}

impl MCounter {
    pub const COUNT: usize = 12;
    pub const ALL: [MCounter; MCounter::COUNT] = [
        MCounter::Submitted,
        MCounter::Completed,
        MCounter::Failed,
        MCounter::Cancelled,
        MCounter::ShedJobs,
        MCounter::DegradedJobs,
        MCounter::WorkerPanics,
        MCounter::SequentialFallbacks,
        MCounter::RecoveredJobs,
        MCounter::EvictedConns,
        MCounter::MalformedFrames,
        MCounter::RejectedConns,
    ];

    /// Metric name without the `dbscan_server_` prefix.
    pub fn name(self) -> &'static str {
        match self {
            MCounter::Submitted => "jobs_submitted_total",
            MCounter::Completed => "jobs_completed_total",
            MCounter::Failed => "jobs_failed_total",
            MCounter::Cancelled => "jobs_cancelled_total",
            MCounter::ShedJobs => "jobs_shed_total",
            MCounter::DegradedJobs => "jobs_degraded_total",
            MCounter::WorkerPanics => "worker_panics_total",
            MCounter::SequentialFallbacks => "sequential_fallbacks_total",
            MCounter::RecoveredJobs => "recovered_jobs_total",
            MCounter::EvictedConns => "evicted_conns_total",
            MCounter::MalformedFrames => "malformed_frames_total",
            MCounter::RejectedConns => "rejected_conns_total",
        }
    }
}

/// The three request-latency histograms.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MHist {
    /// Microseconds a job spent queued before an executor picked it up.
    QueueWaitUs,
    /// Microseconds of executor wall time (the clustering itself).
    ServiceUs,
    /// Submission-to-terminal-state microseconds (queue wait + service).
    EndToEndUs,
}

impl MHist {
    pub const COUNT: usize = 3;
    pub const ALL: [MHist; MHist::COUNT] =
        [MHist::QueueWaitUs, MHist::ServiceUs, MHist::EndToEndUs];

    pub fn name(self) -> &'static str {
        match self {
            MHist::QueueWaitUs => "queue_wait_us",
            MHist::ServiceUs => "service_time_us",
            MHist::EndToEndUs => "end_to_end_us",
        }
    }
}

/// Log2 bucket index of `value`: `floor(log2(value))`, with 0 sharing
/// bucket 0 with 1 (there is no separate underflow bucket; every `u64`
/// lands in one of the 64 buckets).
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        63 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `k` (the exposition's `le` label):
/// `2^(k+1) - 1`, saturating to `u64::MAX` for the top bucket.
pub fn bucket_le(k: usize) -> u64 {
    if k >= 63 {
        u64::MAX
    } else {
        (1u64 << (k + 1)) - 1
    }
}

/// One fixed-shape log2 histogram: 64 lock-free buckets plus the running
/// sum. ~0.5 KiB of atomics; recording is two relaxed `fetch_add`s.
pub struct Hist {
    buckets: [AtomicU64; 64],
    sum: AtomicU64,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Hist {
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    pub fn bucket(&self, k: usize) -> u64 {
        self.buckets[k].load(Ordering::Relaxed)
    }

    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Highest bucket index holding at least one observation.
    fn highest(&self) -> Option<usize> {
        (0..64).rev().find(|&k| self.bucket(k) > 0)
    }
}

/// The registry: one atomic cell per [`MCounter`], one [`Hist`] per
/// [`MHist`], and the EWMA job-time gauge the backpressure hint uses.
#[derive(Default)]
pub struct Metrics {
    counters: [AtomicU64; MCounter::COUNT],
    hists: [Hist; MHist::COUNT],
    /// EWMA of completed-job wall time in ms, for `retry_after_ms` estimates
    /// (a gauge, not a counter — updated via `fetch_update`).
    pub avg_job_ms: AtomicU64,
}

impl Metrics {
    pub fn add(&self, c: MCounter, n: u64) {
        if n > 0 {
            self.counters[c as usize].fetch_add(n, Ordering::SeqCst);
        }
    }

    pub fn bump(&self, c: MCounter) {
        self.add(c, 1);
    }

    pub fn get(&self, c: MCounter) -> u64 {
        self.counters[c as usize].load(Ordering::SeqCst)
    }

    pub fn record(&self, h: MHist, value: u64) {
        self.hists[h as usize].record(value);
    }

    pub fn hist(&self, h: MHist) -> &Hist {
        &self.hists[h as usize]
    }

    /// Folds one completed-job wall time into the EWMA gauge
    /// (compare-exchange loop: concurrent executors must not interleave the
    /// load/compute/store and lose each other's samples).
    pub fn observe_job_ms(&self, ms: u64) {
        let _ = self
            .avg_job_ms
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |prev| {
                Some(if prev == 0 { ms } else { (3 * prev + ms) / 4 })
            });
    }
}

/// Point-in-time gauges sampled by the caller at scrape time.
pub struct Gauges {
    pub uptime_ms: u64,
    pub queue_depth: u64,
    pub running: u64,
    pub draining: bool,
    pub workers: u64,
    pub job_threads: u64,
    pub max_queue: u64,
    pub cache: CacheStats,
}

fn counter_line(out: &mut String, name: &str, v: u64) {
    let _ = writeln!(out, "# TYPE dbscan_server_{name} counter");
    let _ = writeln!(out, "dbscan_server_{name} {v}");
}

fn gauge_line(out: &mut String, name: &str, v: u64) {
    let _ = writeln!(out, "# TYPE dbscan_server_{name} gauge");
    let _ = writeln!(out, "dbscan_server_{name} {v}");
}

/// Renders the full Prometheus text exposition (`dbscan-server-metrics/v1`):
/// every counter, the sampled gauges, and the three latency histograms in
/// cumulative-bucket form. Empty tail buckets are elided (only buckets up to
/// the highest non-empty one are printed, plus `+Inf`).
pub fn render_prometheus(m: &Metrics, g: &Gauges) -> String {
    let mut out = String::with_capacity(4096);
    for c in MCounter::ALL {
        counter_line(&mut out, c.name(), m.get(c));
    }
    counter_line(&mut out, "cache_hits_total", g.cache.hits);
    counter_line(&mut out, "cache_misses_total", g.cache.misses);
    counter_line(&mut out, "cache_evictions_total", g.cache.evictions);
    counter_line(&mut out, "cache_collisions_total", g.cache.collisions);
    gauge_line(&mut out, "uptime_ms", g.uptime_ms);
    gauge_line(&mut out, "queue_depth", g.queue_depth);
    gauge_line(&mut out, "jobs_running", g.running);
    gauge_line(&mut out, "draining", u64::from(g.draining));
    gauge_line(&mut out, "workers", g.workers);
    gauge_line(&mut out, "job_threads", g.job_threads);
    gauge_line(&mut out, "max_queue", g.max_queue);
    gauge_line(&mut out, "avg_job_ms", m.avg_job_ms.load(Ordering::SeqCst));
    gauge_line(&mut out, "cache_entries", g.cache.entries as u64);
    gauge_line(&mut out, "cache_bytes", g.cache.bytes);
    gauge_line(&mut out, "cache_budget_bytes", g.cache.budget_bytes);
    for h in MHist::ALL {
        let hist = m.hist(h);
        let name = h.name();
        let _ = writeln!(out, "# TYPE dbscan_server_{name} histogram");
        let mut cumulative = 0u64;
        if let Some(top) = hist.highest() {
            for k in 0..=top {
                cumulative += hist.bucket(k);
                let _ = writeln!(
                    out,
                    "dbscan_server_{name}_bucket{{le=\"{}\"}} {cumulative}",
                    bucket_le(k)
                );
            }
        }
        let _ = writeln!(
            out,
            "dbscan_server_{name}_bucket{{le=\"+Inf\"}} {cumulative}"
        );
        let _ = writeln!(out, "dbscan_server_{name}_sum {}", hist.sum());
        let _ = writeln!(out, "dbscan_server_{name}_count {cumulative}");
    }
    out
}

/// Parses a text exposition back into `(name, value)` pairs — the shared
/// helper for loadgen's poller and the integration tests. Histogram bucket
/// lines keep their `{le="..."}` selector as part of the name.
pub fn parse_exposition(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .filter_map(|l| {
            let (name, val) = l.rsplit_once(' ')?;
            Some((name.to_string(), val.trim().parse::<f64>().ok()?))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_bucket_edges() {
        // Satellite requirement: 0, 1, and the u64::MAX-adjacent edges.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of((1 << 63) - 1), 62);
        assert_eq!(bucket_of(1 << 63), 63);
        assert_eq!(bucket_of(u64::MAX - 1), 63);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_le(0), 1);
        assert_eq!(bucket_le(1), 3);
        assert_eq!(bucket_le(62), (1 << 63) - 1);
        assert_eq!(bucket_le(63), u64::MAX);
    }

    #[test]
    fn histogram_records_and_accumulates() {
        let h = Hist::default();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(9), 1); // 1000 in [512, 1024)
        assert_eq!(h.bucket(63), 1); // u64::MAX
                                     // fetch_add wraps, so the sum is (0+1+2+3+1000+u64::MAX) mod 2^64.
        assert_eq!(h.sum(), 1006u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn exposition_is_cumulative_and_self_consistent() {
        let m = Metrics::default();
        m.bump(MCounter::Submitted);
        m.bump(MCounter::Submitted);
        m.bump(MCounter::Completed);
        for v in [0u64, 5, 5, 300] {
            m.record(MHist::ServiceUs, v);
        }
        let g = Gauges {
            uptime_ms: 1234,
            queue_depth: 3,
            running: 1,
            draining: false,
            workers: 2,
            job_threads: 1,
            max_queue: 64,
            cache: CacheStats::default(),
        };
        let text = render_prometheus(&m, &g);
        let parsed = parse_exposition(&text);
        let get = |name: &str| {
            parsed
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("metric {name} missing from exposition"))
        };
        assert_eq!(get("dbscan_server_jobs_submitted_total"), 2.0);
        assert_eq!(get("dbscan_server_jobs_completed_total"), 1.0);
        assert_eq!(get("dbscan_server_queue_depth"), 3.0);
        assert_eq!(get("dbscan_server_service_time_us_count"), 4.0);
        assert_eq!(get("dbscan_server_service_time_us_sum"), 310.0);
        // Cumulative buckets: le=1 holds the 0 observation, le=7 adds the
        // two 5s, le=511 adds the 300, +Inf equals the count.
        assert_eq!(get("dbscan_server_service_time_us_bucket{le=\"1\"}"), 1.0);
        assert_eq!(get("dbscan_server_service_time_us_bucket{le=\"7\"}"), 3.0);
        assert_eq!(get("dbscan_server_service_time_us_bucket{le=\"511\"}"), 4.0);
        assert_eq!(
            get("dbscan_server_service_time_us_bucket{le=\"+Inf\"}"),
            4.0
        );
        // Buckets are monotonically non-decreasing in exposition order.
        let mut last = 0.0;
        for (n, v) in &parsed {
            if n.starts_with("dbscan_server_service_time_us_bucket") {
                assert!(*v >= last, "bucket regression at {n}");
                last = *v;
            }
        }
    }

    #[test]
    fn empty_histogram_still_renders_inf_sum_count() {
        let m = Metrics::default();
        let g = Gauges {
            uptime_ms: 0,
            queue_depth: 0,
            running: 0,
            draining: true,
            workers: 1,
            job_threads: 1,
            max_queue: 1,
            cache: CacheStats::default(),
        };
        let text = render_prometheus(&m, &g);
        assert!(text.contains("dbscan_server_queue_wait_us_bucket{le=\"+Inf\"} 0"));
        assert!(text.contains("dbscan_server_queue_wait_us_count 0"));
        assert!(text.contains("dbscan_server_draining 1"));
    }

    #[test]
    fn concurrent_increments_sum_exactly() {
        let m = std::sync::Arc::new(Metrics::default());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for i in 0..1000u64 {
                        m.bump(MCounter::Submitted);
                        m.record(MHist::EndToEndUs, i);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.get(MCounter::Submitted), 8000);
        assert_eq!(m.hist(MHist::EndToEndUs).count(), 8000);
        assert_eq!(m.hist(MHist::EndToEndUs).sum(), 8 * (999 * 1000 / 2));
    }
}
