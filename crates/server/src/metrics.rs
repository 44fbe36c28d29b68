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
//! The latency histograms are [`Log2Hist`]s, the type behind the tracer's
//! `histograms` in the `dbscan-stats/v7` envelope, so both share one log2
//! bucketing (`dbscan_core::trace::hist`).

use crate::cache::CacheStats;
use dbscan_core::trace::hist::{bucket_le, Log2Hist, NUM_BUCKETS};
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

/// The registry: one atomic cell per [`MCounter`], one [`Log2Hist`] per
/// [`MHist`], and the EWMA job-time gauge the backpressure hint uses.
#[derive(Default)]
pub struct Metrics {
    counters: [AtomicU64; MCounter::COUNT],
    hists: [Log2Hist; MHist::COUNT],
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

    pub fn hist(&self, h: MHist) -> &Log2Hist {
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
        if let Some(top) = (0..NUM_BUCKETS).rev().find(|&k| hist.bucket(k) > 0) {
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

    fn idle_gauges() -> Gauges {
        Gauges {
            uptime_ms: 0,
            queue_depth: 0,
            running: 0,
            draining: false,
            workers: 1,
            job_threads: 1,
            max_queue: 1,
            cache: CacheStats::default(),
        }
    }

    /// Values at the log2 bucket edges, `u64::MAX` included, land under the
    /// right inclusive `le` bounds of the exposition.
    #[test]
    fn log2_bucket_edges() {
        let m = Metrics::default();
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            (1 << 63) - 1,
            1 << 63,
            u64::MAX - 1,
            u64::MAX,
        ] {
            m.record(MHist::QueueWaitUs, v);
        }
        let text = render_prometheus(&m, &idle_gauges());
        for (le, cumulative) in [
            ("1", 2),
            ("3", 4),
            ("7", 5),
            ("4611686018427387903", 5),
            ("9223372036854775807", 6),
            ("18446744073709551615", 9),
            ("+Inf", 9),
        ] {
            let line = format!("dbscan_server_queue_wait_us_bucket{{le=\"{le}\"}} {cumulative}\n");
            assert!(text.contains(&line), "missing {line:?}");
        }
    }

    #[test]
    fn histogram_records_and_accumulates() {
        let m = Metrics::default();
        for v in [0u64, 1, 2, 3, 1000, u64::MAX] {
            m.record(MHist::ServiceUs, v);
        }
        let h = m.hist(MHist::ServiceUs);
        assert_eq!(h.snapshot().count, 6);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(9), 1); // 1000 in [512, 1024)
        assert_eq!(h.bucket(63), 1); // u64::MAX
                                     // fetch_add wraps, so the sum is (0+1+2+3+1000+u64::MAX) mod 2^64.
        assert_eq!(h.sum(), 1006u64.wrapping_add(u64::MAX));
        assert_eq!(m.hist(MHist::QueueWaitUs).snapshot().count, 0);
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

    const GOLDEN_EXPOSITION: &str = r#"# TYPE dbscan_server_jobs_submitted_total counter
dbscan_server_jobs_submitted_total 5
# TYPE dbscan_server_jobs_completed_total counter
dbscan_server_jobs_completed_total 3
# TYPE dbscan_server_jobs_failed_total counter
dbscan_server_jobs_failed_total 1
# TYPE dbscan_server_jobs_cancelled_total counter
dbscan_server_jobs_cancelled_total 1
# TYPE dbscan_server_jobs_shed_total counter
dbscan_server_jobs_shed_total 1
# TYPE dbscan_server_jobs_degraded_total counter
dbscan_server_jobs_degraded_total 0
# TYPE dbscan_server_worker_panics_total counter
dbscan_server_worker_panics_total 0
# TYPE dbscan_server_sequential_fallbacks_total counter
dbscan_server_sequential_fallbacks_total 0
# TYPE dbscan_server_recovered_jobs_total counter
dbscan_server_recovered_jobs_total 0
# TYPE dbscan_server_evicted_conns_total counter
dbscan_server_evicted_conns_total 0
# TYPE dbscan_server_malformed_frames_total counter
dbscan_server_malformed_frames_total 0
# TYPE dbscan_server_rejected_conns_total counter
dbscan_server_rejected_conns_total 0
# TYPE dbscan_server_cache_hits_total counter
dbscan_server_cache_hits_total 4
# TYPE dbscan_server_cache_misses_total counter
dbscan_server_cache_misses_total 6
# TYPE dbscan_server_cache_evictions_total counter
dbscan_server_cache_evictions_total 1
# TYPE dbscan_server_cache_collisions_total counter
dbscan_server_cache_collisions_total 0
# TYPE dbscan_server_uptime_ms gauge
dbscan_server_uptime_ms 9876
# TYPE dbscan_server_queue_depth gauge
dbscan_server_queue_depth 2
# TYPE dbscan_server_jobs_running gauge
dbscan_server_jobs_running 1
# TYPE dbscan_server_draining gauge
dbscan_server_draining 1
# TYPE dbscan_server_workers gauge
dbscan_server_workers 2
# TYPE dbscan_server_job_threads gauge
dbscan_server_job_threads 3
# TYPE dbscan_server_max_queue gauge
dbscan_server_max_queue 64
# TYPE dbscan_server_avg_job_ms gauge
dbscan_server_avg_job_ms 40
# TYPE dbscan_server_cache_entries gauge
dbscan_server_cache_entries 2
# TYPE dbscan_server_cache_bytes gauge
dbscan_server_cache_bytes 4096
# TYPE dbscan_server_cache_budget_bytes gauge
dbscan_server_cache_budget_bytes 67108864
# TYPE dbscan_server_queue_wait_us histogram
dbscan_server_queue_wait_us_bucket{le="1"} 2
dbscan_server_queue_wait_us_bucket{le="3"} 3
dbscan_server_queue_wait_us_bucket{le="7"} 3
dbscan_server_queue_wait_us_bucket{le="15"} 3
dbscan_server_queue_wait_us_bucket{le="31"} 3
dbscan_server_queue_wait_us_bucket{le="63"} 3
dbscan_server_queue_wait_us_bucket{le="127"} 3
dbscan_server_queue_wait_us_bucket{le="255"} 3
dbscan_server_queue_wait_us_bucket{le="511"} 3
dbscan_server_queue_wait_us_bucket{le="1023"} 4
dbscan_server_queue_wait_us_bucket{le="2047"} 4
dbscan_server_queue_wait_us_bucket{le="4095"} 4
dbscan_server_queue_wait_us_bucket{le="8191"} 4
dbscan_server_queue_wait_us_bucket{le="16383"} 4
dbscan_server_queue_wait_us_bucket{le="32767"} 4
dbscan_server_queue_wait_us_bucket{le="65535"} 4
dbscan_server_queue_wait_us_bucket{le="131071"} 4
dbscan_server_queue_wait_us_bucket{le="262143"} 4
dbscan_server_queue_wait_us_bucket{le="524287"} 4
dbscan_server_queue_wait_us_bucket{le="1048575"} 4
dbscan_server_queue_wait_us_bucket{le="2097151"} 5
dbscan_server_queue_wait_us_bucket{le="+Inf"} 5
dbscan_server_queue_wait_us_sum 1049479
dbscan_server_queue_wait_us_count 5
# TYPE dbscan_server_service_time_us histogram
dbscan_server_service_time_us_bucket{le="1"} 0
dbscan_server_service_time_us_bucket{le="3"} 0
dbscan_server_service_time_us_bucket{le="7"} 0
dbscan_server_service_time_us_bucket{le="15"} 0
dbscan_server_service_time_us_bucket{le="31"} 0
dbscan_server_service_time_us_bucket{le="63"} 0
dbscan_server_service_time_us_bucket{le="127"} 0
dbscan_server_service_time_us_bucket{le="255"} 0
dbscan_server_service_time_us_bucket{le="511"} 0
dbscan_server_service_time_us_bucket{le="1023"} 0
dbscan_server_service_time_us_bucket{le="2047"} 0
dbscan_server_service_time_us_bucket{le="4095"} 0
dbscan_server_service_time_us_bucket{le="8191"} 1
dbscan_server_service_time_us_bucket{le="+Inf"} 1
dbscan_server_service_time_us_sum 5000
dbscan_server_service_time_us_count 1
# TYPE dbscan_server_end_to_end_us histogram
dbscan_server_end_to_end_us_bucket{le="1"} 0
dbscan_server_end_to_end_us_bucket{le="3"} 0
dbscan_server_end_to_end_us_bucket{le="7"} 0
dbscan_server_end_to_end_us_bucket{le="15"} 0
dbscan_server_end_to_end_us_bucket{le="31"} 0
dbscan_server_end_to_end_us_bucket{le="63"} 0
dbscan_server_end_to_end_us_bucket{le="127"} 1
dbscan_server_end_to_end_us_bucket{le="+Inf"} 1
dbscan_server_end_to_end_us_sum 100
dbscan_server_end_to_end_us_count 1
"#;

    /// The whole exposition for fixed recordings, compared as one string.
    #[test]
    fn exposition_matches_golden_text() {
        let m = Metrics::default();
        m.add(MCounter::Submitted, 5);
        m.add(MCounter::Completed, 3);
        m.bump(MCounter::Failed);
        m.bump(MCounter::Cancelled);
        m.bump(MCounter::ShedJobs);
        m.observe_job_ms(40);
        for v in [0u64, 1, 2, 900, 1 << 20] {
            m.record(MHist::QueueWaitUs, v);
        }
        m.record(MHist::ServiceUs, 5000);
        m.record(MHist::EndToEndUs, 100);
        let g = Gauges {
            uptime_ms: 9876,
            queue_depth: 2,
            running: 1,
            draining: true,
            workers: 2,
            job_threads: 3,
            max_queue: 64,
            cache: CacheStats {
                hits: 4,
                misses: 6,
                evictions: 1,
                collisions: 0,
                entries: 2,
                bytes: 4096,
                budget_bytes: 1 << 26,
            },
        };
        assert_eq!(render_prometheus(&m, &g), GOLDEN_EXPOSITION);
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
        assert_eq!(m.hist(MHist::EndToEndUs).snapshot().count, 8000);
        assert_eq!(m.hist(MHist::EndToEndUs).sum(), 8 * (999 * 1000 / 2));
    }
}
