//! The daemon's unified observability plane: the lock-free metrics
//! registry, the structured logger, the per-request trace-capture budget,
//! and the rolling health time-series, bundled so `server.rs` threads one
//! handle instead of four.
//!
//! The time-series is a fixed-capacity ring of periodic [`HealthSample`]s
//! taken by the `dbscan-sample` thread. Each sample stores both the raw
//! cumulative counters and the *derived window rates* (throughput per
//! second, cache hit rate over the window) computed against the previous
//! sample, so a consumer can read rates without re-deriving deltas — and
//! the `timeseries` verb stays a pure projection.

use crate::json::{obj, Value};
use crate::logging::Logger;
use crate::metrics::Metrics;
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Duration;

/// One periodic health snapshot: point-in-time gauges plus cumulative
/// counters plus the rates derived over the window since the prior sample.
#[derive(Clone, Copy, Debug)]
pub struct HealthSample {
    pub uptime_ms: u64,
    pub queue_depth: u64,
    pub running: u64,
    pub avg_job_ms: u64,
    pub submitted: u64,
    pub completed: u64,
    pub failed: u64,
    pub cancelled: u64,
    pub shed: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_bytes: u64,
    /// Jobs that reached `done` during this window.
    pub completed_in_window: u64,
    /// `completed_in_window` scaled to per-second over the actual window.
    pub throughput_per_s: f64,
    /// Cache hit fraction over the window's lookups (0 when none happened).
    pub cache_hit_rate: f64,
}

impl HealthSample {
    pub fn to_value(&self) -> Value {
        obj(vec![
            ("uptime_ms", Value::Num(self.uptime_ms as f64)),
            ("queue_depth", Value::Num(self.queue_depth as f64)),
            ("running", Value::Num(self.running as f64)),
            ("avg_job_ms", Value::Num(self.avg_job_ms as f64)),
            ("submitted", Value::Num(self.submitted as f64)),
            ("completed", Value::Num(self.completed as f64)),
            ("failed", Value::Num(self.failed as f64)),
            ("cancelled", Value::Num(self.cancelled as f64)),
            ("shed", Value::Num(self.shed as f64)),
            ("cache_hits", Value::Num(self.cache_hits as f64)),
            ("cache_misses", Value::Num(self.cache_misses as f64)),
            ("cache_bytes", Value::Num(self.cache_bytes as f64)),
            (
                "completed_in_window",
                Value::Num(self.completed_in_window as f64),
            ),
            ("throughput_per_s", Value::Num(self.throughput_per_s)),
            ("cache_hit_rate", Value::Num(self.cache_hit_rate)),
        ])
    }
}

/// Fixed-capacity ring of [`HealthSample`]s: pushing past capacity evicts
/// the oldest, so memory stays bounded no matter how long the daemon runs.
pub struct HealthRing {
    cap: usize,
    samples: VecDeque<HealthSample>,
    /// Total samples ever pushed (so consumers can detect eviction).
    pushed: u64,
}

impl HealthRing {
    pub fn new(cap: usize) -> HealthRing {
        HealthRing {
            cap: cap.max(1),
            samples: VecDeque::new(),
            pushed: 0,
        }
    }

    /// Derives window rates against the most recent sample (using the
    /// uptime delta as the window length) and appends, evicting the oldest
    /// entry once past capacity.
    pub fn push(&mut self, mut sample: HealthSample) {
        if let Some(prev) = self.samples.back() {
            let window_ms = sample.uptime_ms.saturating_sub(prev.uptime_ms);
            sample.completed_in_window = sample.completed.saturating_sub(prev.completed);
            sample.throughput_per_s = if window_ms > 0 {
                sample.completed_in_window as f64 * 1000.0 / window_ms as f64
            } else {
                0.0
            };
            let lookups = sample.cache_hits.saturating_sub(prev.cache_hits)
                + sample.cache_misses.saturating_sub(prev.cache_misses);
            sample.cache_hit_rate = if lookups > 0 {
                sample.cache_hits.saturating_sub(prev.cache_hits) as f64 / lookups as f64
            } else {
                0.0
            };
        } else {
            // First sample: the whole uptime is the window.
            sample.completed_in_window = sample.completed;
            sample.throughput_per_s = if sample.uptime_ms > 0 {
                sample.completed as f64 * 1000.0 / sample.uptime_ms as f64
            } else {
                0.0
            };
            let lookups = sample.cache_hits + sample.cache_misses;
            sample.cache_hit_rate = if lookups > 0 {
                sample.cache_hits as f64 / lookups as f64
            } else {
                0.0
            };
        }
        if self.samples.len() == self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
        self.pushed += 1;
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    pub fn samples(&self) -> impl Iterator<Item = &HealthSample> {
        self.samples.iter()
    }

    pub fn to_value(&self) -> Value {
        Value::Arr(self.samples.iter().map(|s| s.to_value()).collect())
    }
}

/// Everything `server.rs` needs to be observable, in one handle.
pub struct Telemetry {
    pub metrics: Metrics,
    pub log: Logger,
    pub ring: Mutex<HealthRing>,
    pub sample_interval: Duration,
    /// Byte budget for an inline per-request trace (`submit {"trace":...}`).
    pub trace_max_bytes: usize,
}

impl Telemetry {
    pub fn new(
        log: Logger,
        timeseries_cap: usize,
        sample_interval: Duration,
        trace_max_bytes: usize,
    ) -> Telemetry {
        Telemetry {
            metrics: Metrics::default(),
            log,
            ring: Mutex::new(HealthRing::new(timeseries_cap)),
            sample_interval,
            trace_max_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(uptime_ms: u64, completed: u64, hits: u64, misses: u64) -> HealthSample {
        HealthSample {
            uptime_ms,
            queue_depth: 0,
            running: 0,
            avg_job_ms: 0,
            submitted: completed,
            completed,
            failed: 0,
            cancelled: 0,
            shed: 0,
            cache_hits: hits,
            cache_misses: misses,
            cache_bytes: 0,
            completed_in_window: 0,
            throughput_per_s: 0.0,
            cache_hit_rate: 0.0,
        }
    }

    #[test]
    fn ring_rotates_past_capacity() {
        let mut ring = HealthRing::new(3);
        for i in 0..10u64 {
            ring.push(sample(i * 1000, i, 0, 0));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_pushed(), 10);
        // Oldest surviving sample is #7 (uptime 7000); eviction kept order.
        let uptimes: Vec<u64> = ring.samples().map(|s| s.uptime_ms).collect();
        assert_eq!(uptimes, vec![7000, 8000, 9000]);
    }

    #[test]
    fn window_rates_derive_from_previous_sample() {
        let mut ring = HealthRing::new(8);
        ring.push(sample(1000, 4, 2, 2));
        ring.push(sample(3000, 10, 8, 2)); // +6 done over 2s, +6 hits +0 misses
        let last = *ring.samples().last().unwrap();
        assert_eq!(last.completed_in_window, 6);
        assert!((last.throughput_per_s - 3.0).abs() < 1e-9);
        assert!((last.cache_hit_rate - 1.0).abs() < 1e-9);
        // First sample treats full uptime as the window.
        let first = *ring.samples().next().unwrap();
        assert_eq!(first.completed_in_window, 4);
        assert!((first.throughput_per_s - 4.0).abs() < 1e-9);
        assert!((first.cache_hit_rate - 0.5).abs() < 1e-9);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut ring = HealthRing::new(0);
        ring.push(sample(1, 1, 0, 0));
        ring.push(sample(2, 2, 0, 0));
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.capacity(), 1);
    }
}
