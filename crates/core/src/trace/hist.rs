//! Log2-bucketed histograms for the latency/size distributions the aggregate
//! counters cannot show: task wall times, per-edge BCP test times, and
//! neighbor-list sizes.
//!
//! Bucket `b` counts values in `[2^b, 2^(b+1))` (bucket 0 additionally holds
//! the value 0), so 64 buckets cover the whole `u64` range; recording is one
//! relaxed `fetch_add` plus a min/max update, cheap enough for per-edge
//! sites. Rendered into the `histograms` section of the `dbscan-stats/v7`
//! envelope and the `repro trace` summary.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (covers all of `u64`).
pub const NUM_BUCKETS: usize = 64;

/// The distributions the tracer collects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HistKind {
    /// Wall time of one parallel task (labeling / edge / border), nanoseconds.
    TaskNanos,
    /// Wall time of one edge test (BCP predicate, NN probe, or counter
    /// probe), nanoseconds.
    EdgeTestNanos,
    /// Result size of one region query (KDD'96 and the CIT08 local runs) —
    /// the per-query view of `range_points_returned`.
    NeighborListLen,
}

impl HistKind {
    pub const COUNT: usize = 3;

    pub const ALL: [HistKind; HistKind::COUNT] = [
        HistKind::TaskNanos,
        HistKind::EdgeTestNanos,
        HistKind::NeighborListLen,
    ];

    /// Stable snake_case key used in the JSON schema.
    pub fn name(self) -> &'static str {
        match self {
            HistKind::TaskNanos => "task_nanos",
            HistKind::EdgeTestNanos => "edge_test_nanos",
            HistKind::NeighborListLen => "neighbor_list_len",
        }
    }
}

/// Bucket index of a value: `floor(log2(v))`, with 0 mapped to bucket 0.
#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        63 - v.leading_zeros() as usize
    }
}

/// Lower bound of bucket `b` (the value the JSON renders as the bucket key).
fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << b
    }
}

/// One atomic histogram per [`HistKind`], shareable across worker threads.
pub struct Histograms {
    buckets: Box<[AtomicU64]>, // HistKind::COUNT * NUM_BUCKETS, flat
    mins: [AtomicU64; HistKind::COUNT],
    maxs: [AtomicU64; HistKind::COUNT],
}

impl Default for Histograms {
    fn default() -> Self {
        Self::new()
    }
}

impl Histograms {
    pub fn new() -> Self {
        Histograms {
            buckets: (0..HistKind::COUNT * NUM_BUCKETS)
                .map(|_| AtomicU64::new(0))
                .collect(),
            mins: [const { AtomicU64::new(u64::MAX) }; HistKind::COUNT],
            maxs: [const { AtomicU64::new(0) }; HistKind::COUNT],
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, kind: HistKind, value: u64) {
        let k = kind as usize;
        self.buckets[k * NUM_BUCKETS + bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.mins[k].fetch_min(value, Ordering::Relaxed);
        self.maxs[k].fetch_max(value, Ordering::Relaxed);
    }

    /// Immutable snapshot of one distribution.
    pub fn snapshot(&self, kind: HistKind) -> HistSnapshot {
        let k = kind as usize;
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for b in 0..NUM_BUCKETS {
            let c = self.buckets[k * NUM_BUCKETS + b].load(Ordering::Relaxed);
            if c > 0 {
                buckets.push((bucket_floor(b), c));
                count += c;
            }
        }
        let min = self.mins[k].load(Ordering::Relaxed);
        HistSnapshot {
            count,
            min: if count == 0 { 0 } else { min },
            max: self.maxs[k].load(Ordering::Relaxed),
            buckets,
        }
    }

    /// The `histograms` JSON object of the `dbscan-stats/v7` envelope: one
    /// member per [`HistKind::ALL`] entry (present even when empty, for
    /// schema stability), each with `count`, `min`, `max`, and the sparse
    /// `buckets` array of `[bucket_lower_bound, count]` pairs in ascending
    /// bucket order.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, kind) in HistKind::ALL.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = self.snapshot(*kind);
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"min\":{},\"max\":{},\"buckets\":[",
                kind.name(),
                s.count,
                s.min,
                s.max
            ));
            for (j, (floor, c)) in s.buckets.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("[{floor},{c}]"));
            }
            out.push_str("]}");
        }
        out.push('}');
        out
    }
}

/// Decoded view of one histogram.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Total observations.
    pub count: u64,
    /// Smallest observed value (0 when empty).
    pub min: u64,
    /// Largest observed value (0 when empty).
    pub max: u64,
    /// `(bucket_lower_bound, count)` for every non-empty bucket, ascending.
    pub buckets: Vec<(u64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucketing_is_log2() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(10), 1024);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histograms::new();
        for v in [0, 1, 5, 5, 1024] {
            h.record(HistKind::TaskNanos, v);
        }
        let s = h.snapshot(HistKind::TaskNanos);
        assert_eq!(s.count, 5);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets, vec![(0, 2), (4, 2), (1024, 1)]);
        // Other kinds stay empty.
        let e = h.snapshot(HistKind::EdgeTestNanos);
        assert_eq!(e.count, 0);
        assert_eq!((e.min, e.max), (0, 0));
        assert!(e.buckets.is_empty());
    }

    #[test]
    fn json_has_all_kinds_and_stable_shape() {
        let h = Histograms::new();
        h.record(HistKind::NeighborListLen, 7);
        let j = h.to_json();
        for kind in HistKind::ALL {
            assert!(j.contains(&format!("\"{}\":{{\"count\":", kind.name())));
        }
        assert!(j.contains(
            "\"neighbor_list_len\":{\"count\":1,\"min\":7,\"max\":7,\"buckets\":[[4,1]]}"
        ));
    }
}
