//! The one log2 histogram, [`Log2Hist`], behind both the tracer's
//! [`Histograms`] (the `histograms` of the `dbscan-stats/v7` envelope, keyed
//! by [`bucket_floor`]) and the daemon's latency metrics (its Prometheus
//! exposition, cumulative under [`bucket_le`]).
//!
//! Bucket `b` counts values in `[2^b, 2^(b+1))` (bucket 0 additionally holds
//! the value 0), so 64 buckets cover the whole `u64` range; recording is a
//! few relaxed atomic updates, cheap enough for per-edge sites.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of log2 buckets (covers all of `u64`).
pub const NUM_BUCKETS: usize = 64;

/// Bucket index of a value: `floor(log2(v))`, with 0 mapped to bucket 0.
#[inline]
fn bucket_of(v: u64) -> usize {
    (v | 1).ilog2() as usize
}

/// Lower bound of bucket `b` (the value the JSON renders as the bucket key).
pub fn bucket_floor(b: usize) -> u64 {
    if b == 0 {
        0
    } else {
        1u64 << b
    }
}

/// Inclusive upper bound of bucket `b` (the exposition's `le` label):
/// `2^(b+1) - 1`, saturating to `u64::MAX` for the top bucket.
pub fn bucket_le(b: usize) -> u64 {
    u64::MAX >> (63 - b.min(63))
}

/// One lock-free log2 histogram: [`NUM_BUCKETS`] bucket counts plus the
/// wrapping sum, the minimum and the maximum of the recorded values.
pub struct Log2Hist {
    buckets: [AtomicU64; NUM_BUCKETS],
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Log2Hist {
            buckets: [const { AtomicU64::new(0) }; NUM_BUCKETS],
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }
}

impl Log2Hist {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Observations in bucket `b`.
    pub fn bucket(&self, b: usize) -> u64 {
        self.buckets[b].load(Ordering::Relaxed)
    }

    /// Sum of the observations, wrapping at `2^64`.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Immutable snapshot of the distribution.
    pub fn snapshot(&self) -> HistSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for b in 0..NUM_BUCKETS {
            let c = self.bucket(b);
            if c > 0 {
                buckets.push((bucket_floor(b), c));
                count += c;
            }
        }
        let min = self.min.load(Ordering::Relaxed);
        HistSnapshot {
            count,
            min: if count == 0 { 0 } else { min },
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

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

/// One [`Log2Hist`] per [`HistKind`], shareable across worker threads.
#[derive(Default)]
pub struct Histograms {
    hists: [Log2Hist; HistKind::COUNT],
}

impl Histograms {
    /// Records one observation.
    #[inline]
    pub fn record(&self, kind: HistKind, value: u64) {
        self.hists[kind as usize].record(value);
    }

    /// Immutable snapshot of one distribution.
    pub fn snapshot(&self, kind: HistKind) -> HistSnapshot {
        self.hists[kind as usize].snapshot()
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
        assert_eq!(bucket_of((1 << 63) - 1), 62);
        assert_eq!(bucket_of(1 << 63), 63);
        assert_eq!(bucket_of(u64::MAX - 1), 63);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(10), 1024);
        assert_eq!(bucket_le(0), 1);
        assert_eq!(bucket_le(1), 3);
        assert_eq!(bucket_le(62), (1 << 63) - 1);
        assert_eq!(bucket_le(63), u64::MAX);
    }

    #[test]
    fn record_and_snapshot() {
        let h = Histograms::default();
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

    /// The full `histograms` member of the stats envelope, byte for byte.
    #[test]
    fn to_json_matches_golden_text() {
        let h = Histograms::default();
        for v in [0, 1, 2, 3, 1000, 1024, u64::MAX] {
            h.record(HistKind::TaskNanos, v);
        }
        h.record(HistKind::EdgeTestNanos, 77);
        assert_eq!(
            h.to_json(),
            concat!(
                r#"{"task_nanos":{"count":7,"min":0,"max":18446744073709551615,"#,
                r#""buckets":[[0,2],[2,2],[512,1],[1024,1],[9223372036854775808,1]]},"#,
                r#""edge_test_nanos":{"count":1,"min":77,"max":77,"buckets":[[64,1]]},"#,
                r#""neighbor_list_len":{"count":0,"min":0,"max":0,"buckets":[]}}"#,
            )
        );
    }

    #[test]
    fn json_has_all_kinds_and_stable_shape() {
        let h = Histograms::default();
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
