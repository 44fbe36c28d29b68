//! Blocked, autovectorizer-friendly distance kernels over structure-of-arrays
//! point storage.
//!
//! The grid algorithms of the paper spend essentially all of their time in
//! three loops: the BCP edge predicate between two cells' core points, the
//! `count_within_eps` neighborhood counting behind core labeling, and kd-tree
//! leaf scans. All three compare one query point against *many* candidates
//! with no data dependency between candidates — ideal SIMD shape, except that
//! array-of-structs `Point<D>` storage and per-candidate early exits defeat
//! the autovectorizer. This module fixes both:
//!
//! * candidates are stored as one contiguous `f64` *lane* per dimension (a
//!   [`SoaBlock`]), so the inner loop is a unit-stride stream;
//! * distances are computed for a whole block of up to [`BLOCK`] candidates
//!   with **no early exit inside the block** (branchless `≤ ε²` mask
//!   accumulation); early termination happens only *between* blocks.
//!
//! Bit-identity: for candidate `j`, [`dist_sq_one_to_block`] computes
//! `(lane_0[j]-q_0)² + (lane_1[j]-q_1)² + …` accumulating dimensions in
//! ascending order — exactly the order of [`Point::dist_sq`]'s
//! `for i in 0..D { acc += d*d }` loop. Blocking reorders computation only
//! *across* candidates, whose results are independent, so every distance (and
//! hence every count and predicate) is bit-identical to the scalar loops the
//! kernels replace. The property tests in `dbscan-index` assert this across
//! dimensions, ragged tails, and adversarial coordinates.

use crate::point::Point;

/// Number of candidates processed per kernel invocation: 64 `f64`s per lane
/// fill eight 64-byte cache lines per dimension and keep the distance buffer
/// (512 B) comfortably in registers/L1, while bounding how much work an early
/// exit between blocks can waste.
pub const BLOCK: usize = 64;

/// A borrowed structure-of-arrays view of `len` points: one `&[f64]` lane of
/// length `len` per dimension.
///
/// Two storage shapes back it: per-cell contiguous storage (lane `d` at
/// `data[d*len..(d+1)*len]`, see [`SoaBlock::from_contiguous`]) and sub-ranges
/// of global lanes (kd-tree leaves, see [`SoaBlock::from_lanes`]).
#[derive(Clone, Copy)]
pub struct SoaBlock<'a, const D: usize> {
    lanes: [&'a [f64]; D],
}

impl<'a, const D: usize> SoaBlock<'a, D> {
    /// View over contiguous per-cell storage: `data` holds `len` coordinates
    /// of dimension 0, then `len` of dimension 1, and so on.
    pub fn from_contiguous(data: &'a [f64], len: usize) -> Self {
        assert_eq!(data.len(), len * D, "lane data must be len*D floats");
        SoaBlock {
            lanes: std::array::from_fn(|d| &data[d * len..(d + 1) * len]),
        }
    }

    /// View over `D` independent equal-length lane slices.
    pub fn from_lanes(lanes: [&'a [f64]; D]) -> Self {
        for lane in &lanes[1..] {
            assert_eq!(lane.len(), lanes[0].len(), "lanes must have equal length");
        }
        SoaBlock { lanes }
    }

    /// Gathers `points[ids[j]]` into fresh owned lanes, for tests and
    /// benchmarks of the kernels. Returns the contiguous buffer for
    /// [`SoaBlock::from_contiguous`].
    pub fn gather(points: &[Point<D>], ids: &[u32]) -> Vec<f64> {
        let mut data = Vec::with_capacity(ids.len() * D);
        for d in 0..D {
            for &i in ids {
                data.push(points[i as usize][d]);
            }
        }
        data
    }

    /// Number of points in the view.
    pub fn len(&self) -> usize {
        self.lanes[0].len()
    }

    pub fn is_empty(&self) -> bool {
        self.lanes[0].is_empty()
    }

    /// Lane `d`: the `d`-th coordinate of every point in the view.
    pub fn lane(&self, d: usize) -> &'a [f64] {
        self.lanes[d]
    }

    /// Rebuilds point `j` from the lanes.
    pub fn point(&self, j: usize) -> Point<D> {
        Point(std::array::from_fn(|d| self.lanes[d][j]))
    }

    /// Sub-view of `len` points starting at `start`.
    pub fn sub(&self, start: usize, len: usize) -> SoaBlock<'a, D> {
        SoaBlock {
            lanes: std::array::from_fn(|d| &self.lanes[d][start..start + len]),
        }
    }
}

/// Writes `q.dist_sq(block[j])` into `out[j]` for every point of `block`.
/// `out.len()` must equal `block.len()`. No comparisons, no early exit: a
/// pure unit-stride multiply-add stream the autovectorizer turns into SIMD.
///
/// Dimension 0 initializes, dimensions `1..D` accumulate — per candidate this
/// is exactly [`Point::dist_sq`]'s ascending-dimension sum, so each `out[j]`
/// is bit-identical to the scalar computation. (`D` is a compile-time
/// constant, so the outer loop fully unrolls per monomorphization.)
#[inline]
pub fn dist_sq_one_to_block<const D: usize>(
    q: &Point<D>,
    block: &SoaBlock<'_, D>,
    out: &mut [f64],
) {
    let len = out.len();
    assert_eq!(len, block.len(), "out must have one slot per candidate");
    let lane0 = &block.lanes[0][..len];
    let q0 = q[0];
    for j in 0..len {
        let diff = lane0[j] - q0;
        out[j] = diff * diff;
    }
    for d in 1..D {
        let lane = &block.lanes[d][..len];
        let qd = q[d];
        for j in 0..len {
            let diff = lane[j] - qd;
            out[j] += diff * diff;
        }
    }
}

/// Distances of one chunk (≤ [`BLOCK`] points) and a branchless count of
/// those ≤ `eps_sq`.
#[inline]
fn count_chunk<const D: usize>(q: &Point<D>, chunk: &SoaBlock<'_, D>, eps_sq: f64) -> usize {
    let len = chunk.len();
    debug_assert!(len <= BLOCK);
    let mut buf = [0.0f64; BLOCK];
    dist_sq_one_to_block(q, chunk, &mut buf[..len]);
    let mut count = 0usize;
    for &d in &buf[..len] {
        count += (d <= eps_sq) as usize;
    }
    count
}

/// The one shared early-stop-at-cap loop behind every `count_within`
/// implementation (grid, kd-tree, linear scan): walks `total` candidates in
/// [`BLOCK`]-sized chunks, adding `chunk_count(start, len)` per chunk, and
/// stops *between* chunks once the count reaches `cap`. Returns
/// `(count, examined)`; `count` may overshoot `cap` by at most one chunk, so
/// callers with exact-cap semantics clamp with `count.min(cap)`.
#[inline]
fn capped_chunk_scan(
    total: usize,
    cap: usize,
    mut chunk_count: impl FnMut(usize, usize) -> usize,
) -> (usize, usize) {
    let mut count = 0usize;
    let mut examined = 0usize;
    let mut start = 0usize;
    while start < total && count < cap {
        let len = BLOCK.min(total - start);
        count += chunk_count(start, len);
        examined += len;
        start += len;
    }
    (count, examined)
}

/// Number of points of `block` within the closed ball `B(q, √eps_sq)`.
/// Processes every candidate (no cap): the fully branchless variant.
pub fn count_within_block<const D: usize>(
    q: &Point<D>,
    block: &SoaBlock<'_, D>,
    eps_sq: f64,
) -> usize {
    capped_chunk_scan(block.len(), usize::MAX, |start, len| {
        count_chunk(q, &block.sub(start, len), eps_sq)
    })
    .0
}

/// Capped twin of [`count_within_block`]: stops between chunks once the
/// running count reaches `cap`. Returns `(count, examined)` where `count` may
/// overshoot `cap` (clamp at the call site) and `examined` is the number of
/// candidates whose distance was actually computed.
pub fn count_within_block_capped<const D: usize>(
    q: &Point<D>,
    block: &SoaBlock<'_, D>,
    eps_sq: f64,
    cap: usize,
) -> (usize, usize) {
    capped_chunk_scan(block.len(), cap, |start, len| {
        count_chunk(q, &block.sub(start, len), eps_sq)
    })
}

/// AoS twin of [`count_within_block_capped`] for callers that only hold
/// `&[Point<D>]` (the linear-scan baseline): same chunking, same branchless
/// accumulate, same between-chunk cap stop — the cap semantics live in one
/// place (`capped_chunk_scan`) for all three index implementations.
pub fn count_within_aos_capped<const D: usize>(
    q: &Point<D>,
    pts: &[Point<D>],
    eps_sq: f64,
    cap: usize,
) -> usize {
    capped_chunk_scan(pts.len(), cap, |start, len| {
        let mut buf = [0.0f64; BLOCK];
        for (slot, p) in buf[..len].iter_mut().zip(&pts[start..start + len]) {
            *slot = p.dist_sq(q);
        }
        let mut count = 0usize;
        for &d in &buf[..len] {
            count += (d <= eps_sq) as usize;
        }
        count
    })
    .0
}

/// Is any point of `block` within the closed ball `B(q, √eps_sq)`? Early
/// exit between chunks only.
pub fn any_within_block<const D: usize>(
    q: &Point<D>,
    block: &SoaBlock<'_, D>,
    eps_sq: f64,
) -> bool {
    capped_chunk_scan(block.len(), 1, |start, len| {
        count_chunk(q, &block.sub(start, len), eps_sq)
    })
    .0 > 0
}

/// The cache-blocked BCP edge predicate: is any cross pair
/// `(p, q) ∈ a × b` within the closed ball distance `√eps_sq`?
///
/// The larger side is streamed in [`BLOCK`]-sized chunks held hot in cache
/// while every point of the smaller side is tested against the chunk;
/// termination happens between (query × chunk) kernel calls, never inside
/// one. Equivalent to the scalar double loop (property-tested).
pub fn bcp_block_pair<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps_sq: f64,
) -> bool {
    matches!(
        bcp_block_pair_budgeted(a, b, eps_sq, usize::MAX),
        Some(true)
    )
}

/// Budgeted twin of [`bcp_block_pair`]: the optimistic probe behind the
/// tree-assisted edge route. Scans at most `eval_budget` cross-pair
/// distances (checked between kernel calls, so the overshoot is bounded by
/// one ≤[`BLOCK`]-wide chunk) and returns `Some(true)` on the first hit,
/// `Some(false)` if the full cross product was scanned without one, or
/// `None` if the budget ran out undecided — the caller then falls back to
/// an indexed structure. Hit/miss answers are exact either way, so routing
/// through the budget never changes a clustering.
pub fn bcp_block_pair_budgeted<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps_sq: f64,
    mut eval_budget: usize,
) -> Option<bool> {
    let (queries, stream) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut start = 0usize;
    while start < stream.len() {
        let len = BLOCK.min(stream.len() - start);
        let chunk = stream.sub(start, len);
        for i in 0..queries.len() {
            if eval_budget < len {
                return None;
            }
            let q = queries.point(i);
            if count_chunk(&q, &chunk, eps_sq) > 0 {
                return Some(true);
            }
            eval_budget -= len;
        }
        start += len;
    }
    Some(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::p2;

    fn block_of(pts: &[Point<2>]) -> (Vec<f64>, usize) {
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        (SoaBlock::gather(pts, &ids), pts.len())
    }

    #[test]
    fn dist_sq_matches_scalar_bitwise() {
        let pts: Vec<Point<2>> = (0..150)
            .map(|i| p2(i as f64 * 0.37, (i * i % 97) as f64 * 1.13))
            .collect();
        let (data, len) = block_of(&pts);
        let block = SoaBlock::from_contiguous(&data, len);
        let q = p2(13.5, 42.25);
        let mut out = vec![0.0; len];
        dist_sq_one_to_block(&q, &block, &mut out);
        for (j, p) in pts.iter().enumerate() {
            assert_eq!(out[j].to_bits(), p.dist_sq(&q).to_bits(), "j={j}");
        }
    }

    #[test]
    fn counts_and_predicates_match_scalar() {
        let pts: Vec<Point<2>> = (0..200)
            .map(|i| p2((i % 17) as f64, (i % 23) as f64))
            .collect();
        let (data, len) = block_of(&pts);
        let block = SoaBlock::from_contiguous(&data, len);
        let q = p2(8.0, 11.0);
        for eps_sq in [0.0, 2.0, 25.0, 1e4] {
            let brute = pts.iter().filter(|p| p.dist_sq(&q) <= eps_sq).count();
            assert_eq!(count_within_block(&q, &block, eps_sq), brute);
            assert_eq!(any_within_block(&q, &block, eps_sq), brute > 0);
            for cap in [0usize, 1, 3, brute.max(1), usize::MAX] {
                let (c, ex) = count_within_block_capped(&q, &block, eps_sq, cap);
                assert_eq!(c.min(cap), brute.min(cap), "cap={cap}");
                assert!(ex <= len);
                assert_eq!(
                    count_within_aos_capped(&q, &pts, eps_sq, cap).min(cap),
                    brute.min(cap)
                );
            }
        }
    }

    #[test]
    fn bcp_pair_matches_double_loop() {
        let a: Vec<Point<2>> = (0..90).map(|i| p2(i as f64 * 0.9, 0.0)).collect();
        let b: Vec<Point<2>> = (0..130).map(|i| p2(i as f64 * 0.9, 7.0)).collect();
        let (da, la) = block_of(&a);
        let (db, lb) = block_of(&b);
        let ba = SoaBlock::<2>::from_contiguous(&da, la);
        let bb = SoaBlock::<2>::from_contiguous(&db, lb);
        for eps_sq in [1.0, 48.9, 49.0, 1e6] {
            let brute = a.iter().any(|p| b.iter().any(|r| p.dist_sq(r) <= eps_sq));
            assert_eq!(bcp_block_pair(&ba, &bb, eps_sq), brute, "eps_sq={eps_sq}");
            assert_eq!(bcp_block_pair(&bb, &ba, eps_sq), brute);
        }
    }

    #[test]
    fn empty_blocks() {
        let empty = SoaBlock::<2>::from_contiguous(&[], 0);
        let one_data = SoaBlock::<2>::gather(&[p2(0.0, 0.0)], &[0]);
        let one = SoaBlock::<2>::from_contiguous(&one_data, 1);
        let q = p2(0.0, 0.0);
        assert_eq!(count_within_block(&q, &empty, 1.0), 0);
        assert!(!any_within_block(&q, &empty, 1.0));
        assert!(!bcp_block_pair(&empty, &one, 1.0));
        assert!(!bcp_block_pair(&one, &empty, 1.0));
        assert!(bcp_block_pair(&one, &one, 0.0));
    }

    #[test]
    fn sub_views_and_point_roundtrip() {
        let pts: Vec<Point<2>> = (0..10).map(|i| p2(i as f64, -(i as f64))).collect();
        let (data, len) = block_of(&pts);
        let block = SoaBlock::from_contiguous(&data, len);
        for (j, p) in pts.iter().enumerate() {
            assert_eq!(&block.point(j), p);
        }
        let tail = block.sub(7, 3);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.point(0), pts[7]);
    }
}
