//! Bichromatic closest-pair (BCP) computations between the core points of two
//! ε-neighbor cells.
//!
//! Section 3.2 computes each candidate edge of the core-cell graph `G` by solving
//! BCP on the two cells' core-point sets with the (purely theoretical) algorithm
//! of Agarwal et al. \[1\]. As discussed in DESIGN.md, we substitute a practical
//! routine: for the edge decision only the *predicate* "is the BCP distance ≤ ε?"
//! is needed, and both grid oracles (exact and ρ-approximate) first run the one
//! exact front end here, [`front_end`]:
//!
//! 1. pairs with `|a|·|b| ≤` [`BRUTE_FORCE_LIMIT`] use the blocked early-exit
//!    scan ([`within_threshold_blocks`]);
//! 2. larger pairs get an optimistic budgeted round of the same scan
//!    ([`probe_within_threshold_blocks`]) — between ε-neighbor core cells an
//!    edge usually exists and the probe finds it in the first few chunks;
//! 3. a pair the probe leaves undecided is pruned by its core-point bounding
//!    boxes, the bichromatic-closest-pair cell test of practical grid DBSCAN
//!    (Wang, Gu & Shun): **no** if the boxes are more than ε apart; else each
//!    side keeps only its points within ε of the other side's box, **no** if
//!    either keeps none, and the blocked scan on the kept points decides when
//!    their product is small; else the [`NEAREST_K`] kept points of each side
//!    nearest the other box are scanned, and a hit answers **yes**.
//!
//! Only a miss in that last scan is left open ([`Settled::Open`]), for the
//! caller's own structure: the exact algorithm's kd-tree or the approximate
//! algorithm's Lemma 5 counter over the full cells. Every answer is exact:
//! a point's (or box's) gap to a box sums per-dimension gaps that are never
//! larger than the rounded coordinate differences of any pair across them
//! (rounding is monotone), squared and summed in [`Point::dist_sq`]'s
//! order, so no filter drops a pair the kernel counts within ε.
//! The full closest pair is also exposed ([`closest_pair`]) for completeness
//! and for validating the predicate.

use dbscan_geom::kernels::{self, SoaBlock};
use dbscan_geom::{Aabb, Point};
use dbscan_index::KdTree;

/// Below this product of set sizes, the early-exit blocked scan beats building
/// or probing a tree. Raised from 1024 when the edge predicate moved to the
/// blocked SoA kernel ([`within_threshold_blocks`]): streaming ≤64-wide
/// coordinate blocks is cheap enough that even ~128×128 pairs finish before a
/// kd-tree build over one side pays off (measured on the `repro bench`
/// ss3d/ss5d matrix; see EXPERIMENTS.md, "Kernel architecture").
pub const BRUTE_FORCE_LIMIT: usize = 16384;

/// Distance-evaluation budget of the optimistic probe that large pairs get
/// before the front end looks at their boxes ([`probe_within_threshold_blocks`]):
/// one crossover's worth of blocked-scan work. Between ε-neighbor *core*
/// cells an edge almost always exists and the blocked kernel's between-chunk
/// early exit finds it within the first few chunks, so spending ≤ one
/// [`BRUTE_FORCE_LIMIT`] of evaluations up front converts nearly every
/// would-be kd-tree build into a cheap streaming scan; the rare undecided
/// pair pays one bounded probe extra and then goes on to the box tests.
pub const PROBE_EVAL_BUDGET: usize = BRUTE_FORCE_LIMIT;

/// Points per side in the front end's nearest-first scan: the kept points
/// nearest the other side's core box. `NEAREST_K²` is
/// [`PROBE_EVAL_BUDGET`], so the scan costs one more probe's worth.
pub const NEAREST_K: usize = 128;
const _: () = assert!(NEAREST_K * NEAREST_K == PROBE_EVAL_BUDGET);

/// The exact bichromatic closest pair between `a_ids` and `b_ids` (ids into
/// `points`): returns `(a, b, dist_sq)`, or `None` if either set is empty.
pub fn closest_pair<const D: usize>(
    points: &[Point<D>],
    a_ids: &[u32],
    b_ids: &[u32],
) -> Option<(u32, u32, f64)> {
    if a_ids.is_empty() || b_ids.is_empty() {
        return None;
    }
    if a_ids.len() * b_ids.len() <= BRUTE_FORCE_LIMIT {
        return closest_pair_brute(points, a_ids, b_ids);
    }
    // Probe a tree on the larger set with every point of the smaller set.
    let (probe, tree_side) = if a_ids.len() <= b_ids.len() {
        (a_ids, b_ids)
    } else {
        (b_ids, a_ids)
    };
    let tree = KdTree::build_entries(tree_side.iter().map(|&i| (points[i as usize], i)).collect());
    let mut best: Option<(u32, u32, f64)> = None;
    let mut bound = f64::INFINITY;
    for &p in probe {
        if let Some((q, d)) = tree.nearest_within_impl(&points[p as usize], bound.sqrt()) {
            if best.is_none() || d < best.unwrap().2 {
                best = Some((p, q, d));
                bound = d;
            }
        }
    }
    // Normalize orientation: first id from `a_ids`' side.
    best.map(|(p, q, d)| {
        if a_ids.len() <= b_ids.len() {
            (p, q, d)
        } else {
            (q, p, d)
        }
    })
}

/// Brute-force exact BCP (the oracle for tests).
pub fn closest_pair_brute<const D: usize>(
    points: &[Point<D>],
    a_ids: &[u32],
    b_ids: &[u32],
) -> Option<(u32, u32, f64)> {
    let mut best: Option<(u32, u32, f64)> = None;
    for &a in a_ids {
        let pa = &points[a as usize];
        for &b in b_ids {
            let d = pa.dist_sq(&points[b as usize]);
            if best.is_none_or(|(_, _, bd)| d < bd) {
                best = Some((a, b, d));
            }
        }
    }
    best
}

/// The edge predicate of the exact algorithm: is there a pair
/// `(p, q) ∈ a_ids × b_ids` with `dist(p, q) ≤ eps`? Exits on the first hit.
pub fn within_threshold_brute<const D: usize>(
    points: &[Point<D>],
    a_ids: &[u32],
    b_ids: &[u32],
    eps: f64,
) -> bool {
    let eps_sq = eps * eps;
    a_ids.iter().any(|&a| {
        let pa = &points[a as usize];
        b_ids
            .iter()
            .any(|&b| pa.dist_sq(&points[b as usize]) <= eps_sq)
    })
}

/// Blocked variant of the edge predicate over structure-of-arrays core-point
/// views (see [`crate::cells::CoreCells::core_block`]): decides the same
/// "∃ pair within ε" boolean as [`within_threshold_brute`] — distances use
/// the identical accumulation order as [`Point::dist_sq`], so the exact same
/// pairs qualify — with the smaller side as queries against ≤64-wide blocks
/// of the larger, early-exiting between blocks.
pub fn within_threshold_blocks<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps: f64,
) -> bool {
    kernels::bcp_block_pair(a, b, eps * eps)
}

/// Optimistic budgeted probe for pairs *above* [`BRUTE_FORCE_LIMIT`]: runs
/// the blocked predicate for at most [`PROBE_EVAL_BUDGET`] distance
/// evaluations. `Some(hit)` is an exact decision (identical to
/// [`within_threshold_blocks`]); `None` means the budget ran out and the
/// caller should fall back to the kd-tree route. Keeps the worst case at the
/// tree bound plus a constant-size probe while letting the common
/// edge-exists case skip the tree build entirely.
pub fn probe_within_threshold_blocks<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps: f64,
) -> Option<bool> {
    kernels::bcp_block_pair_budgeted(a, b, eps * eps, PROBE_EVAL_BUDGET)
}

/// How [`front_end`] settled a pair of core cells, one variant per step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Settled {
    /// `|a|·|b| ≤` [`BRUTE_FORCE_LIMIT`]: the blocked scan's answer.
    Scan(bool),
    /// The budgeted probe's answer.
    Probe(bool),
    /// **No**: the core-point bounding boxes are more than ε apart.
    BoxesApart,
    /// The blocked scan over the points within ε of the other side's box;
    /// **no** without a scan when either side keeps none.
    Filtered(bool),
    /// **Yes**: a hit among the [`NEAREST_K`] kept points of each side
    /// nearest the other side's box.
    Nearest,
    /// Undecided: the caller's index structure decides.
    Open,
}

impl Settled {
    /// The exact edge answer, or `None` for [`Settled::Open`].
    pub fn answer(self) -> Option<bool> {
        match self {
            Settled::Scan(hit) | Settled::Probe(hit) | Settled::Filtered(hit) => Some(hit),
            Settled::BoxesApart => Some(false),
            Settled::Nearest => Some(true),
            Settled::Open => None,
        }
    }
}

/// The exact edge front end shared by the exact and the ρ-approximate edge
/// oracles (see the module docs): is some pair of `a × b` within `eps`?
/// Every settled answer equals [`within_threshold_blocks`]`(a, b, eps)`;
/// [`Settled::Open`] leaves the pair to an index structure.
pub fn front_end<const D: usize>(a: &SoaBlock<'_, D>, b: &SoaBlock<'_, D>, eps: f64) -> Settled {
    front_end_with(a, b, eps, || (bounding_box(a), bounding_box(b)))
}

/// [`front_end`] with the two core boxes from `boxes`, called only for a
/// pair the probe leaves undecided (the edge stage caches them per rank).
pub(crate) fn front_end_with<const D: usize>(
    a: &SoaBlock<'_, D>,
    b: &SoaBlock<'_, D>,
    eps: f64,
    boxes: impl FnOnce() -> (Aabb<D>, Aabb<D>),
) -> Settled {
    if a.len() * b.len() <= BRUTE_FORCE_LIMIT {
        return Settled::Scan(within_threshold_blocks(a, b, eps));
    }
    if let Some(hit) = probe_within_threshold_blocks(a, b, eps) {
        return Settled::Probe(hit);
    }
    let eps_sq = eps * eps;
    let (box_a, box_b) = boxes();
    if box_a.min_dist_sq_box(&box_b) > eps_sq {
        return Settled::BoxesApart;
    }
    let mut near_a = near_box(a, &box_b, eps_sq);
    if near_a.is_empty() {
        return Settled::Filtered(false);
    }
    let mut near_b = near_box(b, &box_a, eps_sq);
    if near_b.is_empty() {
        return Settled::Filtered(false);
    }
    if near_a.len() * near_b.len() <= BRUTE_FORCE_LIMIT {
        return Settled::Filtered(scan_kept(a, &near_a, b, &near_b, eps_sq));
    }
    for near in [&mut near_a, &mut near_b] {
        if near.len() > NEAREST_K {
            near.select_nth_unstable_by(NEAREST_K - 1, |x, y| x.0.total_cmp(&y.0));
            near.truncate(NEAREST_K);
        }
    }
    if scan_kept(a, &near_a, b, &near_b, eps_sq) {
        Settled::Nearest
    } else {
        Settled::Open
    }
}

/// The bounding box of a non-empty block. Each lane is folded in four
/// independent strands (compare-and-select, which vectorizes) and then
/// merged; min and max are exact, so the order does not matter.
pub(crate) fn bounding_box<const D: usize>(s: &SoaBlock<'_, D>) -> Aabb<D> {
    let (mut lo, mut hi) = ([0.0; D], [0.0; D]);
    for d in 0..D {
        let lane = s.lane(d);
        let (mut l, mut h) = ([lane[0]; 4], [lane[0]; 4]);
        let chunks = lane.chunks_exact(4);
        for &x in chunks.remainder() {
            l[0] = if x < l[0] { x } else { l[0] };
            h[0] = if x > h[0] { x } else { h[0] };
        }
        for c in chunks {
            for k in 0..4 {
                l[k] = if c[k] < l[k] { c[k] } else { l[k] };
                h[k] = if c[k] > h[k] { c[k] } else { h[k] };
            }
        }
        lo[d] = l.into_iter().fold(l[0], f64::min);
        hi[d] = h.into_iter().fold(h[0], f64::max);
    }
    Aabb::new(Point(lo), Point(hi))
}

/// `(squared gap, index)` of every point of `s` within `√eps_sq` of `other`.
/// The gaps are [`Aabb::min_dist_sq`] computed lane by lane: the same
/// per-dimension gap, summed in the same ascending-dimension order.
fn near_box<const D: usize>(s: &SoaBlock<'_, D>, other: &Aabb<D>, eps_sq: f64) -> Vec<(f64, u32)> {
    let mut gap = vec![0.0f64; s.len()];
    for d in 0..D {
        let (lo, hi) = (other.lo[d], other.hi[d]);
        for (g, &x) in gap.iter_mut().zip(s.lane(d)) {
            // Compare-and-select, not `f64::max`: no NaN can occur, and
            // the selects vectorize to plain max instructions.
            let (below, above) = (lo - x, x - hi);
            let t = if below > above { below } else { above };
            let t = if t > 0.0 { t } else { 0.0 };
            *g += t * t;
        }
    }
    // Branchless compaction: every slot is written, only a kept one
    // advances the cursor.
    let mut kept = vec![(0.0, 0); s.len()];
    let mut k = 0;
    for (j, &g) in gap.iter().enumerate() {
        kept[k] = (g, j as u32);
        k += (g <= eps_sq) as usize;
    }
    kept.truncate(k);
    kept
}

/// The blocked predicate over the kept points of both sides.
fn scan_kept<const D: usize>(
    a: &SoaBlock<'_, D>,
    kept_a: &[(f64, u32)],
    b: &SoaBlock<'_, D>,
    kept_b: &[(f64, u32)],
    eps_sq: f64,
) -> bool {
    let gather = |s: &SoaBlock<'_, D>, kept: &[(f64, u32)]| -> Vec<f64> {
        (0..D)
            .flat_map(|d| kept.iter().map(move |&(_, j)| s.lane(d)[j as usize]))
            .collect()
    };
    let (data_a, data_b) = (gather(a, kept_a), gather(b, kept_b));
    kernels::bcp_block_pair(
        &SoaBlock::<D>::from_contiguous(&data_a, kept_a.len()),
        &SoaBlock::from_contiguous(&data_b, kept_b.len()),
        eps_sq,
    )
}

/// Tree-probing variant of the edge predicate: probes `tree` (built over one
/// cell's core points) with every id in `probe_ids`.
pub fn within_threshold_tree<const D: usize>(
    points: &[Point<D>],
    probe_ids: &[u32],
    tree: &KdTree<D>,
    eps: f64,
) -> bool {
    probe_ids
        .iter()
        .any(|&p| tree.nearest_within_impl(&points[p as usize], eps).is_some())
}

/// Counted twin of [`within_threshold_tree`]: adds to `nodes_visited` the
/// kd-tree nodes touched across all probes (the observability layer records it
/// as [`crate::Counter::IndexNodesVisited`]).
pub fn within_threshold_tree_counted<const D: usize>(
    points: &[Point<D>],
    probe_ids: &[u32],
    tree: &KdTree<D>,
    eps: f64,
    nodes_visited: &mut u64,
) -> bool {
    probe_ids.iter().any(|&p| {
        tree.nearest_within_counted(&points[p as usize], eps, nodes_visited)
            .is_some()
    })
}

/// A cell pair [`front_end`] provably leaves open, for tests of the
/// fallback structures: four clumps of `n` points, radius ≤ 0.005, at ε = 1
/// in two ε-neighbor cells of the side-1/√2 grid, `cell` and the one
/// diagonally above left of it. Relative to `cell`'s corner, one cell holds
/// the clumps at (0.639, 0.444) and (0.168, 0.059), the other those at
/// (−0.190, 1.102) and (−0.596, 0.779). Every clump lies within ε of the
/// other cell's core box, no cross pair is within ε (the closest are about
/// 1.05 apart), and `(2n)² > BRUTE_FORCE_LIMIT` for `n ≥ 64`. Returns the
/// first cell's `2n` points, then the second's.
#[cfg(test)]
pub(crate) fn open_pair(n: usize, cell: (i32, i32)) -> Vec<Point<2>> {
    let side = dbscan_geom::grid::base_side::<2>(1.0);
    let (x0, y0) = (cell.0 as f64 * side, cell.1 as f64 * side);
    [
        (0.639, 0.444),
        (0.168, 0.059),
        (-0.190, 1.102),
        (-0.596, 0.779),
    ]
    .into_iter()
    .flat_map(|(x, y)| {
        (0..n).map(move |i| {
            let (dx, dy) = ((i % 8) as f64 - 3.5, (i / 8 % 8) as f64 - 3.5);
            Point([x0 + x + dx * 0.001, y0 + y + dy * 0.001])
        })
    })
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

    fn lcg_points(n: usize, span: f64, seed: u64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * span
        };
        (0..n).map(|_| p2(next(), next())).collect()
    }

    #[test]
    fn empty_sets() {
        let pts = vec![p2(0.0, 0.0)];
        assert!(closest_pair(&pts, &[], &[0]).is_none());
        assert!(closest_pair(&pts, &[0], &[]).is_none());
        assert!(!within_threshold_brute(&pts, &[], &[0], 1.0));
    }

    #[test]
    fn simple_pair() {
        let pts = vec![p2(0.0, 0.0), p2(1.0, 0.0), p2(5.0, 0.0)];
        let (a, b, d) = closest_pair(&pts, &[0], &[1, 2]).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(d, 1.0);
    }

    #[test]
    fn tree_path_matches_brute_force() {
        // Large enough sets to exceed BRUTE_FORCE_LIMIT and take the tree path.
        let pts = lcg_points(300, 100.0, 99);
        let a_ids: Vec<u32> = (0..120).collect();
        let b_ids: Vec<u32> = (120..300).collect();
        assert!(a_ids.len() * b_ids.len() > BRUTE_FORCE_LIMIT);
        let fast = closest_pair(&pts, &a_ids, &b_ids).unwrap();
        let brute = closest_pair_brute(&pts, &a_ids, &b_ids).unwrap();
        assert_eq!(fast.2, brute.2, "closest distance must match");
        assert!(a_ids.contains(&fast.0) && b_ids.contains(&fast.1));
    }

    #[test]
    fn threshold_predicates_agree() {
        let pts = lcg_points(200, 50.0, 7);
        let a_ids: Vec<u32> = (0..100).collect();
        let b_ids: Vec<u32> = (100..200).collect();
        let tree = KdTree::build_entries(b_ids.iter().map(|&i| (pts[i as usize], i)).collect());
        for eps in [0.1, 1.0, 3.0, 100.0] {
            let brute = within_threshold_brute(&pts, &a_ids, &b_ids, eps);
            let via_tree = within_threshold_tree(&pts, &a_ids, &tree, eps);
            let via_bcp = closest_pair(&pts, &a_ids, &b_ids).unwrap().2 <= eps * eps;
            assert_eq!(brute, via_tree, "eps={eps}");
            assert_eq!(brute, via_bcp, "eps={eps}");
        }
    }

    fn settle<const D: usize>(a: &[Point<D>], b: &[Point<D>], eps: f64) -> (Settled, bool) {
        let ids = |s: &[Point<D>]| (0..s.len() as u32).collect::<Vec<_>>();
        let (da, db) = (SoaBlock::gather(a, &ids(a)), SoaBlock::gather(b, &ids(b)));
        let (ba, bb) = (
            SoaBlock::<D>::from_contiguous(&da, a.len()),
            SoaBlock::<D>::from_contiguous(&db, b.len()),
        );
        (
            front_end(&ba, &bb, eps),
            within_threshold_blocks(&ba, &bb, eps),
        )
    }

    #[test]
    fn box_helpers_match_aabb() {
        let pts = lcg_points(203, 10.0, 3);
        let ids: Vec<u32> = (0..pts.len() as u32).collect();
        let data = SoaBlock::gather(&pts, &ids);
        let block = SoaBlock::<2>::from_contiguous(&data, pts.len());
        for len in [1, 2, 5, 203] {
            let sub = block.sub(0, len);
            assert_eq!(bounding_box(&sub), Aabb::bounding(&pts[..len]).unwrap());
        }
        let other = Aabb::new(p2(4.0, 3.0), p2(6.5, 4.0));
        let near = near_box(&block, &other, 4.0);
        let want: Vec<(f64, u32)> = (0..pts.len() as u32)
            .map(|j| (other.min_dist_sq(&pts[j as usize]), j))
            .filter(|&(g, _)| g <= 4.0)
            .collect();
        assert!(!near.is_empty() && near.len() < pts.len());
        assert_eq!(near, want);
    }

    #[test]
    fn open_pair_reaches_the_fallback() {
        let pts = open_pair(80, (0, 0));
        let (a, b) = pts.split_at(160);
        assert!(a.len() * b.len() > BRUTE_FORCE_LIMIT);
        assert_eq!(settle(a, b, 1.0), (Settled::Open, false));
        assert_eq!(settle(b, a, 1.0), (Settled::Open, false));
    }

    /// Seeded property: every answer of [`front_end`] equals the blocked
    /// scan over the full cells. Coordinates are multiples of 1/128, so
    /// axis-aligned pairs exactly ε = 1 apart are exact ties (some of them
    /// on box faces), and zero-width clumps pile duplicates.
    #[test]
    fn front_end_answers_equal_the_full_scan() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..400u64 {
            let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |k: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % k
            };
            let side = |shift: f64, next: &mut dyn FnMut(u64) -> u64| {
                let mut pts = Vec::new();
                for _ in 0..1 + next(3) {
                    let (cx, cy) = (next(160) as f64, next(160) as f64);
                    let w = [0, 1, 4, 16][next(4) as usize] as u64;
                    for _ in 0..20 + next(200) {
                        let dx = next(2 * w + 1) as f64 - w as f64;
                        let dy = next(2 * w + 1) as f64 - w as f64;
                        pts.push(p2((cx + dx) / 128.0 + shift, (cy + dy) / 128.0));
                    }
                }
                pts
            };
            let a = side(0.0, &mut next);
            let mut b = side(next(3) as f64 * 0.5, &mut next);
            if next(3) == 0 {
                // Put `b` just right of `a` along x: one step of 1/128 past
                // ε, or touching with a tie at exactly ε on both box faces.
                let x_max = |s: &[Point<2>]| s.iter().map(|p| p[0]).fold(f64::MIN, f64::max);
                let x_min = |s: &[Point<2>]| s.iter().map(|p| p[0]).fold(f64::MAX, f64::min);
                let step = next(2) as f64 / 128.0;
                let shift = x_max(&a) + 1.0 + step - x_min(&b);
                b.iter_mut().for_each(|p| p[0] += shift);
                if step == 0.0 {
                    let face = a.iter().find(|p| p[0] == x_max(&a)).unwrap();
                    b.push(p2(face[0] + 1.0, face[1]));
                }
            }
            let (got, want) = settle(&a, &b, 1.0);
            if let Some(hit) = got.answer() {
                assert_eq!(hit, want, "seed {seed}: {got:?}");
            }
            seen.insert(format!("{got:?}"));
        }
        let pts = open_pair(80, (0, 0));
        let (a, b) = pts.split_at(160);
        seen.insert(format!("{:?}", settle(a, b, 1.0).0));
        for route in [
            "Scan(true)",
            "Scan(false)",
            "Probe(true)",
            "BoxesApart",
            "Filtered(true)",
            "Filtered(false)",
            "Nearest",
            "Open",
        ] {
            assert!(seen.contains(route), "no case settled as {route}: {seen:?}");
        }
    }

    #[test]
    fn threshold_includes_boundary() {
        let pts = vec![p2(0.0, 0.0), p2(3.0, 4.0)];
        assert!(within_threshold_brute(&pts, &[0], &[1], 5.0));
        assert!(!within_threshold_brute(&pts, &[0], &[1], 4.999));
    }
}
