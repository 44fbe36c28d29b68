//! The hierarchical-grid **approximate range counter** of Lemma 5.
//!
//! For fixed `ε` and `ρ`, the structure stores the point multiset in a
//! quadtree-like hierarchy of grids: level 0 has side `ε/√d`, every level halves
//! the side, and the hierarchy stops once the side is at most `ερ/√d` — i.e.
//! `h = max(1, 1 + ⌈log₂(1/ρ)⌉)` levels. Only non-empty cells are materialized.
//!
//! A query with center `q` returns an integer `ans` with
//!
//! ```text
//! |B(q, ε) ∩ P|  ≤  ans  ≤  |B(q, ε(1+ρ)) ∩ P|
//! ```
//!
//! by the paper's three-way cell classification: cells disjoint from `B(q, ε)`
//! are skipped, cells fully inside `B(q, ε(1+ρ))` contribute their count, and
//! leaf cells intersecting `B(q, ε)` contribute their count (sound because a
//! leaf's diameter is at most `ερ`). Everything else recurses.

use crate::error::{check_budget, BuildError};
use crate::kdtree::KdTree;
use dbscan_geom::grid::{base_side, hierarchy_levels};
use dbscan_geom::{CellCoord, CellError, Point};
use std::mem::size_of;

struct CounterNode<const D: usize> {
    coord: CellCoord<D>,
    count: u32,
    /// Children occupy `child_start..child_end` of the next level's node list.
    child_start: u32,
    child_end: u32,
}

/// Approximate range counter for fixed `(ε, ρ)` (Lemma 5 of the paper):
/// O(n) space, O(n) expected build, O(1) expected query for constant `ρ` and `d`.
///
/// ```
/// use dbscan_index::ApproxRangeCounter;
/// use dbscan_geom::Point;
///
/// let pts = vec![Point([0.0, 0.0]), Point([0.5, 0.0]), Point([9.0, 9.0])];
/// let counter = ApproxRangeCounter::build(&pts, 1.0, 0.01);
/// let ans = counter.query(&Point([0.1, 0.0]));
/// // Guaranteed: |B(q, 1.0)| = 2  <=  ans  <=  |B(q, 1.01)| = 2.
/// assert_eq!(ans, 2);
/// assert!(!counter.query_positive(&Point([20.0, 20.0])));
/// ```
pub struct ApproxRangeCounter<const D: usize> {
    eps: f64,
    rho: f64,
    /// Side length per level: `sides[i] = ε/(2^i √d)`.
    sides: Vec<f64>,
    levels: Vec<Vec<CounterNode<D>>>,
    /// Accelerates finding the level-0 cells near `q` when the structure spans
    /// many level-0 cells (the per-grid-cell counters used inside the
    /// ρ-approximate algorithm have only a handful, and skip this).
    root_tree: Option<KdTree<D>>,
}

/// Build a kd-tree over level-0 centers once there are this many roots.
const ROOT_TREE_THRESHOLD: usize = 32;

impl<const D: usize> ApproxRangeCounter<D> {
    /// Builds the counter over `points`. `eps` must be positive and `rho` in
    /// `(0, +∞)` (values ≥ 1 degenerate to a single level). O(n·h) time.
    ///
    /// Panics on invalid parameters; callers with untrusted input should use
    /// [`ApproxRangeCounter::try_build`].
    pub fn build(points: &[Point<D>], eps: f64, rho: f64) -> Self {
        assert!(eps > 0.0, "eps must be positive");
        assert!(rho > 1e-9, "rho must be positive (and not absurdly small)");
        Self::build_inner(points, eps, rho)
    }

    /// Fallible twin of [`ApproxRangeCounter::build`]: rejects, with a typed
    /// [`BuildError`], non-positive/non-finite `eps` and `rho` (including
    /// `rho ≤ 1e-9`, where the Lemma 5 hierarchy degenerates), coordinates
    /// whose cell index at the *deepest* (smallest-side) level would overflow
    /// `i64` — the unchecked build saturates there, derives every coarser
    /// level from those leaf cells, and so silently merges distant points,
    /// breaking the sandwich guarantee — and, when
    /// `max_bytes` is given, builds whose estimated `h`-level footprint (see
    /// [`estimated_build_bytes`]) exceeds the budget.
    pub fn try_build(
        points: &[Point<D>],
        eps: f64,
        rho: f64,
        max_bytes: Option<u64>,
    ) -> Result<Self, BuildError> {
        if !(eps > 0.0 && eps.is_finite()) {
            return Err(BuildError::Cell(CellError::BadSide {
                side: base_side::<D>(eps),
            }));
        }
        if !(rho.is_finite() && rho > 1e-9) {
            return Err(BuildError::Param {
                what: "rho",
                value: rho,
            });
        }
        let h = hierarchy_levels(rho);
        check_budget(
            "approximate range counter",
            estimated_build_bytes::<D>(points.len(), rho),
            max_bytes,
        )?;
        // Validate at the deepest level's side: it is the smallest, so its cell
        // coordinates are the largest in magnitude; if they fit, every
        // shallower level fits too.
        let leaf_side = base_side::<D>(eps) / (1u64 << (h - 1)) as f64;
        for p in points {
            CellCoord::try_of(p, leaf_side)?;
        }
        Ok(Self::build_inner(points, eps, rho))
    }

    fn build_inner(points: &[Point<D>], eps: f64, rho: f64) -> Self {
        let h = hierarchy_levels(rho);
        let sides: Vec<f64> = (0..h)
            .map(|i| base_side::<D>(eps) / (1u64 << i) as f64)
            .collect();

        let mut levels: Vec<Vec<CounterNode<D>>> = (0..h).map(|_| Vec::new()).collect();
        if !points.is_empty() {
            // A point's cell on every level follows from its leaf cell:
            // level i's side is the leaf side times 2^(h-1-i), so its cell is
            // the leaf cell's ancestor that many levels up. One division per
            // coordinate buckets the point on all h levels.
            let top = (h - 1) as u32;
            let mut cells: Vec<CellCoord<D>> = points
                .iter()
                .map(|p| CellCoord::of(p, sides[h - 1]))
                .collect();
            let mut scratch = vec![CellCoord([0; D]); cells.len()];
            // One bucket-bound buffer per partitioning level, reused by every
            // node at that level (the leaf level never partitions).
            let mut bounds = vec![0u32; (h - 1) << D];
            // Group the points by their level-0 cell, then recurse per group.
            cells.sort_unstable_by_key(|c| ancestor(c, top));
            let mut start = 0;
            while start < cells.len() {
                let coord = ancestor(&cells[start], top);
                let mut end = start + 1;
                while end < cells.len() && ancestor(&cells[end], top) == coord {
                    end += 1;
                }
                build_rec(
                    &mut cells[start..end],
                    &mut scratch[start..end],
                    0,
                    coord,
                    &mut levels,
                    &mut bounds,
                );
                start = end;
            }
        }

        let root_tree = if levels[0].len() >= ROOT_TREE_THRESHOLD {
            let centers: Vec<Point<D>> =
                levels[0].iter().map(|n| n.coord.center(sides[0])).collect();
            Some(KdTree::build(&centers))
        } else {
            None
        };

        ApproxRangeCounter {
            eps,
            rho,
            sides,
            levels,
            root_tree,
        }
    }

    /// The `ε` the structure was built for.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// The `ρ` the structure was built for.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Number of levels `h`.
    pub fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Total number of indexed points.
    pub fn num_points(&self) -> usize {
        self.levels[0].iter().map(|n| n.count as usize).sum()
    }

    /// Answers the approximate range-count query at `q`: the result is between
    /// `|B(q, ε) ∩ P|` and `|B(q, ε(1+ρ)) ∩ P|`.
    pub fn query(&self, q: &Point<D>) -> usize {
        let mut ans = 0usize;
        self.for_candidate_roots(q, |this, root| {
            this.visit(0, root, q, &mut ans, usize::MAX);
            true
        });
        ans
    }

    /// Whether the approximate count at `q` is non-zero, with early exit.
    /// `true` guarantees some point lies in `B(q, ε(1+ρ))`; `false` guarantees
    /// `B(q, ε)` is empty. This is the edge test of the ρ-approximate algorithm.
    pub fn query_positive(&self, q: &Point<D>) -> bool {
        let mut ans = 0usize;
        self.for_candidate_roots(q, |this, root| {
            this.visit(0, root, q, &mut ans, 1);
            ans == 0
        });
        ans > 0
    }

    /// Counted twin of [`Self::query_positive`]: adds to `cells_visited` every
    /// hierarchy cell touched (cells rejected as disjoint included — the
    /// classification test is the work the paper's Lemma 5 bounds). Separate
    /// from the uncounted recursion so the hot path stays unchanged.
    pub fn query_positive_counted(&self, q: &Point<D>, cells_visited: &mut u64) -> bool {
        let mut ans = 0usize;
        let mut visited = 0u64;
        self.for_candidate_roots(q, |this, root| {
            this.visit_counted(0, root, q, &mut ans, 1, &mut visited);
            ans == 0
        });
        *cells_visited += visited;
        ans > 0
    }

    /// Invokes `f` on every level-0 node that could intersect `B(q, ε(1+ρ))`,
    /// until `f` returns `false`.
    fn for_candidate_roots(&self, q: &Point<D>, mut f: impl FnMut(&Self, usize) -> bool) {
        match &self.root_tree {
            Some(tree) => {
                // A level-0 cell intersecting the query ball has its center
                // within radius eps(1+rho) + half the cell diagonal.
                let reach = self.eps * (1.0 + self.rho) + 0.5 * self.eps + 1e-9 * self.eps;
                tree.for_each_within(q, reach, |i, _| f(self, i as usize));
            }
            None => {
                for i in 0..self.levels[0].len() {
                    if !f(self, i) {
                        break;
                    }
                }
            }
        }
    }

    /// Core recursion; stops adding once `ans >= stop_at`.
    fn visit(&self, lvl: usize, node_idx: usize, q: &Point<D>, ans: &mut usize, stop_at: usize) {
        if *ans >= stop_at {
            return;
        }
        let node = &self.levels[lvl][node_idx];
        let bbox = node.coord.aabb(self.sides[lvl]);
        if !bbox.intersects_ball(q, self.eps) {
            // Disjoint from B(q, ε): contributes nothing (even if it intersects
            // the outer ball — the paper's SW(5) case in Figure 7).
            return;
        }
        let is_leaf = lvl + 1 == self.levels.len();
        if is_leaf || bbox.inside_ball(q, self.eps * (1.0 + self.rho)) {
            *ans += node.count as usize;
            return;
        }
        for child in node.child_start..node.child_end {
            self.visit(lvl + 1, child as usize, q, ans, stop_at);
        }
    }

    fn visit_counted(
        &self,
        lvl: usize,
        node_idx: usize,
        q: &Point<D>,
        ans: &mut usize,
        stop_at: usize,
        cells_visited: &mut u64,
    ) {
        if *ans >= stop_at {
            return;
        }
        *cells_visited += 1;
        let node = &self.levels[lvl][node_idx];
        let bbox = node.coord.aabb(self.sides[lvl]);
        if !bbox.intersects_ball(q, self.eps) {
            return;
        }
        let is_leaf = lvl + 1 == self.levels.len();
        if is_leaf || bbox.inside_ball(q, self.eps * (1.0 + self.rho)) {
            *ans += node.count as usize;
            return;
        }
        for child in node.child_start..node.child_end {
            self.visit_counted(lvl + 1, child as usize, q, ans, stop_at, cells_visited);
        }
    }
}

/// Conservative upper bound on the bytes an [`ApproxRangeCounter`] build over
/// `n` points needs: at most `n` non-empty nodes on each of the
/// `h = hierarchy_levels(rho)` levels, plus the two leaf-cell buffers the
/// counting sort shuffles through. Exposed so callers that build *many*
/// counters (the per-cell counters of the ρ-approximate algorithm) can check
/// an aggregate budget up front without constructing anything.
pub fn estimated_build_bytes<const D: usize>(n: usize, rho: f64) -> u64 {
    let h = hierarchy_levels(rho) as u64;
    let node = size_of::<CounterNode<D>>() as u64;
    let leaf = size_of::<CellCoord<D>>() as u64;
    (n as u64).saturating_mul(h.saturating_mul(node).saturating_add(2 * leaf))
}

/// The cell `levels` halvings above `cell`. For a point `p` and a side `s`,
/// `ancestor(&CellCoord::of(p, s), k) == CellCoord::of(p, s · 2^k)` while the
/// finer coordinate is in range: scaling by a power of two is exact in
/// floating point, and the arithmetic shift is a floor division.
fn ancestor<const D: usize>(cell: &CellCoord<D>, levels: u32) -> CellCoord<D> {
    CellCoord(cell.0.map(|c| c >> levels))
}

/// Recursively materializes the hierarchy for the points of one cell at
/// `lvl`, given as their leaf cells. Children of a node are pushed
/// consecutively into the next level's list (the recursion is depth-first,
/// and deeper calls only touch deeper levels), which is what makes the
/// `child_start..child_end` ranges valid.
///
/// `bounds` holds `2^D` bucket bounds for this level followed by those of
/// every deeper one, so each level reuses one buffer across all its nodes.
/// The counting sort moves the cells into `scratch`, and the children
/// recurse with the two buffers' roles swapped, so nothing is copied back.
fn build_rec<const D: usize>(
    leaves: &mut [CellCoord<D>],
    scratch: &mut [CellCoord<D>],
    lvl: usize,
    coord: CellCoord<D>,
    levels: &mut [Vec<CounterNode<D>>],
    bounds: &mut [u32],
) {
    if let [leaf] = leaves {
        push_chain(leaf, lvl, levels);
        return;
    }
    let my_idx = levels[lvl].len();
    levels[lvl].push(CounterNode {
        coord,
        count: leaves.len() as u32,
        child_start: 0,
        child_end: 0,
    });
    if lvl + 1 == levels.len() {
        return;
    }

    // Partition the slice into the 2^D children by parity of the child cell
    // coordinates (a counting sort into `scratch`): `ends[b]` counts bucket
    // b, becomes its start, and after the scatter is its end.
    let (ends, deeper) = bounds.split_at_mut(1 << D);
    let up = (levels.len() - 2 - lvl) as u32;
    let bucket_of = |leaf: &CellCoord<D>| -> usize {
        let mut b = 0usize;
        for i in 0..D {
            b = (b << 1) | ((leaf.0[i] >> up) & 1) as usize;
        }
        b
    };
    ends.fill(0);
    for leaf in leaves.iter() {
        ends[bucket_of(leaf)] += 1;
    }
    let mut start = 0;
    for e in ends.iter_mut() {
        let count = *e;
        *e = start;
        start += count;
    }
    for leaf in leaves.iter() {
        let b = bucket_of(leaf);
        scratch[ends[b] as usize] = *leaf;
        ends[b] += 1;
    }

    let child_start = levels[lvl + 1].len() as u32;
    let mut s = 0;
    for &end in ends.iter() {
        let e = end as usize;
        if s == e {
            continue;
        }
        let child_coord = ancestor(&scratch[s], up);
        debug_assert_eq!(child_coord.parent(), coord, "child must refine parent");
        build_rec(
            &mut scratch[s..e],
            &mut leaves[s..e],
            lvl + 1,
            child_coord,
            levels,
            deeper,
        );
        s = e;
    }
    let child_end = levels[lvl + 1].len() as u32;
    levels[lvl][my_idx].child_start = child_start;
    levels[lvl][my_idx].child_end = child_end;
}

/// The nodes [`build_rec`] would push for a cell holding the single point
/// with leaf cell `leaf`: one node per level from `lvl` down, each the only
/// child of the one above, without partitioning.
fn push_chain<const D: usize>(leaf: &CellCoord<D>, lvl: usize, levels: &mut [Vec<CounterNode<D>>]) {
    let h = levels.len();
    for l in lvl..h {
        let (child_start, child_end) = match levels.get(l + 1) {
            Some(next) => (next.len() as u32, next.len() as u32 + 1),
            None => (0, 0),
        };
        levels[l].push(CounterNode {
            coord: ancestor(leaf, (h - 1 - l) as u32),
            count: 1,
            child_start,
            child_end,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

    fn brute_count<const D: usize>(pts: &[Point<D>], q: &Point<D>, r: f64) -> usize {
        pts.iter().filter(|p| p.dist_sq(q) <= r * r).count()
    }

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
    fn empty_counter() {
        let c = ApproxRangeCounter::<2>::build(&[], 1.0, 0.01);
        assert_eq!(c.query(&p2(0.0, 0.0)), 0);
        assert!(!c.query_positive(&p2(0.0, 0.0)));
        assert_eq!(c.num_points(), 0);
    }

    #[test]
    fn counts_are_exact_when_far_from_boundary() {
        let pts = vec![p2(0.0, 0.0), p2(0.1, 0.0), p2(10.0, 10.0)];
        let c = ApproxRangeCounter::build(&pts, 1.0, 0.01);
        // Points well inside / outside both balls are counted exactly.
        assert_eq!(c.query(&p2(0.05, 0.0)), 2);
        assert_eq!(c.query(&p2(20.0, 20.0)), 0);
    }

    #[test]
    fn sandwich_guarantee_on_random_points() {
        let pts = lcg_points(500, 20.0, 0xDEADBEEF);
        for rho in [0.001, 0.01, 0.1, 0.5] {
            let eps = 1.5;
            let c = ApproxRangeCounter::build(&pts, eps, rho);
            for q in pts.iter().step_by(7) {
                let lo = brute_count(&pts, q, eps);
                let hi = brute_count(&pts, q, eps * (1.0 + rho));
                let ans = c.query(q);
                assert!(
                    lo <= ans && ans <= hi,
                    "rho={rho}: {lo} <= {ans} <= {hi} violated at {q:?}"
                );
                assert_eq!(c.query_positive(q), ans > 0);
            }
        }
    }

    #[test]
    fn level_count_matches_formula() {
        let pts = vec![p2(0.0, 0.0)];
        assert_eq!(ApproxRangeCounter::build(&pts, 1.0, 0.001).num_levels(), 11);
        assert_eq!(ApproxRangeCounter::build(&pts, 1.0, 0.5).num_levels(), 2);
        assert_eq!(ApproxRangeCounter::build(&pts, 1.0, 1.0).num_levels(), 1);
    }

    #[test]
    fn num_points_counts_multiset() {
        let pts = vec![p2(1.0, 1.0); 17];
        let c = ApproxRangeCounter::build(&pts, 2.0, 0.1);
        assert_eq!(c.num_points(), 17);
        assert_eq!(c.query(&p2(1.0, 1.0)), 17);
    }

    #[test]
    fn root_tree_path_agrees_with_scan_path() {
        // Enough spread-out points to trigger the kd-tree over level-0 cells.
        let pts = lcg_points(2000, 500.0, 42);
        let eps = 3.0;
        let rho = 0.05;
        let c = ApproxRangeCounter::build(&pts, eps, rho);
        for q in pts.iter().step_by(31) {
            let lo = brute_count(&pts, q, eps);
            let hi = brute_count(&pts, q, eps * (1.0 + rho));
            let ans = c.query(q);
            assert!(lo <= ans && ans <= hi, "{lo} <= {ans} <= {hi} at {q:?}");
        }
    }

    #[test]
    fn query_positive_early_exit_consistency() {
        let pts = lcg_points(300, 10.0, 7);
        let c = ApproxRangeCounter::build(&pts, 0.8, 0.01);
        for q in pts.iter().step_by(11) {
            assert_eq!(c.query_positive(q), c.query(q) > 0);
        }
    }

    #[test]
    fn try_build_rejects_bad_params() {
        let pts = vec![p2(0.0, 0.0)];
        for eps in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ApproxRangeCounter::try_build(&pts, eps, 0.01, None),
                Err(BuildError::Cell(CellError::BadSide { .. }))
            ));
        }
        for rho in [0.0, -0.5, 1e-10, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ApproxRangeCounter::try_build(&pts, 1.0, rho, None),
                Err(BuildError::Param { what: "rho", .. })
            ));
        }
    }

    #[test]
    fn try_build_rejects_leaf_level_overflow() {
        // 1e17 fits the level-0 grid at eps = 1, but the hierarchy for
        // rho = 0.001 divides the side by 2^10, pushing the leaf coordinate
        // past the checked 2^61 bound.
        let pts = vec![p2(1e17, 0.0)];
        assert!(ApproxRangeCounter::try_build(&pts, 1.0, 0.5, None).is_ok());
        assert!(matches!(
            ApproxRangeCounter::try_build(&pts, 1.0, 0.001, None),
            Err(BuildError::Cell(CellError::Overflow { .. }))
        ));
    }

    #[test]
    fn try_build_respects_byte_budget() {
        let pts = lcg_points(200, 20.0, 3);
        assert!(matches!(
            ApproxRangeCounter::try_build(&pts, 1.0, 0.01, Some(100)),
            Err(BuildError::Budget {
                structure: "approximate range counter",
                ..
            })
        ));
        let c = ApproxRangeCounter::try_build(&pts, 1.0, 0.01, Some(1 << 24)).unwrap();
        assert_eq!(c.num_points(), 200);
    }

    #[test]
    fn hierarchy_levels_are_the_distinct_cells_and_children_refine_parents() {
        let mut pts = lcg_points(1500, 6.0, 11);
        // Duplicates and lone points exercise the single-point chains.
        pts.extend([p2(1.25, 1.25); 40]);
        pts.extend([p2(-30.0, 4.0), p2(50.0, -7.5)]);
        for rho in [0.001, 0.1, 1.0] {
            let c = ApproxRangeCounter::build(&pts, 0.9, rho);
            let h = c.num_levels();
            for lvl in 0..h {
                let nodes = &c.levels[lvl];
                let mut cells = std::collections::BTreeMap::new();
                for p in &pts {
                    *cells.entry(CellCoord::of(p, c.sides[lvl])).or_insert(0u32) += 1;
                }
                assert_eq!(nodes.len(), cells.len(), "rho={rho} level {lvl}");
                let mut next_child = 0;
                for n in nodes {
                    assert_eq!(Some(&n.count), cells.get(&n.coord), "rho={rho} level {lvl}");
                    if lvl + 1 == h {
                        assert_eq!((n.child_start, n.child_end), (0, 0));
                        continue;
                    }
                    // Children are contiguous and laid out in parent order.
                    assert_eq!(n.child_start, next_child);
                    assert!(n.child_end > n.child_start);
                    next_child = n.child_end;
                    let kids = &c.levels[lvl + 1][n.child_start as usize..n.child_end as usize];
                    assert!(kids.iter().all(|k| k.coord.parent() == n.coord));
                    let sum: u32 = kids.iter().map(|k| k.count).sum();
                    assert_eq!(sum, n.count, "rho={rho} level {lvl}");
                }
                if lvl + 1 < h {
                    assert_eq!(next_child as usize, c.levels[lvl + 1].len());
                }
            }
        }
    }

    #[test]
    fn counted_query_positive_agrees_and_counts() {
        let pts = lcg_points(300, 10.0, 7);
        let c = ApproxRangeCounter::build(&pts, 0.8, 0.01);
        let mut total = 0u64;
        for q in pts.iter().step_by(11) {
            let before = total;
            assert_eq!(c.query_positive_counted(q, &mut total), c.query_positive(q));
            assert!(total > before, "every query visits at least one cell");
        }
    }
}
