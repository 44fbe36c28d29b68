//! Integer grid-cell coordinates.
//!
//! Both the exact algorithm of Section 3.2 and the ρ-approximate algorithm of
//! Section 4 impose a grid on `R^d` whose cells are hyper-squares of side `ε/√d`
//! (so that any two points in the same cell are within distance `ε`). A cell is
//! identified by the integer vector `⌊p_i / side⌋`.

use crate::aabb::Aabb;
use crate::point::Point;
use std::fmt;

/// Largest admissible magnitude of an integer cell coordinate: `2^61`.
///
/// `f64 as i64` *saturates* on overflow, so an unchecked `⌊p_i / side⌋ as i64`
/// on an absurd span (say coordinates near ±1e308 with a small `ε`) silently
/// collapses distant points into the boundary cell and corrupts the grid. The
/// bound is deliberately two bits below `i64::MAX` so that every piece of
/// downstream coordinate arithmetic — neighbor offsets (±1), parent/child
/// halving, and the coordinate *differences* taken by [`CellCoord::min_dist_sq`]
/// (up to twice the magnitude) — stays comfortably inside `i64`.
pub const MAX_ABS_CELL_COORD: i64 = 1 << 61;

/// Why an integer cell coordinate could not be computed.
/// See [`CellCoord::try_of`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CellError {
    /// The cell side length is zero, negative, or non-finite. Sides are
    /// derived from `ε`, so: eps must be positive and finite.
    BadSide {
        /// The offending side length.
        side: f64,
    },
    /// `⌊p[dim] / side⌋` falls outside [`MAX_ABS_CELL_COORD`], so an `as i64`
    /// conversion would saturate and silently mis-bucket the point.
    Overflow {
        /// Dimension of the offending coordinate.
        dim: usize,
        /// The offending coordinate value.
        value: f64,
        /// The cell side length in use.
        side: f64,
    },
}

impl fmt::Display for CellError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellError::BadSide { side } => write!(
                f,
                "grid cell side must be positive and finite, got {side} \
                 (eps must be positive and finite)"
            ),
            CellError::Overflow { dim, value, side } => write!(
                f,
                "coordinate {value} (dimension {dim}) overflows the integer cell \
                 grid of side {side}; the dataset span is too large for this eps"
            ),
        }
    }
}

impl std::error::Error for CellError {}

/// `x.floor() as i64` for every `f64` (saturating, NaN to 0) without a
/// `floor` call: on the baseline x86-64 target `f64::floor` is a libm call,
/// which made it most of the cost of bucketing a point. Truncation is exact
/// for `|x| < 2^63` and rounds toward zero, so only a negative non-integer
/// needs the step down.
#[inline]
fn floor_i64(x: f64) -> i64 {
    let t = x as i64;
    t.saturating_sub(i64::from(t as f64 > x))
}

/// Integer coordinates of a grid cell, for a grid anchored at the origin.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct CellCoord<const D: usize>(pub [i64; D]);

impl<const D: usize> CellCoord<D> {
    /// The cell of side length `side` containing `p`.
    ///
    /// Uses `floor`, so points with negative coordinates map correctly
    /// (e.g. `-0.5 / 1.0` lands in cell `-1`, not `0`).
    ///
    /// Assumes `side` is positive/finite and the quotient fits the integer
    /// grid; callers that cannot guarantee this (unvalidated spans, externally
    /// supplied `ε`) must validate through [`CellCoord::try_of`] first — the
    /// `as i64` here saturates rather than failing.
    #[inline]
    pub fn of(p: &Point<D>, side: f64) -> Self {
        debug_assert!(side > 0.0, "cell side must be positive");
        let mut c = [0i64; D];
        for i in 0..D {
            c[i] = floor_i64(p[i] / side);
        }
        CellCoord(c)
    }

    /// Checked twin of [`CellCoord::of`]: rejects non-positive/non-finite
    /// sides and quotients whose floor falls outside
    /// [`MAX_ABS_CELL_COORD`] — the cases where the unchecked version would
    /// silently saturate — with a typed [`CellError`].
    #[inline]
    pub fn try_of(p: &Point<D>, side: f64) -> Result<Self, CellError> {
        if !(side > 0.0 && side.is_finite()) {
            return Err(CellError::BadSide { side });
        }
        let limit = MAX_ABS_CELL_COORD as f64;
        let mut c = [0i64; D];
        for i in 0..D {
            let q = p[i] / side;
            // `limit` is 2^61 and no `f64` lies in (2^61, 2^61 + 1), so `q`
            // is in range exactly when its floor is. The negated comparison
            // also rejects NaN.
            if !(-limit..=limit).contains(&q) {
                return Err(CellError::Overflow {
                    dim: i,
                    value: p[i],
                    side,
                });
            }
            c[i] = floor_i64(q);
        }
        Ok(CellCoord(c))
    }

    /// The closed box occupied by this cell in a grid of side `side`.
    #[inline]
    pub fn aabb(&self, side: f64) -> Aabb<D> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            lo[i] = self.0[i] as f64 * side;
            hi[i] = (self.0[i] + 1) as f64 * side;
        }
        Aabb::new(Point(lo), Point(hi))
    }

    /// Center of the cell.
    #[inline]
    pub fn center(&self, side: f64) -> Point<D> {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = (self.0[i] as f64 + 0.5) * side;
        }
        Point(c)
    }

    /// Squared minimum distance between two cells of side `side`.
    ///
    /// Cells at coordinate offset `δ` are separated by `max(|δ_i| − 1, 0)` whole
    /// cells along dimension `i`; the minimum distance is the norm of those gaps.
    /// Two cells are *ε-neighbors* (Section 2.2) iff this is at most `ε²`.
    #[inline]
    pub fn min_dist_sq(&self, other: &Self, side: f64) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let gap = ((self.0[i] - other.0[i]).abs() - 1).max(0) as f64;
            acc += gap * gap;
        }
        acc * side * side
    }

    /// Whether two cells of side `side` are ε-neighbors, i.e. their minimum
    /// distance is at most `eps`. A cell is an ε-neighbor of itself.
    #[inline]
    pub fn eps_neighbors(&self, other: &Self, side: f64, eps: f64) -> bool {
        self.min_dist_sq(other, side) <= eps * eps
    }

    /// In the hierarchical grid of Section 4.3, each cell splits into `2^D`
    /// children of half the side length. Returns the child cell (one level down)
    /// containing `p`. Equivalent to `CellCoord::of(p, side / 2)`, provided `p`
    /// lies in `self`.
    #[inline]
    pub fn child_of(p: &Point<D>, parent_side: f64) -> Self {
        CellCoord::of(p, parent_side / 2.0)
    }

    /// The parent of this cell, one level up (double the side length).
    #[inline]
    pub fn parent(&self) -> Self {
        let mut c = [0i64; D];
        for i in 0..D {
            c[i] = self.0[i].div_euclid(2);
        }
        CellCoord(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::p2;

    #[test]
    fn floor_i64_matches_floor_then_cast_everywhere() {
        let two = |k: i32| 2f64.powi(k);
        // The neighbours of a positive finite `x`.
        let up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let mut xs = vec![
            0.0,
            -0.0,
            1e-300,
            -1e-300,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e300,
            -1e300,
            f64::MAX,
            f64::MIN,
        ];
        for k in [0, 1, 52, 53, 61, 62, 63, 64] {
            for x in [two(k), two(k) + 0.5, two(k) - 0.5] {
                xs.extend([x, -x, up(x), down(x), -up(x), -down(x)]);
            }
        }
        for x in xs.iter().copied().chain((-40..40).map(|i| i as f64 * 0.37)) {
            assert_eq!(floor_i64(x), x.floor() as i64, "x = {x:e}");
        }
    }

    #[test]
    fn try_of_range_is_the_floor_range() {
        // In range exactly when the floor is within ±2^61.
        let limit = MAX_ABS_CELL_COORD as f64;
        for (x, ok) in [
            (limit, true),
            (f64::from_bits(limit.to_bits() + 1), false),
            (-limit, true),
            (-f64::from_bits(limit.to_bits() + 1), false),
            (-f64::from_bits(limit.to_bits() - 1), true),
        ] {
            let got = CellCoord::try_of(&p2(x, 0.0), 1.0);
            assert_eq!(got.is_ok(), ok, "x = {x:e}");
            if ok {
                assert_eq!(got.unwrap().0[0], x.floor() as i64, "x = {x:e}");
            }
        }
    }

    #[test]
    fn of_uses_floor_for_negatives() {
        assert_eq!(CellCoord::of(&p2(-0.5, 2.5), 1.0), CellCoord([-1, 2]));
        assert_eq!(CellCoord::of(&p2(0.0, 0.0), 1.0), CellCoord([0, 0]));
    }

    #[test]
    fn aabb_roundtrip() {
        let c = CellCoord([2, -3]);
        let b = c.aabb(0.5);
        assert_eq!(b.lo, p2(1.0, -1.5));
        assert_eq!(b.hi, p2(1.5, -1.0));
        assert_eq!(CellCoord::of(&b.center(), 0.5), c);
    }

    #[test]
    fn min_dist_adjacent_is_zero() {
        let a = CellCoord([0, 0]);
        for d in [[1, 0], [0, 1], [1, 1], [-1, 1]] {
            assert_eq!(a.min_dist_sq(&CellCoord(d), 1.0), 0.0);
        }
        assert_eq!(a.min_dist_sq(&a, 1.0), 0.0);
    }

    #[test]
    fn min_dist_with_gap() {
        let a = CellCoord([0, 0]);
        // Offset (3, 0): two whole cells of gap.
        assert_eq!(a.min_dist_sq(&CellCoord([3, 0]), 2.0), 16.0);
        // Offset (2, 2): one cell gap in each dimension.
        assert_eq!(a.min_dist_sq(&CellCoord([2, 2]), 1.0), 2.0);
    }

    #[test]
    fn min_dist_is_symmetric() {
        let a = CellCoord([-4, 7]);
        let b = CellCoord([1, -2]);
        assert_eq!(a.min_dist_sq(&b, 1.5), b.min_dist_sq(&a, 1.5));
    }

    #[test]
    fn min_dist_lower_bounds_point_dist() {
        // Any points inside the two cells are at least min_dist apart.
        let side = 1.0;
        let a = CellCoord([0, 0]);
        let b = CellCoord([4, 3]);
        let pa = p2(0.99, 0.99); // near a's corner closest to b
        let pb = p2(4.01, 3.01);
        assert!(pa.dist_sq(&pb) >= a.min_dist_sq(&b, side));
    }

    #[test]
    fn eps_neighbor_count_in_2d() {
        // Section 2.2: in 2D with side ε/√2 each cell has at most 21 ε-neighbors
        // counting itself (the 5×5 block minus its 4 corners). Our predicate treats
        // cells as closed boxes, so the 4 diagonal corner cells — whose infimum
        // distance is exactly ε but never attained because floor-assignment makes
        // cells half-open — are conservatively included: 24 neighbors excluding
        // self. The superset only costs a few distance checks that can never
        // succeed; it never affects correctness.
        let eps = 1.0;
        let side = eps / 2f64.sqrt();
        let origin = CellCoord([0i64, 0]);
        let mut count = 0;
        for dx in -5..=5i64 {
            for dy in -5..=5i64 {
                if (dx, dy) == (0, 0) {
                    continue;
                }
                if origin.eps_neighbors(&CellCoord([dx, dy]), side, eps) {
                    count += 1;
                }
            }
        }
        assert_eq!(count, 24);
    }

    #[test]
    fn parent_child_consistency() {
        let p = p2(3.3, -1.7);
        let side = 1.0;
        let cell = CellCoord::of(&p, side);
        let child = CellCoord::<2>::child_of(&p, side);
        assert_eq!(child.parent(), cell);
    }

    #[test]
    fn parent_handles_negative_coords() {
        assert_eq!(CellCoord([-1i64, -2]).parent(), CellCoord([-1, -1]));
        assert_eq!(CellCoord([-3i64, 3]).parent(), CellCoord([-2, 1]));
    }
}
