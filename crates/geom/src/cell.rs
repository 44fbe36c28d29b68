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

/// Cell indices `c` with `-2^52 ≤ c < 2^52` have a [`CellCoord::preimage`]:
/// `c` and `c + 1` are exact `f64`s there.
const PREIMAGE_LIMIT: i64 = 1 << 52;

/// The position of `x` in the total order of `f64` ([`f64::total_cmp`]'s
/// key): adjacent floats get adjacent keys, and the map is its own inverse.
#[inline]
fn order_key(x: f64) -> i64 {
    let b = x.to_bits() as i64;
    b ^ (((b >> 63) as u64) >> 1) as i64
}

#[inline]
fn from_order_key(k: i64) -> f64 {
    f64::from_bits((k ^ (((k >> 63) as u64) >> 1) as i64) as u64)
}

/// The least finite `x` whose quotient `x / side` — the one
/// [`CellCoord::try_of`] floors — is at least `k`, or `None` if no finite
/// `x` has one. Division by a positive `side` is correctly rounded and so
/// monotone in `x`: the `x` that qualify form an upper interval. The search
/// starts at `k·side`, gallops outward by doubling steps in ulps until it
/// brackets the interval's end, then bisects; every step asks the quotient
/// itself, so the answer is exact however `k·side` was rounded.
fn least_with_quotient_at_least(k: i64, side: f64) -> Option<f64> {
    let k = k as f64;
    let at_least = |key: i64| from_order_key(key) / side >= k;
    let (lowest, highest) = (order_key(f64::NEG_INFINITY), order_key(f64::INFINITY));
    // `no` fails the test and `yes` passes it; -inf always fails, +inf always passes.
    let guess = order_key(k * side);
    let (mut no, mut yes) = (guess, guess);
    let mut step = 1i64;
    if at_least(guess) {
        while no > lowest && at_least(no) {
            yes = no;
            no = no.saturating_sub(step).max(lowest);
            step = step.saturating_mul(2);
        }
    } else {
        while yes < highest && !at_least(yes) {
            no = yes;
            yes = yes.saturating_add(step).min(highest);
            step = step.saturating_mul(2);
        }
    }
    while no + 1 < yes {
        let mid = ((i128::from(no) + i128::from(yes)) / 2) as i64;
        if at_least(mid) {
            yes = mid;
        } else {
            no = mid;
        }
    }
    Some(from_order_key(yes)).filter(|x| x.is_finite())
}

/// The exact preimage of one grid cell: the half-open box `[lo, hi)` of the
/// points that [`CellCoord::try_of`] maps to it. See [`CellCoord::preimage`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CellPreimage<const D: usize> {
    /// Per dimension, the least coordinate in the cell; finite.
    pub lo: [f64; D],
    /// Per dimension, the least coordinate past the cell; finite.
    pub hi: [f64; D],
}

impl<const D: usize> CellPreimage<D> {
    /// Whether `lo ≤ p < hi` in every dimension, which holds exactly when
    /// [`CellCoord::try_of`] maps `p` to the cell. Costs `2·D` comparisons and
    /// no division; NaN and ±∞ coordinates are never inside (both bounds are
    /// finite).
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        let mut inside = true;
        for i in 0..D {
            inside &= (self.lo[i] <= p[i]) & (p[i] < self.hi[i]);
        }
        inside
    }

    /// Where the box stands against the closed ball `B(q, √eps_sq)`, decided
    /// without visiting a point and exactly as the points' own distances
    /// would decide it.
    ///
    /// Per dimension the *near* gap is the rounded distance from `q` to the
    /// box's nearer face (zero when `q` lies between the faces) and the *far*
    /// gap the rounded distance to its farther face; both are squared and
    /// summed in ascending dimension order, the order of [`Point::dist_sq`]
    /// and of the blocked kernels. Subtraction, squaring and addition round
    /// monotonically, so for every point `p` of the box the computed
    /// `p.dist_sq(q)` lies between the near and the far sum. A far sum at
    /// most `eps_sq` therefore puts every point of the box in the ball, and
    /// a near sum above it puts none there. The far gap is taken to `hi`,
    /// which no point of the box reaches, so it can only err toward
    /// [`BallCover::Straddles`].
    #[inline]
    pub fn ball_cover(&self, q: &Point<D>, eps_sq: f64) -> BallCover {
        let (mut near, mut far) = (0.0, 0.0);
        for i in 0..D {
            let (lo, hi) = (self.lo[i] - q[i], self.hi[i] - q[i]);
            let n = if lo > 0.0 {
                lo
            } else if hi < 0.0 {
                -hi
            } else {
                0.0
            };
            let f = (-lo).max(hi);
            near += n * n;
            far += f * f;
        }
        if far <= eps_sq {
            BallCover::Covered
        } else if near > eps_sq {
            BallCover::Disjoint
        } else {
            BallCover::Straddles
        }
    }
}

/// How a closed ball meets the points of one box; see
/// [`CellPreimage::ball_cover`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BallCover {
    /// Every point of the box is in the ball.
    Covered,
    /// No point of the box is in the ball.
    Disjoint,
    /// Neither could be shown from the box: its points must be scanned.
    Straddles,
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

    /// The exact set of points that [`CellCoord::try_of`]`(p, side)` maps to
    /// this cell, as a half-open box, or `None` when `side` is not positive
    /// and finite, a coordinate lies outside `[-2^52, 2^52)`, or a bound of
    /// the box would not be finite.
    ///
    /// Unlike [`CellCoord::aabb`], whose corners are the rounded products
    /// `c·side`, the bounds here are found by asking the quotient `x / side`
    /// itself, ulp by ulp, so a point is inside exactly when `try_of` would
    /// put it in this cell. A caller that buckets many points in a row into
    /// one cell can test membership with comparisons instead of divisions.
    pub fn preimage(&self, side: f64) -> Option<CellPreimage<D>> {
        if !(side > 0.0 && side.is_finite()) {
            return None;
        }
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for i in 0..D {
            let c = self.0[i];
            if !(-PREIMAGE_LIMIT..PREIMAGE_LIMIT).contains(&c) {
                return None;
            }
            lo[i] = least_with_quotient_at_least(c, side)?;
            hi[i] = least_with_quotient_at_least(c + 1, side)?;
        }
        Some(CellPreimage { lo, hi })
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

    /// Both ends of every box agree with `try_of`: `lo` and the float below
    /// `hi` land in the cell, the float below `lo` and `hi` itself do not. A
    /// box one ulp too wide or too narrow at either end fails.
    #[test]
    fn preimage_ends_agree_with_try_of() {
        let up = |x: f64| from_order_key(order_key(x) + 1);
        let down = |x: f64| from_order_key(order_key(x) - 1);
        let cell_of = |x: f64, side: f64| CellCoord::try_of(&Point([x]), side).ok().map(|c| c.0[0]);
        let at = |x: f64| Point([x]);
        let limit = PREIMAGE_LIMIT;
        let mut cells: Vec<i64> = (-5..=5).collect();
        cells.extend([limit - 2, limit - 1, -limit, -limit + 1]);
        cells.extend([1 << 40, -(1 << 40) - 1, 123_456_789, -987_654_321]);
        let sides = [
            1e-3,
            0.1,
            1.0 / 2f64.sqrt(),
            1.0,
            3.0 / 3f64.sqrt(),
            5000.0 / 5f64.sqrt(),
            1e3,
            700_000.1,
            1e9,
        ];
        for side in sides {
            for &c in &cells {
                let what = format!("side {side:e} cell {c}");
                let b = CellCoord([c]).preimage(side).expect(&what);
                let (lo, hi) = (b.lo[0], b.hi[0]);
                assert!(lo < hi, "{what}: [{lo:e}, {hi:e})");
                assert_eq!(cell_of(lo, side), Some(c), "{what}: lo {lo:e}");
                assert_eq!(cell_of(down(hi), side), Some(c), "{what}: below hi");
                assert_ne!(cell_of(down(lo), side), Some(c), "{what}: below lo");
                assert_ne!(cell_of(hi, side), Some(c), "{what}: hi {hi:e}");
                assert!(b.contains(&at(lo)) && b.contains(&at(down(hi))), "{what}");
                assert!(!b.contains(&at(down(lo))) && !b.contains(&at(hi)), "{what}");
                assert!(b.contains(&at(up(lo))) || up(lo) == hi, "{what}");
                // Neighbouring cells' boxes abut.
                if let Some(next) = CellCoord([c + 1]).preimage(side) {
                    assert_eq!(next.lo[0], hi, "{what}: next cell");
                }
            }
            // Both zeros are in cell 0, and so is any quotient that rounds
            // to -0.0; neither infinity nor NaN is in any box.
            let zero = CellCoord([0]).preimage(side).unwrap();
            for z in [0.0, -0.0, zero.lo[0]] {
                assert_eq!(cell_of(z, side), Some(0), "side {side:e} x {z:e}");
                assert!(zero.contains(&at(z)), "side {side:e} x {z:e}");
            }
            for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(!zero.contains(&at(x)), "side {side:e} x {x}");
            }
        }
        // Past the cutoff, for a bad side, or with a bound past f64::MAX,
        // there is no box.
        assert_eq!(CellCoord([limit]).preimage(1.0), None);
        assert_eq!(CellCoord([-limit - 1]).preimage(1.0), None);
        assert_eq!(CellCoord([1 << 61]).preimage(1e-3), None);
        for side in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert_eq!(CellCoord([0]).preimage(side), None, "side {side}");
        }
        assert_eq!(CellCoord([1]).preimage(f64::MAX), None);
        // In several dimensions, one coordinate past the cutoff is enough.
        assert_eq!(CellCoord([0, limit]).preimage(1.0), None);
        let b = CellCoord([-2, 3]).preimage(0.7).unwrap();
        assert!(b.contains(&p2(b.lo[0], b.lo[1])));
        assert!(!b.contains(&p2(b.lo[0], b.hi[1])));
        assert!(!b.contains(&p2(down(b.lo[0]), b.lo[1])));
    }

    /// Ties decide for the ball: a far gap of exactly `eps_sq` covers the
    /// box and a near gap of exactly `eps_sq` does not rule it out. Either
    /// comparison made strict the other way fails here.
    #[test]
    fn ball_cover_settles_exact_ties_for_the_ball() {
        // Side 1: the box of cell (0, 0) is [0, 1) × [0, 1).
        let b = CellCoord([0i64, 0]).preimage(1.0).unwrap();
        let q = p2(2.0, 0.0);
        // Near gap 1 (to x = 1), far gap 2² + 1² = 5 (to the corner (0, 1)).
        assert_eq!(b.ball_cover(&q, 5.0), BallCover::Covered);
        assert_eq!(b.ball_cover(&q, 4.999), BallCover::Straddles);
        assert_eq!(b.ball_cover(&q, 1.0), BallCover::Straddles);
        assert_eq!(b.ball_cover(&q, 0.999), BallCover::Disjoint);
        // From inside the box the near gap is 0, so nothing is disjoint.
        let inside = p2(0.25, 0.5);
        assert_eq!(b.ball_cover(&inside, 0.0), BallCover::Straddles);
        assert_eq!(
            b.ball_cover(&inside, 0.75 * 0.75 + 0.5 * 0.5),
            BallCover::Covered
        );
    }

    /// The verdict agrees with the computed distance of every point of the
    /// box tried, points one ulp inside its faces included.
    #[test]
    fn ball_cover_agrees_with_point_distances() {
        let up = |x: f64| from_order_key(order_key(x) + 1);
        let down = |x: f64| from_order_key(order_key(x) - 1);
        for side in [0.1, 1.0 / 3f64.sqrt(), 5000.0 / 5f64.sqrt()] {
            let b = CellCoord([3i64, -2, 0]).preimage(side).unwrap();
            let xs = |i: usize| {
                let (lo, hi) = (b.lo[i], b.hi[i]);
                [lo, up(lo), 0.5 * (lo + hi), down(down(hi)), down(hi)]
            };
            let mut pts = Vec::new();
            for x in xs(0) {
                for y in xs(1) {
                    for z in xs(2) {
                        pts.push(Point([x, y, z]));
                    }
                }
            }
            let probes = [
                Point([b.lo[0], b.lo[1], b.lo[2]]),
                Point([b.hi[0] + side, b.lo[1] - side, 0.0]),
                Point([b.lo[0] - 0.3 * side, b.hi[1], b.hi[2] + 0.2 * side]),
            ];
            for q in probes {
                for p in &pts {
                    let d = p.dist_sq(&q);
                    for eps_sq in [d, up(d), down(d), 0.5 * d, 2.0 * d] {
                        let within = d <= eps_sq;
                        match b.ball_cover(&q, eps_sq) {
                            BallCover::Covered => assert!(within, "{p:?} {q:?} {eps_sq}"),
                            BallCover::Disjoint => assert!(!within, "{p:?} {q:?} {eps_sq}"),
                            BallCover::Straddles => {}
                        }
                    }
                }
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
