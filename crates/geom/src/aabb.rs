//! Axis-aligned bounding boxes and the ball predicates used by the grid and tree
//! structures.
//!
//! The ρ-approximate range-counting query of the paper (Section 4.3) classifies each
//! visited cell as (i) disjoint from `B(q, ε)`, (ii) fully covered by `B(q, ε(1+ρ))`,
//! or (iii) neither — exactly the three predicates exposed here.

use crate::point::Point;

/// A closed axis-aligned box `[lo, hi]` in `D` dimensions.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Aabb<const D: usize> {
    pub lo: Point<D>,
    pub hi: Point<D>,
}

impl<const D: usize> Aabb<D> {
    /// Creates a box from its corners. Debug-asserts `lo ≤ hi` coordinate-wise.
    #[inline]
    pub fn new(lo: Point<D>, hi: Point<D>) -> Self {
        debug_assert!((0..D).all(|i| lo[i] <= hi[i]), "inverted box");
        Aabb { lo, hi }
    }

    /// The degenerate box containing exactly one point.
    #[inline]
    pub fn point(p: Point<D>) -> Self {
        Aabb { lo: p, hi: p }
    }

    /// The smallest box containing all `points`. Returns `None` for an empty slice.
    pub fn bounding(points: &[Point<D>]) -> Option<Self> {
        let (first, rest) = points.split_first()?;
        let mut lo = *first;
        let mut hi = *first;
        for p in rest {
            lo = lo.min(p);
            hi = hi.max(p);
        }
        Some(Aabb { lo, hi })
    }

    /// Grows the box to contain `p`.
    #[inline]
    pub fn extend(&mut self, p: &Point<D>) {
        self.lo = self.lo.min(p);
        self.hi = self.hi.max(p);
    }

    /// Grows the box to contain `other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        Aabb {
            lo: self.lo.min(&other.lo),
            hi: self.hi.max(&other.hi),
        }
    }

    /// Whether `p` lies inside the closed box.
    #[inline]
    pub fn contains(&self, p: &Point<D>) -> bool {
        (0..D).all(|i| self.lo[i] <= p[i] && p[i] <= self.hi[i])
    }

    /// Squared distance from `q` to the closest point of the box (0 if inside).
    #[inline]
    pub fn min_dist_sq(&self, q: &Point<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let c = q[i];
            let d = if c < self.lo[i] {
                self.lo[i] - c
            } else if c > self.hi[i] {
                c - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Squared distance between the closest points of the box and `other`
    /// (0 if they touch or overlap). Like [`Aabb::min_dist_sq`] it sums the
    /// per-dimension gaps in ascending dimension order, the order of
    /// [`Point::dist_sq`]; rounding is monotone, so the result is never
    /// larger than the computed `p.dist_sq(&q)` of any `p` in one box and
    /// `q` in the other.
    #[inline]
    pub fn min_dist_sq_box(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = if other.hi[i] < self.lo[i] {
                self.lo[i] - other.hi[i]
            } else if self.hi[i] < other.lo[i] {
                other.lo[i] - self.hi[i]
            } else {
                0.0
            };
            acc += d * d;
        }
        acc
    }

    /// Squared distance from `q` to the farthest point of the box.
    #[inline]
    pub fn max_dist_sq(&self, q: &Point<D>) -> f64 {
        let mut acc = 0.0;
        for i in 0..D {
            let d = (q[i] - self.lo[i]).abs().max((q[i] - self.hi[i]).abs());
            acc += d * d;
        }
        acc
    }

    /// Whether the box intersects the closed ball `B(q, r)`.
    #[inline]
    pub fn intersects_ball(&self, q: &Point<D>, r: f64) -> bool {
        self.min_dist_sq(q) <= r * r
    }

    /// Whether the box lies entirely inside the closed ball `B(q, r)`.
    #[inline]
    pub fn inside_ball(&self, q: &Point<D>, r: f64) -> bool {
        self.max_dist_sq(q) <= r * r
    }

    /// Side length along dimension `i`.
    #[inline]
    pub fn side(&self, i: usize) -> f64 {
        self.hi[i] - self.lo[i]
    }

    /// Center of the box.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for i in 0..D {
            c[i] = 0.5 * (self.lo[i] + self.hi[i]);
        }
        Point(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::point::p2;

    fn unit() -> Aabb<2> {
        Aabb::new(p2(0.0, 0.0), p2(1.0, 1.0))
    }

    #[test]
    fn bounding_of_empty_is_none() {
        assert!(Aabb::<2>::bounding(&[]).is_none());
    }

    #[test]
    fn bounding_covers_all_points() {
        let pts = [p2(1.0, 5.0), p2(-2.0, 3.0), p2(0.5, 7.0)];
        let b = Aabb::bounding(&pts).unwrap();
        assert_eq!(b.lo, p2(-2.0, 3.0));
        assert_eq!(b.hi, p2(1.0, 7.0));
        for p in &pts {
            assert!(b.contains(p));
        }
    }

    #[test]
    fn min_dist_zero_inside() {
        assert_eq!(unit().min_dist_sq(&p2(0.5, 0.5)), 0.0);
    }

    #[test]
    fn min_dist_to_corner() {
        // Query at (2, 2): closest box point is corner (1, 1), distance sqrt(2).
        assert_eq!(unit().min_dist_sq(&p2(2.0, 2.0)), 2.0);
    }

    #[test]
    fn min_dist_to_face() {
        assert_eq!(unit().min_dist_sq(&p2(0.5, 3.0)), 4.0);
    }

    #[test]
    fn box_to_box_distance() {
        let far = Aabb::new(p2(4.0, 5.0), p2(6.0, 7.0));
        // Closest corners (1, 1) and (4, 5): squared distance 9 + 16.
        assert_eq!(unit().min_dist_sq_box(&far), 25.0);
        assert_eq!(far.min_dist_sq_box(&unit()), 25.0);
        let beside = Aabb::new(p2(3.0, 0.5), p2(4.0, 0.75));
        assert_eq!(unit().min_dist_sq_box(&beside), 4.0);
        let touching = Aabb::new(p2(1.0, -1.0), p2(2.0, 0.0));
        assert_eq!(unit().min_dist_sq_box(&touching), 0.0);
        assert_eq!(unit().min_dist_sq_box(&unit()), 0.0);
    }

    #[test]
    fn max_dist_from_center() {
        // Farthest point from the center is any corner, at squared distance 0.5.
        assert_eq!(unit().max_dist_sq(&p2(0.5, 0.5)), 0.5);
    }

    #[test]
    fn ball_predicates() {
        let b = unit();
        let q = p2(2.0, 0.5);
        assert!(!b.intersects_ball(&q, 0.9));
        assert!(b.intersects_ball(&q, 1.0));
        assert!(!b.inside_ball(&q, 2.0));
        // Farthest corner from q is (0, 1): distance sqrt(4 + 0.25).
        assert!(b.inside_ball(&q, (4.25f64).sqrt()));
    }

    #[test]
    fn extend_and_union() {
        let mut b = Aabb::point(p2(1.0, 1.0));
        b.extend(&p2(3.0, 0.0));
        assert_eq!(b, Aabb::new(p2(1.0, 0.0), p2(3.0, 1.0)));
        let u = b.union(&unit());
        assert_eq!(u, Aabb::new(p2(0.0, 0.0), p2(3.0, 1.0)));
    }

    #[test]
    fn center_and_side() {
        let b = Aabb::new(p2(0.0, 2.0), p2(4.0, 6.0));
        assert_eq!(b.center(), p2(2.0, 4.0));
        assert_eq!(b.side(0), 4.0);
        assert_eq!(b.side(1), 4.0);
    }
}
