//! Input validation shared by all algorithm entry points.
//!
//! Non-finite coordinates would otherwise corrupt the grid silently (`NaN as
//! i64` saturates to 0, teleporting the point to the origin cell) or panic deep
//! inside a comparator with an unhelpful message. Every public algorithm calls
//! [`check_points`] first, which costs one O(n) pass and fails loudly.

use crate::error::DbscanError;
use dbscan_geom::{CellCoord, CellError, Point};

/// Panics with a descriptive message if any point has a non-finite coordinate.
pub fn check_points<const D: usize>(points: &[Point<D>]) {
    for (i, p) in points.iter().enumerate() {
        assert!(
            p.is_finite(),
            "input point {i} has a non-finite coordinate: {p:?}"
        );
    }
}

/// Fallible twin of [`check_points`]: returns
/// [`DbscanError::NonFinitePoint`] for the first offending point instead of
/// panicking. Every `try_*` algorithm entry point calls this first.
pub fn check_points_finite<const D: usize>(points: &[Point<D>]) -> Result<(), DbscanError> {
    match points.iter().position(|p| !p.is_finite()) {
        Some(index) => Err(DbscanError::NonFinitePoint { index }),
        None => Ok(()),
    }
}

/// Verifies every point's integer cell coordinate at the given `side` is
/// representable (see [`CellCoord::try_of`]); the grid-based algorithms call
/// this for the smallest side they will ever bucket at, after which the
/// unchecked [`CellCoord::of`] is safe everywhere downstream.
///
/// `⌊x / side⌋` is monotone in `x`, so only each dimension's minimum and
/// maximum can overflow: one branch-free pass of comparisons finds them (an
/// infinity becomes an extreme) and two [`CellCoord::try_of`] calls check
/// them. Comparisons skip NaN, so the pass also notes whether it saw one,
/// and a second pass then reports the first.
pub fn check_cell_range<const D: usize>(points: &[Point<D>], side: f64) -> Result<(), DbscanError> {
    let Some(first) = points.first() else {
        return Ok(());
    };
    CellCoord::try_of(first, side)?;
    let (mut lo, mut hi) = (*first, *first);
    let mut nan = false;
    for p in points {
        for i in 0..D {
            let x = p[i];
            nan |= x.is_nan();
            lo[i] = if x < lo[i] { x } else { lo[i] };
            hi[i] = if x > hi[i] { x } else { hi[i] };
        }
    }
    if nan {
        let (dim, value) = points
            .iter()
            .find_map(|p| p.0.iter().position(|x| x.is_nan()).map(|i| (i, p[i])))
            .expect("a NaN coordinate was seen");
        return Err(CellError::Overflow { dim, value, side }.into());
    }
    CellCoord::try_of(&lo, side)?;
    CellCoord::try_of(&hi, side)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::p2;

    #[test]
    fn finite_points_pass() {
        check_points(&[p2(0.0, 1.0), p2(-1e300, 1e300)]);
        check_points::<2>(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite coordinate")]
    fn nan_rejected() {
        check_points(&[p2(0.0, f64::NAN)]);
    }

    #[test]
    #[should_panic(expected = "input point 1")]
    fn index_reported() {
        check_points(&[p2(0.0, 0.0), p2(f64::INFINITY, 0.0)]);
    }

    #[test]
    fn fallible_twin_reports_first_offender() {
        assert!(check_points_finite(&[p2(0.0, 1.0), p2(-1e300, 1e300)]).is_ok());
        assert!(check_points_finite::<2>(&[]).is_ok());
        assert!(matches!(
            check_points_finite(&[p2(0.0, 0.0), p2(f64::NAN, 0.0), p2(f64::NAN, 0.0)]),
            Err(DbscanError::NonFinitePoint { index: 1 })
        ));
    }

    #[test]
    fn cell_range_check_flags_overflow() {
        assert!(check_cell_range(&[p2(1e6, -1e6)], 0.5).is_ok());
        assert!(check_cell_range::<2>(&[], 0.5).is_ok());
        assert!(matches!(
            check_cell_range(&[p2(0.0, 1e308)], 0.5),
            Err(DbscanError::CoordinateOverflow { dim: 1, .. })
        ));
    }

    #[test]
    fn cell_range_check_flags_overflow_at_one_dimensions_minimum() {
        // Only the minimum of dimension 1 overflows, and it is neither the
        // first point nor an extreme of dimension 0.
        let pts = [p2(0.0, 0.0), p2(5.0, 3.0), p2(2.0, -1e300), p2(-5.0, 1.0)];
        match check_cell_range(&pts, 0.5) {
            Err(DbscanError::CoordinateOverflow { dim, value, side }) => {
                assert_eq!((dim, value, side), (1, -1e300, 0.5));
            }
            other => panic!("expected CoordinateOverflow, got {other:?}"),
        }
        assert!(check_cell_range(&pts[..2], 0.5).is_ok());
    }

    #[test]
    fn cell_range_check_rejects_non_finite_and_bad_sides() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            for pts in [[p2(bad, 0.0), p2(1.0, 1.0)], [p2(1.0, 1.0), p2(0.0, bad)]] {
                assert!(matches!(
                    check_cell_range(&pts, 0.5),
                    Err(DbscanError::CoordinateOverflow { .. })
                ));
            }
        }
        assert!(matches!(
            check_cell_range(&[p2(0.0, 0.0)], 0.0),
            Err(DbscanError::InvalidParams(_))
        ));
    }
}
