//! Runtime dimensionality for the `const D`-generic algorithms: a CSV file
//! or a `submit` request brings `dim` and flat coordinates at run time.

use crate::DbscanError;
use dbscan_geom::Point;

/// Every front end accepts `1..=MAX_DIM`, the range [`with_dim!`](crate::with_dim) covers.
pub const MAX_DIM: usize = 8;

/// Runs `D`-generic code for a runtime dimensionality:
/// `with_dim!(dim, D => body)` is `Some(body)` evaluated with
/// `const D: usize = dim` when `dim` is in `1..=`[`MAX_DIM`](crate::dim::MAX_DIM),
/// and `None` for any other `dim`, e.g.
/// `with_dim!(dim, D => run::<D>(&flat)).unwrap_or_else(|| Err(...))`.
#[macro_export]
macro_rules! with_dim {
    ($dim:expr, $d:ident => $body:expr) => {
        $crate::with_dim!(@arms $dim, $d, $body, 1 2 3 4 5 6 7 8)
    };
    (@arms $dim:expr, $d:ident, $body:expr, $($n:literal)*) => {
        match $dim {
            $($n => Some({
                const $d: usize = $n;
                $body
            }),)*
            _ => None,
        }
    };
}

/// Reshapes flat row-major coordinates into `Point<D>`s.
/// Panics if `flat.len()` is not a multiple of `D`.
pub fn points_from_flat<const D: usize>(flat: &[f64]) -> Vec<Point<D>> {
    try_points_from_flat(flat).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`points_from_flat`]: a flat length that is not a
/// multiple of `D` becomes a [`DbscanError::Parse`] naming the trailing
/// partial row.
pub fn try_points_from_flat<const D: usize>(flat: &[f64]) -> Result<Vec<Point<D>>, DbscanError> {
    let rem = flat.len() % D;
    if rem != 0 {
        return Err(DbscanError::Parse {
            line: flat.len() / D + 1,
            token: format!("{rem} trailing coordinate(s)"),
            message: format!(
                "flat length {} is not a multiple of the dimension {D}",
                flat.len()
            ),
        });
    }
    Ok(flat
        .chunks_exact(D)
        .map(|c| {
            let mut a = [0.0; D];
            a.copy_from_slice(c);
            Point(a)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_dim_covers_exactly_one_to_max_dim() {
        for dim in 0..=MAX_DIM + 1 {
            let got = crate::with_dim!(dim, D => D);
            let expected = (1..=MAX_DIM).contains(&dim).then_some(dim);
            assert_eq!(got, expected, "dim {dim}");
        }
    }
}
