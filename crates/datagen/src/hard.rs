//! Inputs that separate exact from ρ-approximate DBSCAN.
//!
//! The hardness argument of Section 3.1 (the USEC reduction of Lemma 4) says
//! that exact DBSCAN must pay for point pairs whose distance sits just above
//! ε, while Theorem 4's ρ-approximate algorithm may answer them either way.
//! [`blob_and_shell`] builds the simplest such instance: a tight blob and a
//! spherical shell around it, so that *every* blob–shell pair lies in the
//! slack band (ε, ε(1+ρ)].

use crate::randutil::{uniform_in_ball, unit_vector};
use dbscan_geom::Point;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A tight blob of `n_blob` points and a shell of `n_shell` points at radius
/// ε(1 + ρ/2) around it, seeded by `seed`.
///
/// The blob is uniform in a ball of radius ερ/8, so every blob–shell distance
/// lies in [ε(1 + 3ρ/8), ε(1 + 5ρ/8)]: beyond ε, within ε(1+ρ). The exact
/// clustering therefore keeps blob and shell apart, the exact clustering at
/// ε(1+ρ) joins them, and a ρ-approximate clustering may do either (the
/// Sandwich Theorem). No blob–shell pair can be decided by finding a pair
/// within ε, so an exact edge oracle must rule out every such pair. The
/// centre sits at (4ε, …, 4ε), keeping all coordinates positive.
pub fn blob_and_shell<const D: usize>(
    n_blob: usize,
    n_shell: usize,
    eps: f64,
    rho: f64,
    seed: u64,
) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let center = Point([4.0 * eps; D]);
    let radius = eps * (1.0 + rho / 2.0);
    let mut out = Vec::with_capacity(n_blob + n_shell);
    out.extend((0..n_blob).map(|_| uniform_in_ball(&center, eps * rho / 8.0, &mut rng)));
    out.extend((0..n_shell).map(|_| {
        let dir = unit_vector::<D>(&mut rng);
        Point(std::array::from_fn(|i| center[i] + dir[i] * radius))
    }));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_blob_shell_pair_lies_in_the_slack_band() {
        let (eps, rho) = (1.0, 0.001);
        let pts = blob_and_shell::<3>(50, 200, eps, rho, 7);
        assert_eq!(pts.len(), 250);
        for a in &pts[..50] {
            for b in &pts[50..] {
                let d = a.dist(b);
                assert!(d > eps && d <= eps * (1.0 + rho), "distance {d}");
            }
        }
        assert_eq!(pts, blob_and_shell::<3>(50, 200, eps, rho, 7));
    }
}
