//! Empirical verification of Theorem 3 (the sandwich quality guarantee) across
//! datasets, radii, and approximation ratios: the ρ-approximate result always
//! sits between exact DBSCAN at ε and at ε(1+ρ), under both edge oracles.

use dbscan_revisited::core::algorithms::{cluster, grid_exact, Algorithm, ApproxOracle, Spec};
use dbscan_revisited::core::{DbscanParams, NoStats, RunCtl};
use dbscan_revisited::datagen::{seed_spreader, SpreaderConfig};
use dbscan_revisited::eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_revisited::geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn assert_sandwich<const D: usize>(pts: &[Point<D>], eps: f64, min_pts: usize, rho: f64) {
    let params = DbscanParams::new(eps, min_pts).unwrap();
    let inner = grid_exact(pts, params);
    let outer = grid_exact(pts, params.inflate(rho));
    for oracle in [ApproxOracle::ProbeFirst, ApproxOracle::CounterOnly] {
        let spec = Spec::new(Algorithm::Approx { rho, oracle }, params);
        let approx = cluster(pts, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap();
        let outcome = check_sandwich(&inner, &approx, &outer);
        assert_eq!(
            outcome,
            SandwichOutcome::Holds,
            "sandwich violated at eps={eps}, MinPts={min_pts}, rho={rho}, {oracle:?}: {outcome:?}"
        );
    }
}

#[test]
fn sandwich_on_uniform_random_data() {
    // Uniform data maximizes boundary effects: many pairs near distance ε.
    for seed in 0..6u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let pts: Vec<Point<3>> = (0..800)
            .map(|_| {
                Point([
                    rng.gen::<f64>() * 30.0,
                    rng.gen::<f64>() * 30.0,
                    rng.gen::<f64>() * 30.0,
                ])
            })
            .collect();
        for rho in [0.001, 0.05, 0.3, 1.0] {
            assert_sandwich(&pts, 1.5, 4, rho);
            assert_sandwich(&pts, 3.0, 10, rho);
        }
    }
}

#[test]
fn sandwich_on_spreader_data_all_dims() {
    let cfg2 = SpreaderConfig::paper_defaults(2_000, 2);
    let pts2 = seed_spreader::<2>(&cfg2, &mut StdRng::seed_from_u64(1));
    let cfg5 = SpreaderConfig::paper_defaults(2_000, 5);
    let pts5 = seed_spreader::<5>(&cfg5, &mut StdRng::seed_from_u64(2));
    let cfg7 = SpreaderConfig::paper_defaults(1_500, 7);
    let pts7 = seed_spreader::<7>(&cfg7, &mut StdRng::seed_from_u64(3));
    for rho in [0.001, 0.01, 0.1] {
        assert_sandwich(&pts2, 5_000.0, 10, rho);
        assert_sandwich(&pts5, 5_000.0, 10, rho);
        assert_sandwich(&pts7, 5_000.0, 10, rho);
    }
}

#[test]
fn sandwich_at_pathological_radii() {
    // A lattice with spacing exactly matching eps multiples: every distance
    // comparison is a tie somewhere.
    let mut pts: Vec<Point<2>> = Vec::new();
    for x in 0..15 {
        for y in 0..15 {
            pts.push(Point([x as f64, y as f64]));
        }
    }
    for eps in [1.0, 2f64.sqrt(), 2.0] {
        for rho in [0.001, 0.25] {
            assert_sandwich(&pts, eps, 4, rho);
        }
    }
}
