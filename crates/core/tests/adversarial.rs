//! Adversarial-input corpus: every algorithm, run through `cluster`, must
//! return a clean `Ok` or a typed `DbscanError` — never panic — on inputs
//! chosen to stress the failure layer.

use dbscan_core::algorithms::{
    cluster, Algorithm, ApproxOracle, BcpStrategy, Cit08Config, Kdd96Index, Spec,
};
use dbscan_core::{Clustering, DbscanError, DbscanParams, NoStats, ResourceLimits, RunCtl};
use dbscan_geom::point::p2;
use dbscan_geom::Point;

fn params(eps: f64, min_pts: usize) -> DbscanParams {
    DbscanParams::new(eps, min_pts).unwrap()
}

const EXACT: Algorithm = Algorithm::Exact(BcpStrategy::TreeAssisted);

fn approx(rho: f64) -> Algorithm {
    Algorithm::Approx {
        rho,
        oracle: ApproxOracle::ProbeFirst,
    }
}

/// A [`cluster`] run of `algorithm` on a `threads`-worker pool under `limits`.
fn run(
    pts: &[Point<2>],
    algorithm: Algorithm,
    p: DbscanParams,
    threads: usize,
    limits: ResourceLimits,
) -> Result<Clustering, DbscanError> {
    let mut spec = Spec::new(algorithm, p);
    spec.exec.threads = Some(threads);
    spec.exec.limits = limits;
    cluster(pts, None, &spec, &NoStats, &RunCtl::unlimited())
}

/// The grid algorithms, sequential and on four workers.
fn grid_runs(
    pts: &[Point<2>],
    p: DbscanParams,
) -> Vec<(&'static str, Result<Clustering, DbscanError>)> {
    let run = |a, threads| run(pts, a, p, threads, ResourceLimits::UNLIMITED);
    vec![
        ("gunawan_2d", run(Algorithm::Gunawan2d, 1)),
        ("grid_exact", run(EXACT, 1)),
        ("rho_approx", run(approx(0.001), 1)),
        ("cit08", run(Algorithm::Cit08(Cit08Config::default()), 1)),
        ("grid_exact_par", run(EXACT, 4)),
        ("rho_approx_par", run(approx(0.001), 4)),
    ]
}

/// KDD'96 over each of its indexes.
fn kdd96_runs(
    pts: &[Point<2>],
    p: DbscanParams,
) -> Vec<(&'static str, Result<Clustering, DbscanError>)> {
    let run = |index| {
        run(
            pts,
            Algorithm::Kdd96(index),
            p,
            1,
            ResourceLimits::UNLIMITED,
        )
    };
    vec![
        ("kdd96_linear", run(Kdd96Index::Linear)),
        ("kdd96_kdtree", run(Kdd96Index::KdTree)),
        ("kdd96_rtree", run(Kdd96Index::RTree)),
    ]
}

/// Runs every algorithm (the five sequential algorithms plus the two
/// parallel grid runs) on one input and hands each result to `check`.
fn run_all(
    pts: &[Point<2>],
    p: DbscanParams,
    check: impl Fn(&'static str, Result<Clustering, DbscanError>),
) {
    for (name, r) in kdd96_runs(pts, p).into_iter().chain(grid_runs(pts, p)) {
        check(name, r);
    }
}

#[test]
fn all_duplicate_points_cluster_cleanly() {
    // Footnote 1's adversarial instance: n identical points. Everything is
    // within eps of everything; one cluster, no noise, no panic.
    let pts = vec![p2(3.25, -1.5); 500];
    run_all(&pts, params(1.0, 10), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 1, "{name}");
        assert_eq!(c.core_count(), 500, "{name}");
    });
}

#[test]
fn coordinates_near_f64_max_give_typed_errors_not_wraps() {
    // |q| = 1e308 / (eps/sqrt(2)) overflows any i64 cell grid. The grid-based
    // algorithms must say so with CoordinateOverflow; KDD'96 has no grid and
    // must simply cluster the two far-apart points as noise.
    let pts = vec![p2(1e308, 0.0), p2(-1e308, 0.0), p2(0.0, 0.0)];
    let p = params(1.0, 2);
    for (name, r) in grid_runs(&pts, p) {
        match r {
            Err(DbscanError::CoordinateOverflow { value, .. }) => {
                assert_eq!(value.abs(), 1e308, "{name}")
            }
            other => panic!("{name}: expected CoordinateOverflow, got {other:?}"),
        }
    }
    for (name, r) in kdd96_runs(&pts, p) {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 0, "{name}");
        assert_eq!(c.noise_count(), 3, "{name}");
    }
}

#[test]
fn min_pts_larger_than_n_means_all_noise() {
    let pts: Vec<Point<2>> = (0..20).map(|i| p2(i as f64 * 0.1, 0.0)).collect();
    run_all(&pts, params(1.0, 100), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 0, "{name}");
        assert_eq!(c.noise_count(), 20, "{name}");
    });
}

#[test]
fn single_point_dataset() {
    let pts = vec![p2(0.0, 0.0)];
    run_all(&pts, params(1.0, 1), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 1, "{name}");
        assert_eq!(c.core_count(), 1, "{name}");
    });
}

#[test]
fn empty_dataset() {
    run_all(&[], params(1.0, 2), |name, r| {
        let c = r.unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(c.num_clusters, 0, "{name}");
        assert!(c.assignments.is_empty(), "{name}");
    });
}

#[test]
fn nan_coordinate_reports_offending_point() {
    let pts = vec![p2(0.0, 0.0), p2(1.0, f64::NAN), p2(2.0, 0.0)];
    run_all(&pts, params(1.0, 2), |name, r| match r {
        Err(DbscanError::NonFinitePoint { index }) => assert_eq!(index, 1, "{name}"),
        other => panic!("{name}: expected NonFinitePoint, got {other:?}"),
    });
}

#[test]
fn invalid_rho_values_are_typed_errors() {
    let pts = vec![p2(0.0, 0.0), p2(0.5, 0.0)];
    let p = params(1.0, 1);
    for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, 1e-12] {
        for (name, threads) in [("rho_approx", 1), ("rho_approx_par", 4)] {
            let r = run(&pts, approx(bad), p, threads, ResourceLimits::UNLIMITED);
            match r {
                Err(DbscanError::InvalidRho { rho, .. }) => {
                    assert!(
                        rho.is_nan() == bad.is_nan() && (rho.is_nan() || rho == bad),
                        "{name}"
                    )
                }
                other => panic!("{name} rho={bad}: expected InvalidRho, got {other:?}"),
            }
        }
    }
    // eps * (1 + rho) overflowing f64 is also rejected up front.
    assert!(matches!(
        run(
            &pts,
            approx(1e10),
            params(1e300, 1),
            1,
            ResourceLimits::UNLIMITED
        ),
        Err(DbscanError::InvalidRho { .. })
    ));
}

#[test]
fn tiny_byte_budget_is_refused_not_oom() {
    let pts: Vec<Point<2>> = (0..2_000)
        .map(|i| p2((i % 50) as f64 * 0.4, (i / 50) as f64 * 0.4))
        .collect();
    let p = params(1.0, 4);
    let limits = ResourceLimits::with_max_index_bytes(64);
    for (name, algorithm, threads) in [
        ("grid_exact", EXACT, 1),
        ("rho_approx", approx(0.001), 1),
        ("grid_exact_par", EXACT, 4),
    ] {
        let r = run(&pts, algorithm, p, threads, limits);
        match r {
            Err(DbscanError::ResourceLimit {
                estimated_bytes,
                budget_bytes,
                ..
            }) => {
                assert!(estimated_bytes > budget_bytes, "{name}");
                assert_eq!(budget_bytes, 64, "{name}");
            }
            other => panic!("{name}: expected ResourceLimit, got {other:?}"),
        }
    }
    // A generous budget admits the same run.
    let roomy = ResourceLimits::with_max_index_bytes(64 << 20);
    assert!(run(&pts, EXACT, p, 1, roomy).is_ok());
}
