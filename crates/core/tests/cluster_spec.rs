//! The prebuilt-cells path of `cluster` and the specs it refuses.
//!
//! A grid algorithm handed `Some(&cells)` must land on the clustering of the
//! fresh run, whatever its edge oracle and pool size. Cells that cannot serve
//! the run — built over another point count or under other params, or passed
//! to an algorithm without a grid — are refused with a typed error, and so is
//! Gunawan's 2D algorithm on 3-dimensional points.

use dbscan_core::algorithms::{
    cluster, Algorithm, ApproxOracle, BcpStrategy, Cit08Config, Kdd96Index, Spec,
};
use dbscan_core::{Clustering, CoreCells, DbscanError, DbscanParams, NoStats, RunCtl};
use dbscan_geom::Point;

const RHO: f64 = 0.001;

fn params() -> DbscanParams {
    DbscanParams::new(1.0, 10).unwrap()
}

/// A blob of 20 points and a shell of 2,000 points at radius 1 + ρ/2 around
/// it (the shell on a Fibonacci sphere), plus a second, separate copy of the
/// shell alone. Every blob–shell pair lies in (ε, ε(1+ρ)] at ε = 1 and is
/// under the brute-force limit, so the exact oracle and the probe-first
/// oracle keep the blob apart, while the counter-only oracle may join it.
fn blob_and_shell() -> Vec<Point<3>> {
    let mut pts: Vec<Point<3>> = (0..20)
        .map(|i| {
            let d = RHO / 16.0;
            Point([
                (i % 3) as f64 * d,
                (i / 3 % 3) as f64 * d,
                (i / 9) as f64 * d,
            ])
        })
        .collect();
    let n = 2_000;
    let golden = std::f64::consts::PI * (3.0 - 5f64.sqrt());
    let r = 1.0 + RHO / 2.0;
    for copy in [0.0, 10.0] {
        pts.extend((0..n).map(|i| {
            let z = 1.0 - 2.0 * (i as f64 + 0.5) / n as f64;
            let (s, phi) = ((1.0 - z * z).sqrt(), i as f64 * golden);
            Point([copy + r * s * phi.cos(), r * s * phi.sin(), r * z])
        }));
    }
    pts
}

fn run(
    pts: &[Point<3>],
    cells: Option<&CoreCells<3>>,
    algorithm: Algorithm,
    threads: usize,
) -> Result<Clustering, DbscanError> {
    let mut spec = Spec::new(algorithm, params());
    spec.exec.threads = Some(threads);
    cluster(pts, cells, &spec, &NoStats, &RunCtl::unlimited())
}

fn approx(oracle: ApproxOracle) -> Algorithm {
    Algorithm::Approx { rho: RHO, oracle }
}

#[test]
fn prebuilt_cells_give_the_fresh_clustering() {
    let pts = blob_and_shell();
    let cells = CoreCells::build(&pts, params());
    let exact = Algorithm::Exact(BcpStrategy::TreeAssisted);
    for algorithm in [
        exact,
        approx(ApproxOracle::ProbeFirst),
        approx(ApproxOracle::CounterOnly),
    ] {
        for threads in [1, 2] {
            let fresh = run(&pts, None, algorithm, threads).unwrap();
            let reused = run(&pts, Some(&cells), algorithm, threads).unwrap();
            assert_eq!(
                reused.assignments, fresh.assignments,
                "{algorithm:?} threads={threads}"
            );
        }
    }
    // The instance tells the oracles apart, so a prebuilt-cells run that
    // lost its oracle could not pass the comparison above.
    let probe_first = run(&pts, None, approx(ApproxOracle::ProbeFirst), 1).unwrap();
    let counter_only = run(&pts, None, approx(ApproxOracle::CounterOnly), 1).unwrap();
    assert_ne!(probe_first.num_clusters, counter_only.num_clusters);
}

#[test]
fn cells_over_a_different_point_count_are_refused() {
    let pts = blob_and_shell();
    let cells = CoreCells::build(&pts[..pts.len() - 1], params());
    for algorithm in [
        Algorithm::Exact(BcpStrategy::TreeAssisted),
        approx(ApproxOracle::ProbeFirst),
    ] {
        match run(&pts, Some(&cells), algorithm, 1) {
            Err(DbscanError::IndexSizeMismatch {
                index_len,
                points_len,
            }) => assert_eq!((index_len + 1, points_len), (pts.len(), pts.len())),
            other => panic!("{algorithm:?}: expected IndexSizeMismatch, got {other:?}"),
        }
    }
}

#[test]
fn cells_under_other_params_are_refused() {
    let pts = blob_and_shell();
    for other in [
        DbscanParams::new(1.5, 10).unwrap(),
        DbscanParams::new(1.0, 11).unwrap(),
    ] {
        let cells = CoreCells::build(&pts, other);
        let got = run(&pts, Some(&cells), approx(ApproxOracle::ProbeFirst), 2);
        assert!(
            matches!(got, Err(DbscanError::SpecMismatch { .. })),
            "{other:?}: {got:?}"
        );
    }
}

#[test]
fn cells_passed_to_kdd96_or_cit08_are_refused() {
    let pts = blob_and_shell();
    let cells = CoreCells::build(&pts, params());
    for algorithm in [
        Algorithm::Kdd96(Kdd96Index::KdTree),
        Algorithm::Kdd96(Kdd96Index::RTree),
        Algorithm::Kdd96(Kdd96Index::Linear),
        Algorithm::Cit08(Cit08Config::default()),
    ] {
        let got = run(&pts, Some(&cells), algorithm, 1);
        assert!(
            matches!(got, Err(DbscanError::SpecMismatch { .. })),
            "{algorithm:?}: {got:?}"
        );
    }
}

#[test]
fn gunawan_on_3d_points_is_refused() {
    let pts = blob_and_shell();
    match run(&pts, None, Algorithm::Gunawan2d, 1) {
        Err(DbscanError::SpecMismatch { reason }) => {
            assert_eq!(reason, "'gunawan2d' requires 2D input, got 3D")
        }
        other => panic!("expected SpecMismatch, got {other:?}"),
    }
}
