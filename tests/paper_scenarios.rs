//! Reconstructions of the worked examples in the paper's figures, as
//! executable tests.

use dbscan_revisited::core::algorithms::{grid_exact, gunawan_2d, rho_approx};
use dbscan_revisited::core::parallel::try_grid_exact_par;
use dbscan_revisited::core::{Assignment, DbscanParams, ParConfig};
use dbscan_revisited::eval::same_clustering;
use dbscan_revisited::geom::point::p2;
use dbscan_revisited::geom::Point;

/// Figure 2 topology: two clusters C1 (o1..o10) and C2 (o10..o17) sharing the
/// border point o10, plus noise o18, at MinPts = 4.
///
/// Coordinates are a faithful re-creation of the figure's structure: a dense
/// left group, a dense right group, a bridge point within ε of a core point on
/// each side but with fewer than 4 points in its own ball, and one outlier.
#[test]
fn figure2_two_clusters_shared_border_and_noise() {
    let eps = 1.4;
    let pts = vec![
        // left cluster cores (o1..o4-ish)
        p2(0.0, 0.0),
        p2(-0.5, 0.0),
        p2(-0.2, 0.5),
        p2(-0.3, -0.4),
        // right cluster cores (o11..o14-ish)
        p2(2.6, 0.0),
        p2(3.1, 0.0),
        p2(2.8, 0.5),
        p2(2.9, -0.4),
        // o10: the shared border point
        p2(1.3, 0.0),
        // o18: noise
        p2(10.0, 10.0),
    ];
    let params = DbscanParams::new(eps, 4).unwrap();
    let c = grid_exact(&pts, params);
    c.validate().unwrap();

    assert_eq!(
        c.num_clusters, 2,
        "the problem's unique output has 2 clusters"
    );
    // o10 belongs to BOTH clusters (the paper: "the clusters in C are not
    // necessarily disjoint ... o10 belongs to both C1 and C2").
    assert_eq!(
        c.assignments[8],
        Assignment::Border(vec![0, 1]),
        "o10 must be a border point of both clusters"
    );
    // A core point always belongs to a unique cluster (Lemma 2 of [10]).
    for i in 0..8 {
        assert!(c.assignments[i].is_core());
        assert_eq!(c.assignments[i].clusters().len(), 1);
    }
    assert!(c.assignments[9].is_noise(), "o18 is noise");

    // Every other algorithm agrees on this example.
    assert!(same_clustering(&c, &gunawan_2d(&pts, params)));
    let par = try_grid_exact_par(&pts, params, &ParConfig::with_threads(Some(3))).unwrap();
    assert!(same_clustering(&c, &par));
}

/// Figure 5: o5 is ρ-approximate density-reachable from o3 but not
/// density-reachable. Definition 5 permits (but does not require) o5's cluster
/// membership — both {o1..o4} and {o1..o5} are legal ρ-approximate clusters.
/// The sandwich bounds are what any implementation must satisfy.
#[test]
fn figure5_approximate_reachability_is_sandwiched() {
    // o1,o2,o3 chained at 0.9; o4 near o1; o5 at 1.3 from o1 — between ε = 1
    // and ε(1+ρ) = 1.5 for ρ = 0.5. To make o5's membership hinge on the
    // *edge* rule (not border assignment), o5 must itself be core: give it a
    // companion group.
    let eps = 1.0;
    let rho = 0.5;
    let pts = vec![
        p2(0.0, 0.0),  // o1
        p2(0.9, 0.0),  // o2
        p2(1.8, 0.0),  // o3
        p2(0.0, 0.9),  // o4
        p2(-1.3, 0.0), // o5
        p2(-2.2, 0.0), // companions making o5 core
        p2(-1.3, -0.9),
    ];
    let params = DbscanParams::new(eps, 3).unwrap();

    let inner = grid_exact(&pts, params); // exact at ε: two clusters
    assert_eq!(inner.num_clusters, 2);
    let outer = grid_exact(&pts, params.inflate(rho)); // exact at 1.5: one
    assert_eq!(outer.num_clusters, 1);

    let approx = rho_approx(&pts, params, rho);
    // Legal results have 1 or 2 clusters; nothing else.
    assert!(
        approx.num_clusters == 1 || approx.num_clusters == 2,
        "approx returned {} clusters",
        approx.num_clusters
    );
    // And the theorem's statements hold.
    use dbscan_revisited::eval::sandwich::{check_sandwich, SandwichOutcome};
    assert_eq!(
        check_sandwich(&inner, &approx, &outer),
        SandwichOutcome::Holds
    );
}

/// Figure 6's stability story: with two clusters at boundary distance ~g,
/// ε values away from g are robust to approximation (same output for any
/// ρ ≤ 0.1), while ε within a factor (1+ρ) of g is the only regime where a
/// ρ-approximate result may differ.
#[test]
fn figure6_only_unstable_eps_can_differ() {
    // Two vertical chains, boundary gap exactly 2.0 between nearest points.
    let mut pts: Vec<Point<2>> = (0..12).map(|i| p2(0.0, i as f64 * 0.4)).collect();
    pts.extend((0..12).map(|i| p2(2.0, i as f64 * 0.4)));
    let min_pts = 3;

    for eps in [0.5, 1.0, 1.5, 1.81] {
        // eps(1.1) < 2.0 for all of these: approximation cannot merge.
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let exact = grid_exact(&pts, params);
        for rho in [0.001, 0.01, 0.1] {
            let approx = rho_approx(&pts, params, rho);
            assert!(
                same_clustering(&exact, &approx),
                "stable eps {eps} diverged at rho {rho}"
            );
        }
    }

    // Unstable eps: 1.9 with rho = 0.1 brackets the 2.0 gap. The approximate
    // result is permitted to merge, but must still satisfy the sandwich.
    let params = DbscanParams::new(1.9, min_pts).unwrap();
    let inner = grid_exact(&pts, params);
    let approx = rho_approx(&pts, params, 0.1);
    let outer = grid_exact(&pts, params.inflate(0.1));
    assert_eq!(inner.num_clusters, 2);
    assert_eq!(outer.num_clusters, 1);
    use dbscan_revisited::eval::sandwich::{check_sandwich, SandwichOutcome};
    assert_eq!(
        check_sandwich(&inner, &approx, &outer),
        SandwichOutcome::Holds
    );
}

/// Footnote 1: the adversarial instance where all points lie within ε of each
/// other. KDD'96 needs Θ(n²) work there; the grid algorithms stay fast and all
/// return the single correct cluster.
#[test]
fn footnote1_adversarial_instance() {
    let n = 20_000;
    let pts: Vec<Point<2>> = (0..n)
        .map(|i| p2((i % 100) as f64 * 1e-4, (i / 100) as f64 * 1e-4))
        .collect();
    let params = DbscanParams::new(1.0, 100).unwrap();
    let start = std::time::Instant::now();
    let c = grid_exact(&pts, params);
    let elapsed = start.elapsed();
    assert_eq!(c.num_clusters, 1);
    assert_eq!(c.core_count(), n);
    // Generous bound: the grid algorithm must stay far from quadratic blowup
    // (20k² distance pairs would take seconds; this runs in milliseconds).
    assert!(
        elapsed.as_secs_f64() < 5.0,
        "grid algorithm too slow on the dense instance: {elapsed:?}"
    );
}

/// MinPts = 1 (the reduction's setting): every point is core, clusters are the
/// connected components of the ε-distance graph, no noise and no borders.
#[test]
fn min_pts_one_components() {
    let pts = vec![
        p2(0.0, 0.0),
        p2(0.9, 0.0),
        p2(5.0, 5.0),
        p2(5.9, 5.0),
        p2(20.0, 20.0),
    ];
    let params = DbscanParams::new(1.0, 1).unwrap();
    let c = grid_exact(&pts, params);
    assert_eq!(c.num_clusters, 3);
    assert_eq!(c.core_count(), 5);
    assert_eq!(c.border_count(), 0);
    assert_eq!(c.noise_count(), 0);
}
