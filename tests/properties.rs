//! Property-based tests (proptest) over randomized inputs: index correctness,
//! the Lemma 5 counter guarantee, DBSCAN semantic invariants, cross-algorithm
//! agreement, and the sandwich theorem (under both ρ-approximate edge oracles).

use dbscan_revisited::core::algorithms::{
    cluster, grid_exact, kdd96_linear, Algorithm, ApproxOracle, Spec,
};
use dbscan_revisited::core::{Assignment, DbscanParams, NoStats, RunCtl};
use dbscan_revisited::eval::same_clustering;
use dbscan_revisited::eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_revisited::geom::Point;
use dbscan_revisited::index::{ApproxRangeCounter, KdTree, LinearScan, RTree, RangeIndex};
use proptest::prelude::*;

fn arb_points_2d(max_n: usize, span: f64) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec((0.0..span, 0.0..span), 1..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y)| Point([x, y])).collect())
}

fn arb_points_3d(max_n: usize, span: f64) -> impl Strategy<Value = Vec<Point<3>>> {
    prop::collection::vec((-span..span, -span..span, -span..span), 1..max_n)
        .prop_map(|v| v.into_iter().map(|(x, y, z)| Point([x, y, z])).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trees_match_linear_scan(
        pts in arb_points_3d(120, 10.0),
        q in (-12.0..12.0, -12.0..12.0, -12.0..12.0),
        r in 0.0..8.0,
    ) {
        let q = Point([q.0, q.1, q.2]);
        let lin = LinearScan::new(&pts);
        let kd = KdTree::build(&pts);
        let rt = RTree::build(&pts);
        let collect = |idx: &dyn Fn(&mut Vec<u32>)| {
            let mut out = Vec::new();
            idx(&mut out);
            out.sort_unstable();
            out
        };
        let expect = collect(&|o| lin.range_query(&q, r, o));
        prop_assert_eq!(collect(&|o| kd.range_query(&q, r, o)), expect.clone());
        prop_assert_eq!(collect(&|o| rt.range_query(&q, r, o)), expect.clone());
        // Count and nearest agree too.
        prop_assert_eq!(kd.count_within(&q, r, usize::MAX), expect.len());
        prop_assert_eq!(rt.count_within(&q, r, usize::MAX), expect.len());
        let nn_lin = lin.nearest_within(&q, r).map(|(_, d)| d);
        prop_assert_eq!(kd.nearest_within(&q, r).map(|(_, d)| d), nn_lin);
        prop_assert_eq!(rt.nearest_within(&q, r).map(|(_, d)| d), nn_lin);
    }

    #[test]
    fn counter_respects_lemma5_bounds(
        pts in arb_points_2d(150, 15.0),
        eps in 0.1..5.0f64,
        rho in 0.002..0.9f64,
    ) {
        let counter = ApproxRangeCounter::build(&pts, eps, rho);
        for q in pts.iter().step_by(7) {
            let lo = pts.iter().filter(|p| p.dist_sq(q) <= eps * eps).count();
            let outer = eps * (1.0 + rho);
            let hi = pts.iter().filter(|p| p.dist_sq(q) <= outer * outer).count();
            let ans = counter.query(q);
            prop_assert!(lo <= ans && ans <= hi, "{lo} <= {ans} <= {hi}");
            prop_assert_eq!(counter.query_positive(q), ans > 0);
        }
    }

    #[test]
    fn dbscan_semantic_invariants(
        pts in arb_points_2d(150, 12.0),
        eps in 0.2..4.0f64,
        min_pts in 1usize..8,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let c = grid_exact(&pts, params);
        prop_assert!(c.validate().is_ok());
        let eps_sq = eps * eps;
        let ball = |i: usize| pts.iter().filter(|p| p.dist_sq(&pts[i]) <= eps_sq).count();
        for (i, a) in c.assignments.iter().enumerate() {
            match a {
                Assignment::Core(_) => prop_assert!(ball(i) >= min_pts, "point {i} mislabeled core"),
                Assignment::Border(cs) => {
                    prop_assert!(ball(i) < min_pts, "point {i} should be core");
                    // There is a core point within eps in each listed cluster.
                    for &cl in cs {
                        let witness = c.assignments.iter().enumerate().any(|(j, b)| {
                            matches!(b, Assignment::Core(x) if *x == cl)
                                && pts[j].dist_sq(&pts[i]) <= eps_sq
                        });
                        prop_assert!(witness, "border {i} has no core witness in cluster {cl}");
                    }
                }
                Assignment::Noise => {
                    let near_core = c.assignments.iter().enumerate().any(|(j, b)| {
                        b.is_core() && pts[j].dist_sq(&pts[i]) <= eps_sq
                    });
                    prop_assert!(!near_core, "noise {i} is within eps of a core point");
                }
            }
        }
    }

    #[test]
    fn exact_algorithms_agree_on_arbitrary_inputs(
        pts in arb_points_2d(120, 10.0),
        eps in 0.2..4.0f64,
        min_pts in 1usize..6,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let a = grid_exact(&pts, params);
        let b = kdd96_linear(&pts, params);
        prop_assert!(same_clustering(&a, &b));
    }

    #[test]
    fn sandwich_theorem_on_arbitrary_inputs(
        pts in arb_points_2d(120, 10.0),
        eps in 0.2..3.0f64,
        min_pts in 1usize..6,
        rho in 0.002..0.8f64,
    ) {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        let inner = grid_exact(&pts, params);
        let outer = grid_exact(&pts, params.inflate(rho));
        for oracle in [ApproxOracle::ProbeFirst, ApproxOracle::CounterOnly] {
            let spec = Spec::new(Algorithm::Approx { rho, oracle }, params);
            let approx = cluster(&pts, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap();
            prop_assert_eq!(check_sandwich(&inner, &approx, &outer), SandwichOutcome::Holds);
        }
    }

    #[test]
    fn canonicalization_is_idempotent_and_permutation_invariant(
        pts in arb_points_2d(100, 10.0),
        eps in 0.3..3.0f64,
    ) {
        // Any clustering compares equal to itself, and shuffling which
        // algorithm produced it does not matter.
        let params = DbscanParams::new(eps, 2).unwrap();
        let c = grid_exact(&pts, params);
        prop_assert!(same_clustering(&c, &c));
    }
}
