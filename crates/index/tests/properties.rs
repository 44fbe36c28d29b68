//! Property-based tests for the spatial indexes in dimensions 3 and 7 (the
//! extremes of the paper's synthetic sweep).

use dbscan_geom::Point;
use dbscan_index::{ApproxRangeCounter, GridIndex, KdTree, LinearScan, RTree, RangeIndex};
use proptest::prelude::*;

fn arb_points<const D: usize>(max_n: usize, span: f64) -> impl Strategy<Value = Vec<Point<D>>> {
    prop::collection::vec(prop::collection::vec(-span..span, D), 1..max_n).prop_map(|rows| {
        rows.into_iter()
            .map(|row| {
                let mut c = [0.0; D];
                c.copy_from_slice(&row);
                Point(c)
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn trees_match_linear_in_7d(
        pts in arb_points::<7>(100, 8.0),
        q in prop::collection::vec(-9.0..9.0f64, 7),
        r in 0.0..10.0f64,
    ) {
        let mut qa = [0.0; 7];
        qa.copy_from_slice(&q);
        let q = Point(qa);
        let lin = LinearScan::new(&pts);
        let kd = KdTree::build(&pts);
        let rt = RTree::build(&pts);
        let mut expect = Vec::new();
        lin.range_query(&q, r, &mut expect);
        expect.sort_unstable();
        let mut got_kd = Vec::new();
        kd.range_query(&q, r, &mut got_kd);
        got_kd.sort_unstable();
        let mut got_rt = Vec::new();
        rt.range_query(&q, r, &mut got_rt);
        got_rt.sort_unstable();
        prop_assert_eq!(&got_kd, &expect);
        prop_assert_eq!(&got_rt, &expect);
    }

    #[test]
    fn knn_is_prefix_monotone(
        pts in arb_points::<3>(80, 10.0),
        q in prop::collection::vec(-11.0..11.0f64, 3),
    ) {
        let mut qa = [0.0; 3];
        qa.copy_from_slice(&q);
        let q = Point(qa);
        let kd = KdTree::build(&pts);
        let k5 = kd.k_nearest(&q, 5);
        let k10 = kd.k_nearest(&q, 10);
        // k5 distances are a prefix of k10 distances.
        let d5: Vec<f64> = k5.iter().map(|&(_, d)| d).collect();
        let d10: Vec<f64> = k10.iter().map(|&(_, d)| d).collect();
        prop_assert_eq!(&d10[..d5.len()], &d5[..]);
        // Distances are sorted.
        prop_assert!(d10.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn grid_count_matches_brute_force_3d(
        pts in arb_points::<3>(120, 10.0),
        eps in 0.2..6.0f64,
    ) {
        let g = GridIndex::build(&pts, eps);
        for q in 0..pts.len().min(20) as u32 {
            let brute = pts
                .iter()
                .filter(|p| p.dist_sq(&pts[q as usize]) <= eps * eps)
                .count();
            prop_assert_eq!(g.count_within_eps(&pts, q, usize::MAX).count, brute);
        }
    }

    #[test]
    fn counter_bounds_hold_in_7d(
        pts in arb_points::<7>(100, 6.0),
        eps in 0.5..5.0f64,
        rho in 0.01..0.9f64,
    ) {
        let c = ApproxRangeCounter::build(&pts, eps, rho);
        for q in pts.iter().take(15) {
            let lo = pts.iter().filter(|p| p.dist_sq(q) <= eps * eps).count();
            let outer = eps * (1.0 + rho);
            let hi = pts.iter().filter(|p| p.dist_sq(q) <= outer * outer).count();
            let ans = c.query(q);
            prop_assert!(lo <= ans && ans <= hi, "{lo} <= {ans} <= {hi}");
        }
        prop_assert_eq!(c.num_points(), pts.len());
    }

    #[test]
    fn count_within_cap_is_min_of_true_count(
        pts in arb_points::<3>(100, 8.0),
        r in 0.1..8.0f64,
        cap in 0usize..12,
    ) {
        let kd = KdTree::build(&pts);
        let q = pts[0];
        let full = kd.count_within(&q, r, usize::MAX);
        prop_assert_eq!(kd.count_within(&q, r, cap), full.min(cap));
    }
}
