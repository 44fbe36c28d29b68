//! Exact-equivalence properties of the blocked SoA distance kernels
//! (`dbscan_geom::kernels`) against the scalar `Point::dist_sq` loops they
//! replace. The kernels promise *bit-identical* results — same accumulation
//! order per candidate, blocking only across independent candidates — so
//! every assertion here is exact equality, never approximate: any drift is a
//! correctness bug in the hot path of the exact algorithm.
//!
//! Coverage axes: dimensions 2/3/5/7 (the paper's synthetic sweep extremes),
//! ragged tails (lengths straddling the 64-wide block boundary), duplicate
//! points, and adversarial ±1e308 coordinates whose squared differences
//! overflow to infinity identically on both paths.

use dbscan_geom::kernels::{
    any_within_block, bcp_block_pair, bcp_block_pair_budgeted, count_within_aos_capped,
    count_within_block, count_within_block_capped, dist_sq_one_to_block, SoaBlock,
};
use dbscan_geom::Point;
use proptest::prelude::*;

/// Coordinate pool mixing ordinary values, exact duplicates (small integer
/// grid), and the extremes of the f64 range.
fn arb_coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        8 => -50.0..50.0f64,
        4 => (-4i32..4).prop_map(|v| v as f64),
        1 => Just(1e308),
        1 => Just(-1e308),
        1 => Just(0.0),
    ]
}

fn arb_points<const D: usize>(max_n: usize) -> impl Strategy<Value = Vec<Point<D>>> {
    // 0..max_n points; sizes concentrate around the BLOCK=64 boundary so the
    // ragged last chunk and the multi-chunk paths are both exercised.
    prop_oneof![
        prop::collection::vec(prop::collection::vec(arb_coord(), D), 0..20),
        prop::collection::vec(prop::collection::vec(arb_coord(), D), 60..70),
        prop::collection::vec(prop::collection::vec(arb_coord(), D), 120..max_n),
    ]
    .prop_map(|rows| {
        rows.into_iter()
            .map(|row| {
                let mut c = [0.0; D];
                c.copy_from_slice(&row);
                Point(c)
            })
            .collect()
    })
}

fn block_data<const D: usize>(pts: &[Point<D>]) -> Vec<f64> {
    let ids: Vec<u32> = (0..pts.len() as u32).collect();
    SoaBlock::gather(pts, &ids)
}

/// Scalar oracle: the exact count the capped kernels must clamp to.
fn scalar_count<const D: usize>(q: &Point<D>, pts: &[Point<D>], eps_sq: f64) -> usize {
    pts.iter().filter(|p| p.dist_sq(q) <= eps_sq).count()
}

fn scalar_bcp<const D: usize>(a: &[Point<D>], b: &[Point<D>], eps_sq: f64) -> bool {
    a.iter().any(|p| b.iter().any(|r| p.dist_sq(r) <= eps_sq))
}

macro_rules! kernel_equivalence_in_d {
    ($d:literal, $dists:ident, $counts:ident, $bcp:ident) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// Every distance the block kernel writes is bit-identical to
            /// the scalar computation — including inf from ±1e308 overflow.
            #[test]
            fn $dists(
                pts in arb_points::<$d>(200),
                q in prop::collection::vec(arb_coord(), $d),
            ) {
                let mut qa = [0.0; $d];
                qa.copy_from_slice(&q);
                let q = Point(qa);
                let data = block_data(&pts);
                let block = SoaBlock::<$d>::from_contiguous(&data, pts.len());
                let mut out = vec![0.0; pts.len()];
                dist_sq_one_to_block(&q, &block, &mut out);
                for (j, p) in pts.iter().enumerate() {
                    prop_assert_eq!(
                        out[j].to_bits(),
                        p.dist_sq(&q).to_bits(),
                        "candidate {} in D={}", j, $d
                    );
                }
            }

            /// Counting kernels (full, capped, AoS) and the any-within
            /// predicate agree exactly with the scalar filter-count.
            #[test]
            fn $counts(
                pts in arb_points::<$d>(200),
                q in prop::collection::vec(arb_coord(), $d),
                eps in 0.0..200.0f64,
                cap in 0usize..70,
            ) {
                let mut qa = [0.0; $d];
                qa.copy_from_slice(&q);
                let q = Point(qa);
                let eps_sq = eps * eps;
                let data = block_data(&pts);
                let block = SoaBlock::<$d>::from_contiguous(&data, pts.len());
                let oracle = scalar_count(&q, &pts, eps_sq);
                prop_assert_eq!(count_within_block(&q, &block, eps_sq), oracle);
                prop_assert_eq!(any_within_block(&q, &block, eps_sq), oracle > 0);
                let (capped, examined) = count_within_block_capped(&q, &block, eps_sq, cap);
                prop_assert_eq!(capped.min(cap), oracle.min(cap));
                prop_assert!(examined <= pts.len());
                prop_assert_eq!(
                    count_within_aos_capped(&q, &pts, eps_sq, cap).min(cap),
                    oracle.min(cap)
                );
            }

            /// The blocked BCP predicate — and its budgeted probe whenever it
            /// decides — matches the scalar double loop in both argument
            /// orders.
            #[test]
            fn $bcp(
                a in arb_points::<$d>(150),
                b in arb_points::<$d>(150),
                eps in 0.0..200.0f64,
                budget in 0usize..20_000,
            ) {
                let eps_sq = eps * eps;
                let da = block_data(&a);
                let db = block_data(&b);
                let ba = SoaBlock::<$d>::from_contiguous(&da, a.len());
                let bb = SoaBlock::<$d>::from_contiguous(&db, b.len());
                let oracle = scalar_bcp(&a, &b, eps_sq);
                prop_assert_eq!(bcp_block_pair(&ba, &bb, eps_sq), oracle);
                prop_assert_eq!(bcp_block_pair(&bb, &ba, eps_sq), oracle);
                // An unlimited budget always decides, and decides right.
                prop_assert_eq!(
                    bcp_block_pair_budgeted(&ba, &bb, eps_sq, usize::MAX),
                    Some(oracle)
                );
                // A finite budget may abstain (None) but must never decide
                // differently from the oracle.
                if let Some(hit) = bcp_block_pair_budgeted(&ba, &bb, eps_sq, budget) {
                    prop_assert_eq!(hit, oracle);
                }
            }
        }
    };
}

kernel_equivalence_in_d!(
    2,
    dists_match_scalar_2d,
    counts_match_scalar_2d,
    bcp_matches_scalar_2d
);
kernel_equivalence_in_d!(
    3,
    dists_match_scalar_3d,
    counts_match_scalar_3d,
    bcp_matches_scalar_3d
);
kernel_equivalence_in_d!(
    5,
    dists_match_scalar_5d,
    counts_match_scalar_5d,
    bcp_matches_scalar_5d
);
kernel_equivalence_in_d!(
    7,
    dists_match_scalar_7d,
    counts_match_scalar_7d,
    bcp_matches_scalar_7d
);
