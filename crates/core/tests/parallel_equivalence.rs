//! Sequential/parallel equivalence on adversarially skewed inputs, and a
//! stress test of the lock-free concurrent union-find against the sequential
//! DSU.
//!
//! The skew shape targets the scheduler: one dense cell holding most of the
//! points (one enormous edge-test/labeling task) plus a uniform background
//! (many tiny tasks). Static chunking degenerates on it; the work-stealing
//! queue must still produce bit-identical clusterings at every thread count.

use dbscan_core::algorithms::{
    cluster, grid_exact, rho_approx, Algorithm, ApproxOracle, BcpStrategy, Spec,
};
use dbscan_core::unionfind::{ConcurrentUnionFind, UnionFind};
use dbscan_core::{Clustering, DbscanParams, NoStats, RunCtl};
use dbscan_geom::Point;
use proptest::prelude::*;

fn params(eps: f64, min_pts: usize) -> DbscanParams {
    DbscanParams::new(eps, min_pts).unwrap()
}

/// A [`cluster`] run of `algorithm` on a `threads`-worker pool.
fn run_par(pts: &[Point<2>], algorithm: Algorithm, p: DbscanParams, threads: usize) -> Clustering {
    let mut spec = Spec::new(algorithm, p);
    spec.exec.threads = Some(threads);
    cluster(pts, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap()
}

/// One dense cell plus uniform background: `dense` points packed into a box
/// smaller than one grid cell (side ε/√2 at ε = 0.7), `bg` points spread over
/// `span`.
fn arb_skewed(span: f64) -> impl Strategy<Value = Vec<Point<2>>> {
    (
        prop::collection::vec((0.0..0.45f64, 0.0..0.45f64), 64..256),
        prop::collection::vec((0.0..span, 0.0..span), 1..200),
    )
        .prop_map(|(dense, bg)| {
            dense
                .into_iter()
                .chain(bg)
                .map(|(x, y)| Point([x, y]))
                .collect()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn skewed_exact_parallel_matches_sequential(
        pts in arb_skewed(12.0),
        min_pts in 2usize..8,
    ) {
        let p = params(0.7, min_pts);
        let seq = grid_exact(&pts, p);
        for threads in [1usize, 2, 4, 8] {
            let par = run_par(&pts, Algorithm::Exact(BcpStrategy::TreeAssisted), p, threads);
            prop_assert_eq!(&par.assignments, &seq.assignments, "threads={}", threads);
            prop_assert_eq!(par.num_clusters, seq.num_clusters);
        }
    }

    #[test]
    fn skewed_approx_parallel_matches_sequential(
        pts in arb_skewed(12.0),
        min_pts in 2usize..8,
    ) {
        let p = params(0.7, min_pts);
        for rho in [0.001, 0.05] {
            let seq = rho_approx(&pts, p, rho);
            let oracle = ApproxOracle::ProbeFirst;
            let par = run_par(&pts, Algorithm::Approx { rho, oracle }, p, 4);
            prop_assert_eq!(&par.assignments, &seq.assignments, "rho={}", rho);
        }
    }

    /// N threads racing random unions through [`ConcurrentUnionFind`] must
    /// produce the exact partition the sequential DSU produces from the same
    /// edge list. Compared through `compact_labels`, which is
    /// forest-shape-independent (ids by first appearance over elements).
    #[test]
    fn concurrent_unions_match_sequential_dsu(
        n in 2u32..400,
        edges in prop::collection::vec((0u32..400, 0u32..400), 0..600),
    ) {
        let edges: Vec<(u32, u32)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();

        let mut seq = UnionFind::new(n as usize);
        for &(a, b) in &edges {
            seq.union(a, b);
        }

        let cuf = ConcurrentUnionFind::new(n as usize);
        let threads = 4;
        std::thread::scope(|s| {
            for w in 0..threads {
                let cuf = &cuf;
                let edges = &edges;
                s.spawn(move || {
                    let mut retries = 0u64;
                    for &(a, b) in edges.iter().skip(w).step_by(threads) {
                        cuf.union(a, b, &mut retries);
                    }
                });
            }
        });
        let mut par = UnionFind::from_parents(cuf.into_parents());

        prop_assert_eq!(par.num_components(), seq.num_components());
        prop_assert_eq!(par.compact_labels(), seq.compact_labels());
    }
}
