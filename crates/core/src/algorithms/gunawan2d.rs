//! Gunawan's 2D algorithm [11] (Section 2.2): the first genuinely
//! O(n log n)-time exact DBSCAN, valid only for d = 2.
//!
//! Identical skeleton to [`grid_exact`](crate::algorithms::grid_exact) — grid of
//! side `ε/√2`, core-cell graph, connected components — but the edge computation
//! follows \[11\]: for each ε-neighbor core-cell pair `(c₁, c₂)`, every core point
//! of `c₁` runs a nearest-neighbor query against the core points of `c₂`, adding
//! the edge as soon as some nearest distance is at most ε. Gunawan answers the
//! NN queries with a per-cell Voronoi diagram; we use a per-cell kd-tree, which
//! has the same O(log n) practical query bound in 2D (see DESIGN.md).

use super::{cluster, Algorithm, Spec};
use crate::cells::CoreCells;
use crate::deadline::RunCtl;
use crate::error::DbscanError;
use crate::parallel::{run_grid, ParConfig};
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::types::{Clustering, DbscanParams};
use dbscan_geom::Point;
use dbscan_index::KdTree;

/// Exact 2D DBSCAN following Gunawan \[11\]: a sequential [`cluster`] run
/// of [`Algorithm::Gunawan2d`]; panics where [`cluster`] returns an error.
pub fn gunawan_2d(points: &[Point<2>], params: DbscanParams) -> Clustering {
    let spec = Spec::new(Algorithm::Gunawan2d, params);
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// Gunawan's algorithm on the grid pipeline (see [`run_grid`]), building the
/// core cells unless `prebuilt` is given. The edge oracle is written for any
/// `D`; [`cluster`] admits only `D = 2`, the algorithm of \[11\].
///
/// The eager per-cell NN-structure builds are timed as
/// [`Phase::StructureBuild`]; every edge test is a tree-probe decision.
pub(crate) fn gunawan_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    prebuilt: Option<&CoreCells<D>>,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let eps = params.eps();
    run_grid(points, params, prebuilt, config, stats, ctl, |g| {
        let cc: &CoreCells<D> = g.cc;
        // One NN structure per core cell, built eagerly like the Voronoi
        // diagrams of \[11\] (each is built exactly once, over that cell's
        // core points). The eager build is not checkpointed: it is a bounded
        // O(n log n) pass, and under `degrade` some trees may simply go
        // unused.
        let trees: Vec<KdTree<D>> = stats.time(Phase::StructureBuild, || {
            (0..cc.num_core_cells())
                .map(|r| {
                    let ids = cc.core_points(r);
                    KdTree::build_entries(ids.iter().map(|&i| (points[i as usize], i)).collect())
                })
                .collect()
        });
        stats.add(Counter::KdTreeBuilds, trees.len() as u64);
        g.connect(|r1, r2| {
            stats.bump(Counter::TreeProbeDecisions);
            // Probe the smaller cell's core points against the larger cell's tree.
            let (probe, tree) = if cc.core_points(r1).len() <= cc.core_points(r2).len() {
                (cc.core_points(r1), &trees[r2])
            } else {
                (cc.core_points(r2), &trees[r1])
            };
            if S::ENABLED {
                let mut nodes = 0u64;
                let hit = probe.iter().any(|&p| {
                    tree.nearest_within_counted(&points[p as usize], eps, &mut nodes)
                        .is_some()
                });
                stats.add(Counter::IndexNodesVisited, nodes);
                hit
            } else {
                probe
                    .iter()
                    .any(|&p| tree.nearest_within_impl(&points[p as usize], eps).is_some())
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::grid_exact;
    use dbscan_geom::point::p2;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    fn lcg_points(n: usize, span: f64, seed: u64) -> Vec<Point<2>> {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * span
        };
        (0..n).map(|_| p2(next(), next())).collect()
    }

    #[test]
    fn empty_and_tiny_inputs() {
        assert_eq!(gunawan_2d(&[], params(1.0, 2)).num_clusters, 0);
        let one = gunawan_2d(&[p2(0.0, 0.0)], params(1.0, 1));
        assert_eq!(one.num_clusters, 1);
    }

    #[test]
    fn agrees_with_grid_exact_on_random_data() {
        for seed in [1u64, 2, 3] {
            let pts = lcg_points(500, 25.0, seed);
            for (eps, min_pts) in [(1.0, 4), (2.0, 10), (0.5, 2)] {
                let p = params(eps, min_pts);
                let a = gunawan_2d(&pts, p);
                let b = grid_exact(&pts, p);
                assert_eq!(a.num_clusters, b.num_clusters, "seed={seed} eps={eps}");
                assert_eq!(a.assignments, b.assignments, "seed={seed} eps={eps}");
                for threads in [1, 4] {
                    let mut spec = Spec::new(Algorithm::Gunawan2d, p);
                    spec.exec.threads = Some(threads);
                    let c = cluster(&pts, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap();
                    assert_eq!(
                        c.assignments, b.assignments,
                        "seed={seed} eps={eps} threads={threads}"
                    );
                }
            }
        }
    }

    #[test]
    fn snake_shaped_cluster() {
        // Density-based clustering's advantage: an arbitrary-shape cluster
        // (Figure 1). A sine-wave snake stays one cluster.
        let pts: Vec<Point<2>> = (0..200)
            .map(|i| {
                let t = i as f64 * 0.1;
                p2(t, (t * 0.7).sin() * 5.0)
            })
            .collect();
        let c = gunawan_2d(&pts, params(0.5, 3));
        assert_eq!(c.num_clusters, 1);
    }
}
