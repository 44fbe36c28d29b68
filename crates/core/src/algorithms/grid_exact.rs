//! "OurExact" — the paper's exact algorithm for any fixed d ≥ 3 (Section 3.2,
//! Theorem 2), which also subsumes the 2D case.
//!
//! Grid of side `ε/√d`; vertices of `G` are core cells; an edge `(c₁, c₂)` exists
//! iff the bichromatic closest pair between the cells' core points is within ε.
//! Clusters are the connected components of `G` (Lemma 1); border points are
//! assigned afterwards.

use super::{cluster, Algorithm, Spec};
use crate::bcp;
use crate::cells::CoreCells;
use crate::deadline::RunCtl;
use crate::error::DbscanError;
use crate::parallel::{run_grid, Graph, ParConfig};
use crate::stats::{Counter, NoStats, StatsSink};
use crate::types::{Clustering, DbscanParams};
use crate::unionfind::UnionFind;
use dbscan_geom::Point;
use dbscan_index::KdTree;

/// Exact DBSCAN via grid + BCP (the paper's Theorem 2 algorithm): a
/// sequential [`cluster`] run of [`Algorithm::Exact`] with the default
/// [`BcpStrategy`]; panics where [`cluster`] returns an error.
///
/// The theoretical BCP routine of Agarwal et al. is replaced by an early-exit
/// predicate: the exact front end of [`crate::bcp`] (blocked scan, budgeted
/// probe, core-box tests) settles almost every cell pair, and the rest probe
/// a lazily built (and cached) kd-tree over the bigger cell's core points.
///
/// ```
/// use dbscan_core::{DbscanParams, algorithms::grid_exact};
/// use dbscan_geom::Point;
///
/// let pts = vec![
///     Point([0.0, 0.0]), Point([0.5, 0.0]), Point([0.0, 0.5]), // a cluster
///     Point([9.0, 9.0]),                                       // an outlier
/// ];
/// let c = grid_exact(&pts, DbscanParams::new(1.0, 3).unwrap());
/// assert_eq!(c.num_clusters, 1);
/// assert!(c.assignments[0].is_core());
/// assert!(c.assignments[3].is_noise());
/// ```
pub fn grid_exact<const D: usize>(points: &[Point<D>], params: DbscanParams) -> Clustering {
    let spec = Spec::new(Algorithm::Exact(BcpStrategy::TreeAssisted), params);
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// How the BCP edge predicate between two core cells is evaluated.
///
/// The ablation matters for interpreting the paper's Figure 11/12: its exact
/// algorithm's cost is dominated by the BCP computations, and the quality of
/// the BCP routine moves the exact/approximate crossover. See EXPERIMENTS.md.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum BcpStrategy {
    /// The exact front end of [`crate::bcp::front_end`] for every pair, and
    /// cached kd-tree probing for the large pairs it leaves open (this
    /// crate's substitute for Agarwal et al.'s BCP).
    #[default]
    TreeAssisted,
    /// Early-exit brute force for every pair — no trees, but the scan stops at
    /// the first pair within ε.
    BruteForceOnly,
    /// Compute the full bichromatic closest pair of every ε-neighbor core-cell
    /// pair (tree-assisted) and only then compare it against ε — Section 3.2
    /// runs a BCP algorithm as a black box, so there is no threshold early exit.
    FullBcp,
    /// Like [`BcpStrategy::FullBcp`] but with the quadratic pairwise scan as
    /// the BCP routine: the most pessimistic legitimate implementation, and
    /// the closest to the cost profile behind the paper's measured OurExact
    /// curves (see EXPERIMENTS.md).
    FullBruteBcp,
}

/// [`grid_exact`] with an explicit [`BcpStrategy`] and an observability sink
/// (see [`crate::stats`]). Every strategy returns the identical (unique)
/// clustering; only the running time differs.
///
/// Records per-phase wall times plus the edge-test decision counters: how many
/// candidate pairs went through early-exit brute force, tree probing (with
/// cache hits and lazy builds), or full BCP. With [`NoStats`] every recording
/// site compiles away and this is exactly the uninstrumented algorithm.
pub fn grid_exact_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    strategy: BcpStrategy,
    stats: &S,
) -> Clustering {
    let spec = Spec::new(Algorithm::Exact(strategy), params);
    cluster(points, None, &spec, stats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// The exact algorithm on the grid pipeline (see [`run_grid`]), building
/// the core cells unless `prebuilt` is given.
pub(crate) fn grid_exact_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    prebuilt: Option<&CoreCells<D>>,
    strategy: BcpStrategy,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    run_grid(points, params, prebuilt, config, stats, ctl, |g| {
        bcp_edges(g, strategy)
    })
}

/// The exact edge oracle: an edge `(c₁, c₂)` iff the bichromatic closest pair
/// of the cells' core points is within ε, decided per `strategy`. Under
/// [`BcpStrategy::BruteForceOnly`] every pair uses the early-exit blocked
/// scan; under [`BcpStrategy::TreeAssisted`] every pair goes through the
/// exact front end ([`Graph::settle`], shared with the ρ-approximate oracle)
/// and only a pair it leaves open pays for the tree route, which probes the
/// smaller side against a lazily built (and cached) kd-tree over the larger
/// side's core points (ties to the higher rank).
fn bcp_edges<const D: usize, S: StatsSink>(
    g: &Graph<'_, D, S>,
    strategy: BcpStrategy,
) -> Result<UnionFind, DbscanError> {
    let (points, cc, stats) = (g.points, g.cc, g.exec.stats);
    let eps = cc.params.eps();
    let trees = g.slots::<KdTree<D>>();
    let uf = g.connect(|r1, r2| {
        let (a, b) = (cc.core_points(r1), cc.core_points(r2));
        match strategy {
            BcpStrategy::FullBcp => {
                stats.bump(Counter::FullBcpDecisions);
                return bcp::closest_pair(points, a, b).is_some_and(|(_, _, d)| d <= eps * eps);
            }
            BcpStrategy::FullBruteBcp => {
                stats.bump(Counter::FullBcpDecisions);
                return bcp::closest_pair_brute(points, a, b)
                    .is_some_and(|(_, _, d)| d <= eps * eps);
            }
            BcpStrategy::TreeAssisted | BcpStrategy::BruteForceOnly => {}
        }
        if strategy == BcpStrategy::BruteForceOnly {
            stats.bump(Counter::BruteForceDecisions);
            stats.bump(Counter::BlockKernelCalls);
            return bcp::within_threshold_blocks(&cc.core_block(r1), &cc.core_block(r2), eps);
        }
        if let Some(hit) = g.settle(r1, r2) {
            return hit;
        }
        stats.bump(Counter::TreeProbeDecisions);
        let (probe, tree_rank) = if a.len() <= b.len() { (a, r2) } else { (b, r1) };
        let (tree, built) = g.lazy(&trees[tree_rank], || {
            let ids = cc.core_points(tree_rank);
            KdTree::build_entries(ids.iter().map(|&i| (points[i as usize], i)).collect())
        });
        stats.bump(if built {
            Counter::KdTreeBuilds
        } else {
            Counter::TreeCacheHits
        });
        if S::ENABLED {
            let mut nodes = 0u64;
            let hit = bcp::within_threshold_tree_counted(points, probe, tree, eps, &mut nodes);
            stats.add(Counter::IndexNodesVisited, nodes);
            hit
        } else {
            bcp::within_threshold_tree(points, probe, tree, eps)
        }
    })?;
    if S::ENABLED {
        // Core cells whose kd-tree was never needed: with the front end
        // this is the usual case, and it is the counterpart of the
        // shrinking structure_build phase.
        let unbuilt = trees.iter().filter(|t| t.get().is_none()).count();
        stats.add(Counter::BruteForceCells, unbuilt as u64);
    }
    Ok(uf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbscan_geom::point::{p2, p3};

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    #[test]
    fn empty_input() {
        let c = grid_exact::<2>(&[], params(1.0, 2));
        assert_eq!(c.num_clusters, 0);
        assert!(c.is_empty());
    }

    #[test]
    fn single_point_is_noise_unless_min_pts_one() {
        let pts = vec![p2(0.0, 0.0)];
        assert!(grid_exact(&pts, params(1.0, 2)).assignments[0].is_noise());
        let c = grid_exact(&pts, params(1.0, 1));
        assert!(c.assignments[0].is_core());
        assert_eq!(c.num_clusters, 1);
    }

    #[test]
    fn two_separated_blobs() {
        let mut pts = Vec::new();
        for i in 0..5 {
            pts.push(p2(i as f64 * 0.1, 0.0));
        }
        for i in 0..5 {
            pts.push(p2(100.0 + i as f64 * 0.1, 0.0));
        }
        let c = grid_exact(&pts, params(0.5, 3));
        c.validate().unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.noise_count(), 0);
        // Points in the same blob share a cluster; across blobs they differ.
        let l = c.flat_labels();
        assert_eq!(l[0], l[4]);
        assert_eq!(l[5], l[9]);
        assert_ne!(l[0], l[5]);
    }

    #[test]
    fn chain_spanning_many_cells_is_one_cluster() {
        // A long chain with gaps just under ε: the "chained effect" of Section 1.
        let pts: Vec<Point<2>> = (0..100).map(|i| p2(i as f64 * 0.95, 0.0)).collect();
        let c = grid_exact(&pts, params(1.0, 2));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.core_count(), 100);
    }

    #[test]
    fn chain_with_one_gap_splits() {
        let mut pts: Vec<Point<2>> = (0..50).map(|i| p2(i as f64 * 0.95, 0.0)).collect();
        pts.extend((0..50).map(|i| p2(60.0 + i as f64 * 0.95, 0.0)));
        let c = grid_exact(&pts, params(1.0, 2));
        assert_eq!(c.num_clusters, 2);
    }

    #[test]
    fn works_in_3d() {
        let mut pts = Vec::new();
        for i in 0..10 {
            pts.push(p3(i as f64 * 0.5, 0.0, 0.0));
            pts.push(p3(0.0, 20.0 + i as f64 * 0.5, 0.0));
        }
        pts.push(p3(50.0, 50.0, 50.0));
        let c = grid_exact(&pts, params(1.0, 3));
        c.validate().unwrap();
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.noise_count(), 1);
    }

    /// Every BCP strategy on every pool size returns the identical
    /// clustering and enumerates the identical candidate-pair set.
    #[test]
    fn bcp_strategies_agree_at_every_thread_count() {
        use crate::stats::Stats;
        // A lattice (many small cells), a dense blob (cells past the
        // brute-force product limit, so the tree route fires), and an outlier.
        let mut pts: Vec<Point<2>> = Vec::new();
        for i in 0..40 {
            for j in 0..40 {
                pts.push(p2(i as f64 * 0.3, j as f64 * 0.3));
            }
        }
        let mut state = 17u64;
        for _ in 0..3_000 {
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as f64 / (1u64 << 31) as f64 * 1.5
            };
            pts.push(p2(20.0 + next(), next()));
        }
        pts.push(p2(100.0, 100.0));
        let p = params(0.5, 5);
        let strategies = [
            BcpStrategy::TreeAssisted,
            BcpStrategy::BruteForceOnly,
            BcpStrategy::FullBcp,
            BcpStrategy::FullBruteBcp,
        ];
        let reference = grid_exact(&pts, p);
        let mut edge_tests = None;
        for strategy in strategies {
            for threads in [1, 2, 4] {
                let stats = Stats::new();
                let mut spec = Spec::new(Algorithm::Exact(strategy), p);
                spec.exec.threads = Some(threads);
                let got = cluster(&pts, None, &spec, &stats, &RunCtl::unlimited()).unwrap();
                let what = format!("{strategy:?} threads={threads}");
                assert_eq!(got.assignments, reference.assignments, "{what}");
                assert_eq!(got.num_clusters, reference.num_clusters, "{what}");
                let tests = stats.report().counter(Counter::EdgeTests);
                assert!(tests > 0, "{what}");
                assert_eq!(*edge_tests.get_or_insert(tests), tests, "{what}");
            }
        }
    }

    #[test]
    fn all_identical_points() {
        // The adversarial instance of footnote 1: everything within ε of
        // everything. Must be one cluster, and must terminate fast.
        let pts = vec![p2(1.0, 1.0); 500];
        let c = grid_exact(&pts, params(1.0, 100));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.core_count(), 500);
    }
}
