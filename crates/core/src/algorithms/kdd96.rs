//! The original DBSCAN algorithm of Ester, Kriegel, Sander, and Xu (KDD'96).
//!
//! One region query per point, cluster growth by seed expansion. The KDD'96
//! paper claimed O(n log n) time; as Section 1.1 of *DBSCAN Revisited* explains,
//! the true worst case is O(n²) *regardless of the index*, because the n region
//! queries can return Θ(n) points each (footnote 1). The index is therefore a
//! choice ([`Kdd96Index`]: kd-tree, R-tree, or none); the paper's
//! implementation used an R*-tree, for which our STR R-tree substitutes.
//!
//! After the classic pass (which, like the original, hands each border point to
//! the first cluster that reaches it), a post-pass re-queries the border points
//! to produce the full multi-assignment semantics of Definition 3, so results
//! are directly comparable with the grid algorithms'.

use super::{cluster, Algorithm, Kdd96Index, Spec};
use crate::deadline::{RunCtl, StageId};
use crate::error::DbscanError;
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::types::{Assignment, Clustering, DbscanParams};
use dbscan_geom::Point;
use dbscan_index::{KdTree, LinearScan, RTree, RangeIndex};
use std::collections::VecDeque;

const UNCLASSIFIED: u32 = u32::MAX;
const NOISE: u32 = u32::MAX - 1;

/// KDD'96 over a kd-tree built on the fly: a [`cluster`] run of
/// [`Algorithm::Kdd96`]; panics where [`cluster`] returns an error.
pub fn kdd96_kdtree<const D: usize>(points: &[Point<D>], params: DbscanParams) -> Clustering {
    let spec = Spec::new(Algorithm::Kdd96(Kdd96Index::KdTree), params);
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// KDD'96 over an STR R-tree built on the fly (closest to the original
/// setup); see [`kdd96_kdtree`].
pub fn kdd96_rtree<const D: usize>(points: &[Point<D>], params: DbscanParams) -> Clustering {
    let spec = Spec::new(Algorithm::Kdd96(Kdd96Index::RTree), params);
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// KDD'96 with no index at all — the O(n²) straw man; see [`kdd96_kdtree`].
pub fn kdd96_linear<const D: usize>(points: &[Point<D>], params: DbscanParams) -> Clustering {
    let spec = Spec::new(Algorithm::Kdd96(Kdd96Index::Linear), params);
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// KDD'96 over a freshly built `index`: validates the points, builds the
/// index (timed as [`Phase::StructureBuild`]; a kd-tree also counts one
/// [`Counter::KdTreeBuilds`]), and runs [`kdd96_flood`] under `ctl`.
///
/// Phase mapping (the grid template's phases, reinterpreted — see the table
/// in EXPERIMENTS.md): the seed-expansion flood is [`Phase::Labeling`] (its
/// region queries are what decide core status), the border multi-assignment
/// post-pass is [`Phase::BorderAssign`]. Counters: one
/// [`Counter::RangeQueries`] per region query,
/// [`Counter::RangePointsReturned`] totals their result sizes (the Θ(n²)
/// witness of footnote 1), [`Counter::IndexNodesVisited`] the index
/// traversal work.
pub(crate) fn kdd96_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    index: Kdd96Index,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    crate::validate::check_points_finite(points)?;
    let total = stats.now();
    let out = match index {
        Kdd96Index::KdTree => {
            let tree = stats.time(Phase::StructureBuild, || KdTree::build(points));
            stats.bump(Counter::KdTreeBuilds);
            kdd96_flood(points, params, &tree, stats, ctl)
        }
        Kdd96Index::RTree => {
            let tree = stats.time(Phase::StructureBuild, || RTree::build(points));
            kdd96_flood(points, params, &tree, stats, ctl)
        }
        Kdd96Index::Linear => kdd96_flood(points, params, &LinearScan::new(points), stats, ctl),
    }?;
    stats.finish(Phase::Total, total);
    Ok(out)
}

/// The KDD'96 algorithm over a built `index` covering exactly `points`, with
/// no [`Phase::Total`] span of its own, so callers that embed it as a
/// sub-step (CIT08's per-partition runs) can record one enclosing total
/// themselves. The seed-expansion flood has
/// no approximate fallback (there is no edge phase to switch to Lemma 5
/// counting), so the budget checkpoints — one per outer point and one per
/// dequeued seed — use [`RunCtl::should_stop_no_degrade`]: under `degrade`
/// the run truncates exactly as under `partial`. On truncation, core flags
/// already decided stay (each was established by a completed region query);
/// still-`UNCLASSIFIED` points and labeled-but-unverified border candidates
/// come back as noise — never a wrong cluster.
pub(crate) fn kdd96_flood<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    index: &impl RangeIndex<D>,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let n = points.len();
    let eps = params.eps();
    let min_pts = params.min_pts();

    let query = |q: u32, neighbors: &mut Vec<u32>| {
        neighbors.clear();
        if S::ENABLED {
            let mut work = 0u64;
            index.range_query_counted(&points[q as usize], eps, neighbors, &mut work);
            stats.bump(Counter::RangeQueries);
            stats.add(Counter::RangePointsReturned, neighbors.len() as u64);
            stats.add(Counter::IndexNodesVisited, work);
            // Per-query distribution of the aggregate above. The grid
            // algorithms' labeling counts are MinPts-early-stopped, so this
            // histogram is only meaningful for full region queries.
            stats.trace_hist(
                crate::trace::hist::HistKind::NeighborListLen,
                neighbors.len() as u64,
            );
        } else {
            index.range_query(&points[q as usize], eps, neighbors);
        }
    };

    let flood_span = stats.now();
    if ctl.armed() {
        ctl.stage_begin(StageId::Labeling, n as u64);
    }
    let mut label = vec![UNCLASSIFIED; n];
    let mut is_core = vec![false; n];
    let mut num_clusters = 0u32;
    let mut neighbors: Vec<u32> = Vec::new();
    let mut seeds: VecDeque<u32> = VecDeque::new();

    'flood: for i in 0..n as u32 {
        if ctl.armed() && ctl.should_stop_no_degrade() {
            break;
        }
        if label[i as usize] != UNCLASSIFIED {
            if ctl.armed() {
                ctl.stage_done(StageId::Labeling, 1);
            }
            continue;
        }
        query(i, &mut neighbors);
        if neighbors.len() < min_pts {
            label[i as usize] = NOISE; // may be promoted to border later
            if ctl.armed() {
                ctl.stage_done(StageId::Labeling, 1);
            }
            continue;
        }
        // i starts a new cluster; flood out from its neighborhood.
        is_core[i as usize] = true;
        let cid = num_clusters;
        num_clusters += 1;
        label[i as usize] = cid;
        seeds.clear();
        for &q in &neighbors {
            match label[q as usize] {
                UNCLASSIFIED => {
                    label[q as usize] = cid;
                    seeds.push_back(q);
                }
                NOISE => label[q as usize] = cid, // border; never expands
                _ => {}
            }
        }
        while let Some(q) = seeds.pop_front() {
            if ctl.armed() && ctl.should_stop_no_degrade() {
                break 'flood;
            }
            query(q, &mut neighbors);
            if neighbors.len() < min_pts {
                continue; // q is a border point of this cluster
            }
            is_core[q as usize] = true;
            for &r in &neighbors {
                match label[r as usize] {
                    UNCLASSIFIED => {
                        label[r as usize] = cid;
                        seeds.push_back(r);
                    }
                    NOISE => label[r as usize] = cid,
                    _ => {}
                }
            }
        }
        if ctl.armed() {
            ctl.stage_done(StageId::Labeling, 1);
        }
    }

    stats.finish(Phase::Labeling, flood_span);
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::Labeling));
    }

    // Post-pass: full border multi-assignment (Definition 3 allows a border
    // point in several clusters; the classic pass records only the first).
    let border_span = stats.now();
    if ctl.armed() {
        ctl.stage_begin(StageId::BorderAssign, n as u64);
    }
    let truncated_flood = ctl.armed() && ctl.truncated();
    let mut border_truncated = false;
    let mut assignments = Vec::with_capacity(n);
    for i in 0..n as u32 {
        if ctl.armed() && !border_truncated && ctl.should_stop_no_degrade() {
            border_truncated = true;
        }
        let a = if is_core[i as usize] {
            Assignment::Core(label[i as usize])
        } else if label[i as usize] == NOISE || label[i as usize] == UNCLASSIFIED {
            // UNCLASSIFIED survives the flood only when it was truncated.
            Assignment::Noise
        } else if border_truncated || truncated_flood {
            // A labeled non-core point is a border *candidate*; confirming
            // its (multi-)assignment needs a region query we no longer have
            // budget for — and after a truncated flood the core flags around
            // it may be incomplete. Conservative answer: noise.
            Assignment::Noise
        } else {
            query(i, &mut neighbors);
            let mut clusters: Vec<u32> = neighbors
                .iter()
                .filter(|&&q| is_core[q as usize])
                .map(|&q| label[q as usize])
                .collect();
            clusters.sort_unstable();
            clusters.dedup();
            debug_assert!(
                !clusters.is_empty(),
                "labeled border point must touch a core"
            );
            Assignment::Border(clusters)
        };
        assignments.push(a);
        if ctl.armed() {
            ctl.stage_done(StageId::BorderAssign, 1);
        }
    }
    stats.finish(Phase::BorderAssign, border_span);
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::BorderAssign));
    }
    Ok(Clustering {
        assignments,
        num_clusters: num_clusters as usize,
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
    fn empty_input() {
        assert_eq!(kdd96_linear::<2>(&[], params(1.0, 2)).num_clusters, 0);
    }

    #[test]
    fn basic_two_clusters_with_noise() {
        let pts = vec![
            p2(0.0, 0.0),
            p2(0.3, 0.0),
            p2(0.0, 0.3),
            p2(10.0, 10.0),
            p2(10.3, 10.0),
            p2(10.0, 10.3),
            p2(5.0, 5.0),
        ];
        for c in [
            kdd96_linear(&pts, params(0.5, 3)),
            kdd96_kdtree(&pts, params(0.5, 3)),
            kdd96_rtree(&pts, params(0.5, 3)),
        ] {
            c.validate().unwrap();
            assert_eq!(c.num_clusters, 2);
            assert!(c.assignments[6].is_noise());
        }
    }

    #[test]
    fn all_three_indexes_agree_with_grid_exact() {
        for seed in [5u64, 6] {
            let pts = lcg_points(400, 20.0, seed);
            for (eps, min_pts) in [(1.0, 4), (0.6, 2), (2.5, 12)] {
                let p = params(eps, min_pts);
                let reference = grid_exact(&pts, p);
                for (name, c) in [
                    ("linear", kdd96_linear(&pts, p)),
                    ("kdtree", kdd96_kdtree(&pts, p)),
                    ("rtree", kdd96_rtree(&pts, p)),
                ] {
                    // Cluster ids may be numbered differently; compare counts
                    // and co-membership through the canonical exact result.
                    assert_eq!(
                        c.num_clusters, reference.num_clusters,
                        "{name} seed={seed} eps={eps} min_pts={min_pts}"
                    );
                    assert_eq!(c.core_count(), reference.core_count(), "{name}");
                    assert_eq!(c.noise_count(), reference.noise_count(), "{name}");
                }
            }
        }
    }

    #[test]
    fn border_reached_by_two_clusters_is_multi_assigned() {
        // Same geometry as the border-module test: a bridge border point.
        let pts = vec![
            p2(0.0, 0.0),
            p2(-0.5, 0.0),
            p2(-0.2, 0.5),
            p2(-0.3, -0.4),
            p2(2.6, 0.0),
            p2(3.1, 0.0),
            p2(2.8, 0.5),
            p2(2.9, -0.4),
            p2(1.3, 0.0),
        ];
        let c = kdd96_linear(&pts, params(1.4, 4));
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments[8].clusters().len(), 2);
    }

    #[test]
    fn quadratic_instance_terminates_correctly() {
        // Footnote 1's adversarial input: all points within ε of each other.
        let pts = vec![p2(0.0, 0.0); 300];
        let c = kdd96_linear(&pts, params(1.0, 10));
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.core_count(), 300);
    }
}
