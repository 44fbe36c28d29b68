//! CIT08 — the grid-partitioned exact baseline (Mahran & Mahar, "Using grid for
//! accelerating density-based clustering", CIT 2008), the state-of-the-art exact
//! competitor in the paper's experiments (Section 5.3).
//!
//! The original is closed-source; this is a faithful reimplementation of the
//! scheme it describes (see DESIGN.md):
//!
//! 1. partition space into a coarse grid of side `L ≥ 2ε`;
//! 2. run plain DBSCAN (here: KDD'96 over a kd-tree) inside each partition over
//!    its *inner* points plus the *halo* of outside points within ε of the
//!    partition's box — which makes every inner point's ε-ball fully visible, so
//!    local core status and local cluster structure of inner points are exact;
//! 3. merge: a globally core point appearing (as inner or halo) in several
//!    partitions has all its local clusters unioned — core points belong to a
//!    unique cluster, so every such co-occurrence is a valid merge witness.
//!
//! Border points keep the union of their local assignments, reproducing the
//! multi-assignment semantics of Definition 3.

use super::kdd96::kdd96_flood;
use super::{cluster, Algorithm, Spec};
use crate::deadline::{RunCtl, StageId};
use crate::error::DbscanError;
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::types::{Assignment, Clustering, DbscanParams};
use crate::unionfind::UnionFind;
use dbscan_geom::{CellCoord, FastHashMap, Point};
use dbscan_index::KdTree;

/// Tuning knobs for CIT08.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cit08Config {
    /// Partition side as a multiple of ε. Must be at least 2 so a point can
    /// never sit in the halo of both opposite neighbors along one dimension;
    /// larger values trade fewer partitions against bigger local problems.
    pub partition_eps_multiple: f64,
}

impl Default for Cit08Config {
    fn default() -> Self {
        Cit08Config {
            partition_eps_multiple: 4.0,
        }
    }
}

/// Exact DBSCAN via grid partitioning + per-partition KDD'96 + merge: a
/// [`cluster`] run of [`Algorithm::Cit08`]; panics where [`cluster`] returns
/// an error.
pub fn cit08<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    config: Cit08Config,
) -> Clustering {
    let spec = Spec::new(Algorithm::Cit08(config), params);
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// The CIT08 algorithm under `ctl`. Partition coordinates are validated up
/// front (at the coarse side `L`), so the unchecked per-point bucketing below
/// can never wrap.
///
/// Phase mapping: the coarse partition + halo pass is [`Phase::GridBuild`];
/// per-partition kd-tree builds are [`Phase::StructureBuild`]; the local
/// KDD'96 runs record their own flood / border phases and region-query
/// counters through the shared sink; the cross-partition merge is
/// [`Phase::UnionFind`]; the final global assignment is [`Phase::BorderAssign`].
///
/// The budget checkpoints once per partition (the unit of local clustering);
/// an already-running local KDD'96 pass finishes its partition before the
/// expiry is observed, so cancellation latency is bounded by the largest
/// single partition. CIT08 has no approximate edge phase, so `degrade`
/// behaves like `partial`: partitions not reached come back as noise, and
/// everything already merged stays exact.
pub(crate) fn cit08_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    config: Cit08Config,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let total = stats.now();
    crate::validate::check_points_finite(points)?;
    if points.is_empty() {
        stats.finish(Phase::Total, total);
        return Ok(Clustering::empty());
    }
    let eps = params.eps();
    let side = params.eps() * config.partition_eps_multiple.max(2.0 + 1e-9);
    crate::validate::check_cell_range(points, side)?;

    // ---- Step 1: inner and halo membership per partition. ----
    let partition_span = stats.now();
    let mut part_of: FastHashMap<CellCoord<D>, u32> = FastHashMap::default();
    let mut inner: Vec<Vec<u32>> = Vec::new();
    let mut halo: Vec<Vec<u32>> = Vec::new();
    fn part_idx<const D: usize>(
        coord: CellCoord<D>,
        part_of: &mut FastHashMap<CellCoord<D>, u32>,
        inner: &mut Vec<Vec<u32>>,
        halo: &mut Vec<Vec<u32>>,
    ) -> u32 {
        *part_of.entry(coord).or_insert_with(|| {
            inner.push(Vec::new());
            halo.push(Vec::new());
            (inner.len() - 1) as u32
        })
    }

    let eps_sq = eps * eps;
    for (i, p) in points.iter().enumerate() {
        let pc = CellCoord::of(p, side);
        let own = part_idx(pc, &mut part_of, &mut inner, &mut halo);
        inner[own as usize].push(i as u32);

        // Distance to the lower/upper face of the owning box along each dim;
        // L ≥ 2ε means at most one of the two can be within ε.
        let mut face_dist = [[f64::INFINITY; 2]; 64];
        debug_assert!(D <= 64);
        for d in 0..D {
            let lo = pc.0[d] as f64 * side;
            face_dist[d][0] = p[d] - lo; // toward offset -1
            face_dist[d][1] = lo + side - p[d]; // toward offset +1
        }
        // Enumerate neighbor offsets whose box is within ε of p.
        let mut offs = [0i64; 64];
        enumerate_halo::<D>(0, 0.0, eps_sq, &face_dist, &mut offs, &mut |offset| {
            let mut coord = pc;
            for d in 0..D {
                coord.0[d] += offset[d];
            }
            let idx = part_idx(coord, &mut part_of, &mut inner, &mut halo);
            halo[idx as usize].push(i as u32);
        });
    }
    stats.finish(Phase::GridBuild, partition_span);

    // ---- Step 2: local DBSCAN per non-trivial partition. ----
    let n = points.len();
    // Per point: global-cluster labels collected across runs; global core flag.
    let mut labels_of: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut is_core = vec![false; n];
    let mut total_clusters = 0u32;

    if ctl.armed() {
        ctl.stage_begin(StageId::Labeling, inner.len() as u64);
    }
    for pi in 0..inner.len() {
        if ctl.armed() && ctl.should_stop_no_degrade() {
            break;
        }
        if inner[pi].is_empty() {
            if ctl.armed() {
                ctl.stage_done(StageId::Labeling, 1);
            }
            continue; // halo-only partitions have nothing to cluster
        }
        let mut subset: Vec<u32> = Vec::with_capacity(inner[pi].len() + halo[pi].len());
        subset.extend_from_slice(&inner[pi]);
        subset.extend_from_slice(&halo[pi]);
        let local_pts: Vec<Point<D>> = subset.iter().map(|&i| points[i as usize]).collect();
        let tree = stats.time(Phase::StructureBuild, || KdTree::build(&local_pts));
        stats.bump(Counter::KdTreeBuilds);
        let local = kdd96_flood(&local_pts, params, &tree, stats, &RunCtl::unlimited())?;

        let base = total_clusters;
        total_clusters += local.num_clusters as u32;
        for (li, a) in local.assignments.iter().enumerate() {
            let g = subset[li];
            for &c in a.clusters() {
                labels_of[g as usize].push(base + c);
            }
            // Core status of *inner* points is exact; halo points may be
            // under-counted locally, so only inner verdicts are recorded.
            if li < inner[pi].len() && a.is_core() {
                is_core[g as usize] = true;
            }
        }
        if ctl.armed() {
            ctl.stage_done(StageId::Labeling, 1);
        }
    }
    if ctl.aborted() {
        return Err(ctl.deadline_error(StageId::Labeling));
    }

    // ---- Step 3: merge through shared core points. ----
    let merge_span = stats.now();
    let mut uf = UnionFind::new(total_clusters as usize);
    let mut union_ops = 0u64;
    for (i, labels) in labels_of.iter().enumerate() {
        if is_core[i] && labels.len() > 1 {
            for w in labels.windows(2) {
                uf.union(w[0], w[1]);
                union_ops += 1;
            }
        }
    }
    let (component_of, num_clusters) = uf.compact_labels();
    stats.add(Counter::UnionOps, union_ops);
    stats.finish(Phase::UnionFind, merge_span);

    let assemble_span = stats.now();
    let assignments = (0..n)
        .map(|i| {
            if is_core[i] {
                Assignment::Core(component_of[labels_of[i][0] as usize])
            } else if labels_of[i].is_empty() {
                Assignment::Noise
            } else {
                let mut cs: Vec<u32> = labels_of[i]
                    .iter()
                    .map(|&l| component_of[l as usize])
                    .collect();
                cs.sort_unstable();
                cs.dedup();
                Assignment::Border(cs)
            }
        })
        .collect();
    stats.finish(Phase::BorderAssign, assemble_span);
    stats.finish(Phase::Total, total);
    Ok(Clustering {
        assignments,
        num_clusters,
    })
}

/// Recursively enumerates the neighbor-partition offsets whose box lies within
/// ε of the point (per-dim face distances precomputed). `acc` carries the sum of
/// squared per-dim gaps for the non-zero offsets chosen so far.
fn enumerate_halo<const D: usize>(
    dim: usize,
    acc: f64,
    eps_sq: f64,
    face_dist: &[[f64; 2]; 64],
    offs: &mut [i64; 64],
    f: &mut impl FnMut(&[i64; 64]),
) {
    if acc > eps_sq {
        return;
    }
    if dim == D {
        if offs[..D].iter().any(|&o| o != 0) {
            f(offs);
        }
        return;
    }
    offs[dim] = 0;
    enumerate_halo::<D>(dim + 1, acc, eps_sq, face_dist, offs, f);
    for (side, off) in [(0usize, -1i64), (1, 1)] {
        let gap = face_dist[dim][side];
        let add = gap * gap;
        if acc + add <= eps_sq {
            offs[dim] = off;
            enumerate_halo::<D>(dim + 1, acc + add, eps_sq, face_dist, offs, f);
        }
    }
    offs[dim] = 0;
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
        let c = cit08::<2>(&[], params(1.0, 2), Cit08Config::default());
        assert_eq!(c.num_clusters, 0);
    }

    #[test]
    fn cluster_straddling_partition_boundary_merges() {
        // eps = 1, partition side = 4: a tight chain crossing x = 4.
        let pts: Vec<Point<2>> = (0..20).map(|i| p2(i as f64 * 0.5, 0.5)).collect();
        let c = cit08(&pts, params(1.0, 3), Cit08Config::default());
        assert_eq!(c.num_clusters, 1);
        assert_eq!(c.noise_count(), 0);
    }

    #[test]
    fn agrees_with_grid_exact_on_random_data() {
        for seed in [3u64, 4, 5] {
            let pts = lcg_points(500, 40.0, seed);
            for (eps, min_pts) in [(1.0, 4), (2.0, 8), (0.7, 2)] {
                let p = params(eps, min_pts);
                let a = cit08(&pts, p, Cit08Config::default());
                let b = grid_exact(&pts, p);
                assert_eq!(a.num_clusters, b.num_clusters, "seed={seed} eps={eps}");
                assert_eq!(a.core_count(), b.core_count(), "seed={seed} eps={eps}");
                assert_eq!(a.noise_count(), b.noise_count(), "seed={seed} eps={eps}");
            }
        }
    }

    #[test]
    fn small_partition_multiple_still_exact() {
        let pts = lcg_points(300, 30.0, 9);
        let p = params(1.5, 5);
        let tight = cit08(
            &pts,
            p,
            Cit08Config {
                partition_eps_multiple: 2.0,
            },
        );
        let reference = grid_exact(&pts, p);
        assert_eq!(tight.num_clusters, reference.num_clusters);
        assert_eq!(tight.core_count(), reference.core_count());
    }

    #[test]
    fn border_multi_assignment_survives_partitioning() {
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
        let c = cit08(&pts, params(1.4, 4), Cit08Config::default());
        assert_eq!(c.num_clusters, 2);
        assert_eq!(c.assignments[8].clusters().len(), 2);
    }
}
