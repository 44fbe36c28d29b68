//! Core-point labeling on the side-`ε/√d` grid (the "labeling process" of
//! Section 2.2, which carries over verbatim to d ≥ 3 in Section 3.2).
//!
//! A point of a sparse cell is labeled by counting its ε-ball cell by cell:
//! ε-neighbor cells inside or outside the ball are settled whole from their
//! exact preimage boxes, and only the cells the sphere cuts are scanned.

use crate::error::DbscanError;
use crate::parallel::{Exec, LABELING};
use crate::scheduler::WorkQueue;
use crate::stats::{Counter, StatsSink};
use crate::types::DbscanParams;
use dbscan_geom::Point;
use dbscan_index::GridIndex;
use std::sync::Mutex;

/// Decides for every point whether it is a core point (Definition 1:
/// `|B(p, ε) ∩ P| ≥ MinPts`, counting `p` itself), one task per grid cell on
/// `exec`'s pool (weighted by point count, heaviest first).
///
/// Cells holding at least `MinPts` points are all-core without any distance
/// computation (every same-cell pair is within ε by the grid's construction).
/// Points in sparser cells count their ε-ball over their own cell and the
/// O(1) ε-neighbor cells with an early stop at `MinPts`
/// ([`GridIndex::count_within_eps`]), which is what bounds the whole pass by
/// O(MinPts · n) expected time. A cell that lies wholly inside or wholly
/// outside the ball, by its exact preimage box, is counted or skipped
/// without visiting its points (the paper's Lemma 5 counter does the same
/// for its boxes); only cells that straddle the sphere are scanned. With an
/// enabled sink each worker counts its explicit distance computations
/// ([`Counter::GridPointsExamined`]; the dense-cell shortcut and box-settled
/// cells are free and not counted) and the cells it scanned
/// ([`Counter::BlockKernelCalls`]).
///
/// Labeling has no approximate fallback, so `degrade` continues exact here
/// (the switch only affects the edge phase); only `partial`/`abort` stop the
/// claims. Every verdict written is final — a cell is either fully labeled or
/// untouched (`false` = treated as non-core), which is what makes a truncated
/// labeling a subset-consistent prefix.
pub(crate) fn label_core_points<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    grid: &GridIndex<D>,
    params: DbscanParams,
    exec: &Exec<'_, S>,
) -> Result<Vec<bool>, DbscanError> {
    let min_pts = params.min_pts();
    let threads = exec.pool.threads();
    let queue = WorkQueue::balanced(grid.cells().iter().map(|c| c.len() as u64), threads);
    #[derive(Default)]
    struct Tally {
        core_ids: Vec<u32>,
        examined: u64,
        kernel_calls: u64,
    }
    // Per-worker result slots (the pool shares one `Fn` body by reference, so
    // workers cannot return values through join handles).
    let slots: Vec<Mutex<Vec<u32>>> = (0..threads).map(|_| Mutex::new(Vec::new())).collect();
    exec.run_tasks(
        &LABELING,
        &queue,
        Tally::default,
        |t, _, cell| {
            let ids = grid.points_of(cell);
            if ids.len() >= min_pts {
                t.core_ids.extend_from_slice(ids);
                return;
            }
            for &p in ids {
                let found = grid.count_within_eps(points, p, min_pts);
                t.examined += found.examined as u64;
                t.kernel_calls += found.scans as u64;
                if found.count >= min_pts {
                    t.core_ids.push(p);
                }
            }
        },
        |cell| grid.cell_population(cell) as u64,
        |w, t| {
            if S::ENABLED {
                exec.stats.add(Counter::GridPointsExamined, t.examined);
                exec.stats.add(Counter::BlockKernelCalls, t.kernel_calls);
            }
            *slots[w].lock().unwrap_or_else(|e| e.into_inner()) = t.core_ids;
        },
    )?;
    let mut is_core = vec![false; points.len()];
    for slot in slots {
        for p in slot.into_inner().unwrap_or_else(|e| e.into_inner()) {
            is_core[p as usize] = true;
        }
    }
    Ok(is_core)
}

/// Reference labeling by brute force — O(n²), used by tests and available for
/// validation of the grid path on small inputs.
pub fn label_core_points_brute<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
) -> Vec<bool> {
    let eps_sq = params.eps() * params.eps();
    points
        .iter()
        .map(|p| {
            points
                .iter()
                .filter(|q| p.dist_sq(q) <= eps_sq)
                .take(params.min_pts())
                .count()
                >= params.min_pts()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deadline::RunCtl;
    use crate::error::ResourceLimits;
    use crate::faults::FaultPlan;
    use crate::scheduler::WorkerPool;
    use crate::stats::NoStats;
    use dbscan_geom::point::p2;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    /// Grid labeling of `pts` on a `threads`-worker pool.
    fn labels(pts: &[Point<2>], p: DbscanParams, threads: usize) -> Vec<bool> {
        let grid = GridIndex::build(pts, p.eps());
        let exec = Exec {
            pool: &WorkerPool::global(threads),
            faults: &FaultPlan::default(),
            limits: &ResourceLimits::UNLIMITED,
            stats: &NoStats,
            ctl: &RunCtl::unlimited(),
        };
        label_core_points(pts, &grid, p, &exec).unwrap()
    }

    #[test]
    fn dense_cell_marks_all_core() {
        // Five coincident points with MinPts 4: all core without neighbor scans.
        let pts = vec![p2(1.0, 1.0); 5];
        assert!(labels(&pts, params(1.0, 4), 1).iter().all(|&c| c));
    }

    #[test]
    fn isolated_point_is_not_core() {
        let pts = vec![p2(0.0, 0.0), p2(100.0, 100.0)];
        assert_eq!(labels(&pts, params(1.0, 2), 1), vec![false, false]);
    }

    #[test]
    fn min_pts_one_makes_everything_core() {
        let pts = vec![p2(0.0, 0.0), p2(50.0, 0.0), p2(0.0, 50.0)];
        assert!(labels(&pts, params(1.0, 1), 1).iter().all(|&c| c));
    }

    #[test]
    fn boundary_distance_counts() {
        // Exactly MinPts = 2 points at distance exactly eps: both core
        // (closed ball).
        let pts = vec![p2(0.0, 0.0), p2(3.0, 4.0)];
        assert_eq!(labels(&pts, params(5.0, 2), 1), vec![true, true]);
    }

    #[test]
    fn grid_matches_brute_force_on_random_points() {
        let mut state = 0xABCDEFu64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64 * 30.0
        };
        let pts: Vec<_> = (0..400).map(|_| p2(next(), next())).collect();
        for (eps, min_pts) in [(1.0, 3), (2.5, 5), (0.3, 2), (10.0, 50)] {
            let p = params(eps, min_pts);
            let brute = label_core_points_brute(&pts, p);
            for threads in [1, 3, 8] {
                assert_eq!(
                    labels(&pts, p, threads),
                    brute,
                    "eps={eps} min_pts={min_pts} threads={threads}"
                );
            }
        }
    }
}
