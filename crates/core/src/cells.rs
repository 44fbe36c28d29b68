//! Core cells, the core-cell graph `G`, and cluster assembly — the skeleton
//! shared by Gunawan's 2D algorithm, the paper's exact algorithm (Section 3.2),
//! and the ρ-approximate algorithm (Section 4.4).
//!
//! All three algorithms are instances of the same template:
//!
//! 1. build the side-`ε/√d` grid and label core points;
//! 2. take the *core cells* (cells with at least one core point) as vertices of
//!    a graph `G` and decide edges between ε-neighbor core cells with some
//!    *edge test* (nearest-neighbor search, BCP, or approximate counting);
//! 3. the connected components of `G` are exactly the clusters restricted to
//!    core points (Lemma 1);
//! 4. assign border points to the clusters of core points within ε.
//!
//! Only step 2 differs between the algorithms: each one hands its *edge
//! oracle* to the one edge loop of the grid pipeline in [`crate::parallel`],
//! which runs every step on a [`WorkerPool`](crate::WorkerPool) of any size
//! (a sequential run is the one-thread pool).

use crate::deadline::RunCtl;
use crate::error::{DbscanError, ResourceLimits};
use crate::labeling::label_core_points;
use crate::parallel::{with_fallback, Exec, ParConfig};
use crate::stats::{NoStats, Phase, StatsSink};
use crate::types::DbscanParams;
use dbscan_geom::kernels::SoaBlock;
use dbscan_geom::Point;
use dbscan_index::GridIndex;

/// The grid, core labels, and the per-cell core point lists that the cell-graph
/// algorithms operate on.
pub struct CoreCells<const D: usize> {
    pub params: DbscanParams,
    pub grid: GridIndex<D>,
    /// Per input point: is it a core point?
    pub is_core: Vec<bool>,
    /// Indices (into `grid.cells()`) of the cells containing at least one core
    /// point, in cell order. The position of a cell in this list is its *rank* —
    /// the vertex id in the graph `G`.
    pub core_cells: Vec<u32>,
    /// Inverse of `core_cells`: `rank_of_cell[cell] == u32::MAX` for non-core cells.
    pub rank_of_cell: Vec<u32>,
    /// Per rank, the ids of the core points in that cell.
    pub core_points_of: Vec<Vec<u32>>,
    /// Per-rank core-point coordinates gathered into contiguous lanes (rank
    /// `r`'s region holds lane 0 of all its points, then lane 1, …), so the
    /// blocked BCP and border kernels stream coordinates instead of chasing
    /// point ids. Same point order as `core_points_of[r]`.
    pub(crate) core_soa: Vec<f64>,
    /// Prefix offsets into `core_soa` in *points*: rank `r`'s lanes occupy
    /// `core_soa[start[r]*D .. start[r+1]*D]`. Length `num_core_cells() + 1`.
    pub(crate) core_soa_start: Vec<u32>,
}

/// Gathers each rank's core-point coordinates into one flat lane-major buffer
/// (see [`CoreCells::core_soa`]).
fn gather_core_soa<const D: usize>(
    points: &[Point<D>],
    core_points_of: &[Vec<u32>],
) -> (Vec<f64>, Vec<u32>) {
    let total: usize = core_points_of.iter().map(Vec::len).sum();
    let mut soa = Vec::with_capacity(total * D);
    let mut start = Vec::with_capacity(core_points_of.len() + 1);
    let mut off = 0u32;
    start.push(off);
    for ids in core_points_of {
        // Same lane-major layout as `SoaBlock::gather`, written straight
        // into the shared buffer (no per-cell temporary).
        for d in 0..D {
            soa.extend(ids.iter().map(|&i| points[i as usize][d]));
        }
        off += ids.len() as u32;
        start.push(off);
    }
    (soa, start)
}

impl<const D: usize> CoreCells<D> {
    /// Approximate resident heap footprint in bytes (grid index plus the
    /// core-cell side tables). Used by hosts that cache built structures
    /// under a byte budget; ignores allocator slack.
    pub fn approx_bytes(&self) -> u64 {
        let side_tables = self.is_core.len() * std::mem::size_of::<bool>()
            + self.core_cells.len() * std::mem::size_of::<u32>()
            + self.rank_of_cell.len() * std::mem::size_of::<u32>()
            + self
                .core_points_of
                .iter()
                .map(|v| std::mem::size_of::<Vec<u32>>() + v.len() * std::mem::size_of::<u32>())
                .sum::<usize>()
            + self.core_soa.len() * std::mem::size_of::<f64>()
            + self.core_soa_start.len() * std::mem::size_of::<u32>();
        self.grid.approx_bytes() + side_tables as u64
    }

    /// Builds the grid, labels core points, and collects core cells.
    /// Panics on invalid input (non-finite coordinates, cell overflow); see
    /// [`CoreCells::try_build_ctl`].
    pub fn build(points: &[Point<D>], params: DbscanParams) -> Self {
        let config = ParConfig::sequential(&ResourceLimits::UNLIMITED);
        Self::try_build_ctl(points, params, &config, &NoStats, &RunCtl::unlimited())
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible, deadline-aware build on `config`'s pool: validates the
    /// points (finite coordinates, representable cell indices), builds the
    /// grid under `config.limits`' byte budget ([`Phase::GridBuild`]), and
    /// labels core points on the pool, one task per cell, checkpointing
    /// `ctl` once per cell ([`Phase::Labeling`], which also covers the
    /// core-cell collection). The grid build itself is atomic (a single
    /// allocation-and-scatter pass, not task-shaped). Under `abort` the
    /// caller converts the observed expiry to the typed error after this
    /// returns; under `partial` the unlabeled cells simply come back
    /// non-core. A labeling panic follows `config.recovery`.
    pub fn try_build_ctl<S: StatsSink>(
        points: &[Point<D>],
        params: DbscanParams,
        config: &ParConfig,
        stats: &S,
        ctl: &RunCtl,
    ) -> Result<Self, DbscanError> {
        with_fallback(config, stats, ctl, |exec| {
            Self::build_on(points, params, exec)
        })
    }

    /// One attempt of [`CoreCells::try_build_ctl`], on `exec`'s pool.
    pub(crate) fn build_on<S: StatsSink>(
        points: &[Point<D>],
        params: DbscanParams,
        exec: &Exec<'_, S>,
    ) -> Result<Self, DbscanError> {
        let stats = exec.stats;
        crate::validate::check_points_finite(points)?;
        let span = stats.now();
        let grid = GridIndex::try_build(points, params.eps(), exec.limits.max_index_bytes)?;
        stats.finish(Phase::GridBuild, span);
        let span = stats.now();
        let is_core = label_core_points(points, &grid, params, exec)?;

        let mut core_cells = Vec::new();
        let mut rank_of_cell = vec![u32::MAX; grid.num_cells()];
        let mut core_points_of = Vec::new();
        for ci in 0..grid.num_cells() {
            let core_pts: Vec<u32> = grid
                .points_of(ci as u32)
                .iter()
                .copied()
                .filter(|&p| is_core[p as usize])
                .collect();
            if !core_pts.is_empty() {
                rank_of_cell[ci] = core_cells.len() as u32;
                core_cells.push(ci as u32);
                core_points_of.push(core_pts);
            }
        }
        stats.finish(Phase::Labeling, span);
        // The gather is a structure build (it is what the edge kernels run
        // over), kept out of the labeling span like the lazy kd-tree builds.
        let span = stats.now();
        let (core_soa, core_soa_start) = gather_core_soa(points, &core_points_of);
        stats.finish(Phase::StructureBuild, span);
        Ok(CoreCells {
            params,
            grid,
            is_core,
            core_cells,
            rank_of_cell,
            core_points_of,
            core_soa,
            core_soa_start,
        })
    }

    /// Number of core cells (vertices of `G`).
    pub fn num_core_cells(&self) -> usize {
        self.core_cells.len()
    }

    /// Total number of core points.
    pub fn num_core_points(&self) -> usize {
        self.core_points_of.iter().map(Vec::len).sum()
    }

    /// Structure-of-arrays view of rank `r`'s core points, in
    /// `core_points_of[r]` order — the input of the blocked distance kernels
    /// ([`dbscan_geom::kernels`]).
    pub fn core_block(&self, r: usize) -> SoaBlock<'_, D> {
        let s = self.core_soa_start[r] as usize;
        let e = self.core_soa_start[r + 1] as usize;
        SoaBlock::from_contiguous(&self.core_soa[s * D..e * D], e - s)
    }

    /// Calls `f(r2)` for every candidate partner of rank `r1`: the ε-neighbor
    /// core cells with rank greater than `r1`. Iterating every rank therefore
    /// enumerates each unordered candidate pair of `G` exactly once — the
    /// per-cell edge tasks of the pipeline, which is what keeps the
    /// [`Counter::EdgeTests`](crate::stats::Counter::EdgeTests) total
    /// identical at every thread count.
    pub fn for_candidate_partners(&self, r1: usize, mut f: impl FnMut(usize)) {
        for &nb in self.grid.neighbors_of(self.core_cells[r1]) {
            let r2 = self.rank_of_cell[nb as usize];
            if r2 != u32::MAX && (r2 as usize) > r1 {
                f(r2 as usize);
            }
        }
    }

    /// Scheduling weight of rank `r1`'s edge-test task: Σ |c₁|·|c₂| over its
    /// candidate pairs — an upper bound on the pair-test cost (the
    /// brute-force scan is exactly that product; tree probes and counter
    /// queries are cheaper). Used by multi-worker pools to order tasks
    /// heaviest-first (see [`crate::scheduler`]).
    pub fn edge_task_weight(&self, r1: usize) -> u64 {
        let len1 = self.core_points_of[r1].len() as u64;
        let mut weight = 0u64;
        self.for_candidate_partners(r1, |r2| {
            weight += len1 * self.core_points_of[r2].len() as u64;
        });
        weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::{assemble_with, connect_with};
    use dbscan_geom::point::p2;

    fn params(eps: f64, min_pts: usize) -> DbscanParams {
        DbscanParams::new(eps, min_pts).unwrap()
    }

    #[test]
    fn core_cells_collects_only_core() {
        // Cluster of 3 at origin (MinPts 3) + 1 faraway noise point.
        let pts = vec![p2(0.0, 0.0), p2(0.5, 0.0), p2(0.0, 0.5), p2(50.0, 50.0)];
        let cc = CoreCells::build(&pts, params(1.0, 3));
        assert_eq!(cc.is_core, vec![true, true, true, false]);
        assert_eq!(cc.num_core_points(), 3);
        assert!(cc.num_core_cells() >= 1);
        // Every core point appears in exactly one core cell list.
        let all: Vec<u32> = cc.core_points_of.iter().flatten().copied().collect();
        let mut sorted = all.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn connect_respects_edge_test() {
        // Two dense singleton-cell groups within ε of each other.
        let pts = vec![p2(0.0, 0.0), p2(0.0, 0.1), p2(0.9, 0.0), p2(0.9, 0.1)];
        let cc = CoreCells::build(&pts, params(1.0, 2));
        for threads in [1, 4] {
            // With an always-false edge test the cells stay separate...
            let uf = connect_with(&pts, &cc, threads, |_, _| false);
            assert_eq!(uf.num_components(), cc.num_core_cells());
            // ...and with an always-true test everything ε-adjacent merges.
            let uf = connect_with(&pts, &cc, threads, |_, _| true);
            assert_eq!(uf.num_components(), 1);
        }
    }

    #[test]
    fn assemble_produces_consistent_clustering() {
        let pts = vec![
            p2(0.0, 0.0),
            p2(0.5, 0.0),
            p2(0.0, 0.5),
            p2(1.4, 0.0), // border: within ε of core 1 but has only 2 neighbors
            p2(50.0, 50.0),
        ];
        let p = params(1.0, 3);
        let cc = CoreCells::build(&pts, p);
        for threads in [1, 4] {
            let mut uf = connect_with(&pts, &cc, threads, |r1, r2| {
                crate::bcp::within_threshold_brute(
                    &pts,
                    &cc.core_points_of[r1],
                    &cc.core_points_of[r2],
                    p.eps(),
                )
            });
            let clustering = assemble_with(&pts, &cc, &mut uf, threads);
            clustering.validate().unwrap();
            assert_eq!(clustering.num_clusters, 1);
            assert!(clustering.assignments[3].is_border());
            assert!(clustering.assignments[4].is_noise());
        }
    }
}
