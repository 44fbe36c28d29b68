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

/// The grid, core labels, and the core cells that the cell-graph algorithms
/// operate on.
///
/// Every cell of the grid keeps its core points first: rank `r`'s core
/// points are a prefix of its cell's ids and SoA lanes
/// ([`CoreCells::core_points`], [`CoreCells::core_block`]), and the rest of
/// the cell is its non-core points ([`CoreCells::non_core_points`]), each
/// part in ascending id order. The edge kernels and border assignment read
/// the grid's own storage; nothing is copied per rank.
pub struct CoreCells<const D: usize> {
    pub params: DbscanParams,
    /// The grid, partitioned core-first within every cell.
    pub grid: GridIndex<D>,
    /// Per input point: is it a core point?
    pub is_core: Vec<bool>,
    /// Indices (into `grid.cells()`) of the cells containing at least one core
    /// point, in cell order. The position of a cell in this list is its *rank* —
    /// the vertex id in the graph `G`.
    pub core_cells: Vec<u32>,
    /// Inverse of `core_cells`: `rank_of_cell[cell] == u32::MAX` for non-core cells.
    pub rank_of_cell: Vec<u32>,
    /// Per rank, the number of core points in the cell: the length of the
    /// cell's core prefix.
    core_len: Vec<u32>,
}

impl<const D: usize> CoreCells<D> {
    /// Approximate resident heap footprint in bytes (grid index plus the
    /// core-cell side tables). Used by hosts that cache built structures
    /// under a byte budget; ignores allocator slack.
    pub fn approx_bytes(&self) -> u64 {
        let side_tables = self.is_core.len() * std::mem::size_of::<bool>()
            + self.core_cells.len() * std::mem::size_of::<u32>()
            + self.rank_of_cell.len() * std::mem::size_of::<u32>()
            + self.core_len.len() * std::mem::size_of::<u32>();
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
    /// grid in one chunk per pool thread under `config.limits`' byte budget
    /// ([`Phase::GridBuild`]), labels core points on the pool, one task per
    /// cell, checkpointing `ctl` once per cell, and then moves every cell's
    /// core points to the front of its storage ([`Phase::Labeling`] covers
    /// both). The grid build and the partition are atomic: they never stop
    /// for the budget, so a tripped budget cannot truncate the grid. Under
    /// `abort` the caller converts the observed expiry to the typed error
    /// after this returns; under `partial` the unlabeled cells simply come
    /// back non-core. A panic in any of these tasks follows
    /// `config.recovery`.
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
        let span = stats.now();
        // The grid build refuses non-finite coordinates itself, so the
        // finiteness pass runs only on a refusal: a non-finite point is then
        // reported as such, ahead of any other error, as if checked first.
        let mut grid = exec.build_grid(points, params.eps()).map_err(|e| {
            crate::validate::check_points_finite(points)
                .err()
                .unwrap_or(e)
        })?;
        stats.finish(Phase::GridBuild, span);
        let span = stats.now();
        let is_core = label_core_points(points, &grid, params, exec)?;
        let core_len_of_cell = exec.partition_core_first(&mut grid, &is_core)?;
        let mut core_cells = Vec::new();
        let mut rank_of_cell = vec![u32::MAX; grid.num_cells()];
        let mut core_len = Vec::new();
        for (ci, &len) in core_len_of_cell.iter().enumerate() {
            if len > 0 {
                rank_of_cell[ci] = core_cells.len() as u32;
                core_cells.push(ci as u32);
                core_len.push(len);
            }
        }
        stats.finish(Phase::Labeling, span);
        Ok(CoreCells {
            params,
            grid,
            is_core,
            core_cells,
            rank_of_cell,
            core_len,
        })
    }

    /// Number of core cells (vertices of `G`).
    pub fn num_core_cells(&self) -> usize {
        self.core_cells.len()
    }

    /// Total number of core points.
    pub fn num_core_points(&self) -> usize {
        self.core_len.iter().map(|&l| l as usize).sum()
    }

    /// Ids of rank `r`'s core points, ascending.
    pub fn core_points(&self, r: usize) -> &[u32] {
        &self.grid.points_of(self.core_cells[r])[..self.core_len[r] as usize]
    }

    /// Structure-of-arrays view of rank `r`'s core points, in
    /// [`CoreCells::core_points`] order — the input of the blocked distance
    /// kernels ([`dbscan_geom::kernels`]).
    pub fn core_block(&self, r: usize) -> SoaBlock<'_, D> {
        self.grid
            .cell_block(self.core_cells[r])
            .sub(0, self.core_len[r] as usize)
    }

    /// Ids of the non-core points of grid cell `cell`, ascending.
    pub fn non_core_points(&self, cell: u32) -> &[u32] {
        let core = match self.rank_of_cell[cell as usize] {
            u32::MAX => 0,
            r => self.core_len[r as usize] as usize,
        };
        &self.grid.points_of(cell)[core..]
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
        let len1 = u64::from(self.core_len[r1]);
        let mut weight = 0u64;
        self.for_candidate_partners(r1, |r2| {
            weight += len1 * u64::from(self.core_len[r2]);
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
        let all: Vec<u32> = (0..cc.num_core_cells())
            .flat_map(|r| cc.core_points(r))
            .copied()
            .collect();
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
                    cc.core_points(r1),
                    cc.core_points(r2),
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
