//! Border-point assignment (Section 2.2, "Assigning Border Points").
//!
//! A non-core point `q` joins the cluster of every core point within distance ε.
//! Candidate core points can only live in `q`'s own cell or its ε-neighbor cells.
//! Two optimizations keep this cheap without changing the result:
//!
//! * all core points of one cell share a cluster (any two same-cell points are
//!   within ε, so same-cell core points are directly density-reachable), so a
//!   cell whose cluster is already collected is skipped outright;
//! * a cell is settled from its exact preimage box when it can be: a cell
//!   wholly outside `B(q, ε)` is rejected, and a cell wholly inside it, whose
//!   core prefix is non-empty, is accepted, both without a distance;
//! * within any other cell, scanning stops at the first core point within ε.

use crate::cells::CoreCells;
use dbscan_geom::kernels::any_within_block;
use dbscan_geom::{BallCover, Point};

/// Returns the sorted, deduplicated list of cluster ids owning a core point
/// within ε of the non-core point `q`. Empty means `q` is noise.
pub fn assign_border_clusters<const D: usize>(
    points: &[Point<D>],
    cc: &CoreCells<D>,
    component_of_rank: &[u32],
    q: u32,
) -> Vec<u32> {
    let eps_sq = cc.params.eps() * cc.params.eps();
    let q_pt = &points[q as usize];
    let own_cell = cc.grid.cell_of_point(q);

    let mut clusters: Vec<u32> = Vec::new();
    let consider = |cell: u32, clusters: &mut Vec<u32>| {
        let rank = cc.rank_of_cell[cell as usize];
        if rank == u32::MAX {
            return; // no core points in this cell
        }
        let cluster = component_of_rank[rank as usize];
        if clusters.contains(&cluster) {
            return; // this cluster is already attested
        }
        let attested = match cc.grid.ball_cover(cell, q_pt, eps_sq) {
            BallCover::Covered => true,
            BallCover::Disjoint => false,
            // Blocked scan over the core prefix of the cell's lanes — same
            // ∃-within-ε answer as the scalar id walk (identical
            // accumulation order; see `dbscan_geom::kernels`),
            // early-exiting between blocks.
            BallCover::Straddles => any_within_block(q_pt, &cc.core_block(rank as usize), eps_sq),
        };
        if attested {
            clusters.push(cluster);
        }
    };

    consider(own_cell, &mut clusters);
    for &nb in cc.grid.neighbors_of(own_cell) {
        consider(nb, &mut clusters);
    }
    clusters.sort_unstable();
    clusters
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::CoreCells;
    use crate::parallel::connect_with;
    use crate::types::DbscanParams;
    use dbscan_geom::point::p2;

    /// Rebuild the paper's Figure 2 topology: border point o10 belongs to two
    /// clusters at once.
    #[test]
    fn border_point_in_two_clusters() {
        // Left cluster: 4 points within ε of each other around (0, 0).
        // Right cluster: 4 points around (2.6, 0).
        // Bridge q at (1.3, 0): within ε=1.4 of exactly one core point on each
        // side, so its own ball holds 3 points (< MinPts 4) → border of both.
        let pts = vec![
            p2(0.0, 0.0),
            p2(-0.5, 0.0),
            p2(-0.2, 0.5),
            p2(-0.3, -0.4),
            p2(2.6, 0.0),
            p2(3.1, 0.0),
            p2(2.8, 0.5),
            p2(2.9, -0.4),
            p2(1.3, 0.0), // q
        ];
        let params = DbscanParams::new(1.4, 4).unwrap();
        let cc = CoreCells::build(&pts, params);
        assert!(!cc.is_core[8], "bridge point must not be core");
        let mut uf = connect_with(&pts, &cc, 1, |r1, r2| {
            crate::bcp::within_threshold_brute(
                &pts,
                cc.core_points(r1),
                cc.core_points(r2),
                params.eps(),
            )
        });
        let (labels, k) = uf.compact_labels();
        assert_eq!(k, 2, "two clusters expected");
        let clusters = assign_border_clusters(&pts, &cc, &labels, 8);
        assert_eq!(
            clusters.len(),
            2,
            "o10-style point belongs to both clusters"
        );
    }

    #[test]
    fn faraway_point_gets_no_clusters() {
        let pts = vec![p2(0.0, 0.0), p2(0.1, 0.0), p2(0.2, 0.0), p2(9.0, 9.0)];
        let params = DbscanParams::new(0.5, 3).unwrap();
        let cc = CoreCells::build(&pts, params);
        let mut uf = connect_with(&pts, &cc, 1, |_, _| true);
        let (labels, _) = uf.compact_labels();
        assert!(assign_border_clusters(&pts, &cc, &labels, 3).is_empty());
    }

    /// A border point whose ε-neighbor cells with core points are settled
    /// from their boxes alone: the cell beside it lies inside `B(q, ε)` and
    /// is accepted, the cell two over lies outside and is rejected.
    #[test]
    fn border_cells_are_settled_by_their_boxes() {
        // ε = √2 makes the cell side exactly 1: cell (i, j) = [i, i+1) × [j, j+1).
        let pts = vec![
            p2(0.9, 0.5), // q, in cell (0, 0)
            // Core points in cell (1, 0), within ε of q, ...
            p2(1.5, 0.5),
            p2(1.6, 0.5),
            // ... made core by two points in cell (2, 0) beyond q's reach.
            p2(2.5, 0.5),
            p2(2.6, 0.5),
            // A second cluster in cell (-2, 0), an ε-neighbor of q's cell
            // that holds no point within ε of q.
            p2(-1.5, 0.5),
            p2(-1.4, 0.5),
            p2(-1.6, 0.5),
            p2(-1.5, 0.6),
        ];
        let params = DbscanParams::new(2f64.sqrt(), 4).unwrap();
        let eps_sq = params.eps() * params.eps();
        let cc = CoreCells::build(&pts, params);
        assert_eq!(cc.grid.side(), 1.0);
        assert!(!cc.is_core[0] && cc.is_core[1..].iter().all(|&c| c));
        let (q, right, left) = (&pts[0], cc.grid.cell_of_point(1), cc.grid.cell_of_point(5));
        assert!(cc
            .grid
            .neighbors_of(cc.grid.cell_of_point(0))
            .contains(&left));
        assert_eq!(cc.grid.ball_cover(right, q, eps_sq), BallCover::Covered);
        assert_eq!(cc.grid.ball_cover(left, q, eps_sq), BallCover::Disjoint);

        let mut uf = connect_with(&pts, &cc, 1, |r1, r2| {
            crate::bcp::within_threshold_brute(
                &pts,
                cc.core_points(r1),
                cc.core_points(r2),
                params.eps(),
            )
        });
        let (labels, k) = uf.compact_labels();
        assert_eq!(k, 2);
        let cluster_of =
            |p: u32| labels[cc.rank_of_cell[cc.grid.cell_of_point(p) as usize] as usize];
        assert_ne!(cluster_of(1), cluster_of(5));
        assert_eq!(
            assign_border_clusters(&pts, &cc, &labels, 0),
            vec![cluster_of(1)]
        );
    }

    #[test]
    fn border_at_exact_eps_is_assigned() {
        // Core point at the origin with its other neighbors on the far side, so
        // that q = (3,4) sits at distance exactly 5 = ε from the core point but
        // has only 2 points in its own ball (< MinPts 4) → border, not core.
        let pts = vec![p2(0.0, 0.0), p2(-0.1, 0.0), p2(0.0, -0.1), p2(3.0, 4.0)];
        let params = DbscanParams::new(5.0, 4).unwrap();
        let cc = CoreCells::build(&pts, params);
        assert!(cc.is_core[0], "origin must be core (closed ball counts q)");
        assert!(!cc.is_core[3], "q must not be core");
        let mut uf = connect_with(&pts, &cc, 1, |_, _| true);
        let (labels, _) = uf.compact_labels();
        let clusters = assign_border_clusters(&pts, &cc, &labels, 3);
        assert_eq!(clusters.len(), 1, "exact-ε border point must be assigned");
    }
}
