//! The core-first layout of `CoreCells`: every cell keeps its core points as
//! a prefix of its ids and SoA lanes, so a rank's core block is a view of the
//! grid's own storage; and the grid under it is built whole even when the
//! run's budget has already tripped.

use dbscan_core::algorithms::{cluster, Algorithm, BcpStrategy, Spec};
use dbscan_core::kernels::SoaBlock;
use dbscan_core::labeling::label_core_points_brute;
use dbscan_core::parallel::ParConfig;
use dbscan_core::{
    CoreCells, DbscanError, DbscanParams, DeadlineConfig, DeadlinePolicy, NoStats, RunCtl,
};
use dbscan_geom::Point;
use dbscan_index::GridIndex;
use std::time::Duration;

/// Clustered points plus uniform noise in `[0, 30)^D`, so that cells mix
/// core and non-core points.
fn dataset<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut state = seed;
    let mut next = move |span: f64| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 11) as f64 / (1u64 << 53) as f64 * span
    };
    let centers: Vec<[f64; D]> = (0..6)
        .map(|_| std::array::from_fn(|_| next(30.0)))
        .collect();
    (0..n)
        .map(|i| match i % 3 {
            0 => Point(std::array::from_fn(|_| next(30.0))),
            _ => {
                let c = centers[i % centers.len()];
                Point(std::array::from_fn(|d| c[d] + next(3.0)))
            }
        })
        .collect()
}

fn build<const D: usize>(pts: &[Point<D>], p: DbscanParams, threads: usize) -> CoreCells<D> {
    let config = ParConfig::with_threads(Some(threads));
    CoreCells::try_build_ctl(pts, p, &config, &NoStats, &RunCtl::unlimited()).unwrap()
}

/// Checks the layout of `cc` against the definitions: the core prefix and
/// the non-core suffix of every cell, the core blocks, and the labels.
fn check_layout<const D: usize>(pts: &[Point<D>], cc: &CoreCells<D>, what: &str) {
    assert_eq!(
        cc.is_core,
        label_core_points_brute(pts, cc.params),
        "{what}: labels"
    );
    let mut core_seen = 0;
    for cell in 0..cc.grid.num_cells() as u32 {
        let all = cc.grid.points_of(cell);
        let non_core = cc.non_core_points(cell);
        let core = &all[..all.len() - non_core.len()];
        let rank = cc.rank_of_cell[cell as usize];
        assert_eq!(rank == u32::MAX, core.is_empty(), "{what}: rank of {cell}");
        if rank != u32::MAX {
            assert_eq!(cc.core_points(rank as usize), core, "{what}: cell {cell}");
        }
        assert!(
            core.iter().all(|&p| cc.is_core[p as usize]),
            "{what}: {cell}"
        );
        assert!(
            non_core.iter().all(|&p| !cc.is_core[p as usize]),
            "{what}: {cell}"
        );
        for part in [core, non_core] {
            assert!(
                part.windows(2).all(|w| w[0] < w[1]),
                "{what}: order in {cell}"
            );
        }
        // The cell's lanes follow its ids.
        let block = cc.grid.cell_block(cell);
        for (j, &p) in all.iter().enumerate() {
            assert_eq!(
                block.point(j),
                pts[p as usize],
                "{what}: cell {cell} slot {j}"
            );
        }
        core_seen += core.len();
    }
    assert_eq!(core_seen, cc.num_core_points(), "{what}: core count");
    assert_eq!(
        core_seen,
        cc.is_core.iter().filter(|&&c| c).count(),
        "{what}: every core point in a core prefix"
    );
    for r in 0..cc.num_core_cells() {
        let ids = cc.core_points(r);
        let want = SoaBlock::<D>::gather(pts, ids);
        let want = SoaBlock::<D>::from_contiguous(&want, ids.len());
        let got = cc.core_block(r);
        assert_eq!(got.len(), ids.len(), "{what}: rank {r}");
        for d in 0..D {
            let bits = |lane: &[f64]| lane.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(got.lane(d)),
                bits(want.lane(d)),
                "{what}: rank {r} lane {d}"
            );
        }
    }
}

#[test]
fn core_blocks_are_prefixes_of_the_cells_at_every_thread_count() {
    for seed in [1u64, 2, 3] {
        let pts2 = dataset::<2>(1_500, seed);
        let pts4 = dataset::<4>(1_200, seed);
        for threads in [1, 2, 3] {
            for (eps, min_pts) in [(0.8, 4), (1.5, 12)] {
                let p = DbscanParams::new(eps, min_pts).unwrap();
                let what = format!("seed={seed} threads={threads} eps={eps}");
                check_layout(&pts2, &build(&pts2, p, threads), &format!("2d {what}"));
                check_layout(&pts4, &build(&pts4, p, threads), &format!("4d {what}"));
            }
        }
    }
}

#[test]
fn approx_bytes_holds_no_copy_of_the_core_points() {
    let pts = dataset::<3>(2_000, 7);
    let p = DbscanParams::new(1.5, 5).unwrap();
    let cc = build(&pts, p, 2);
    assert!(cc.num_core_points() > 0);
    // Side tables only: one flag per point and one u32 per cell or rank
    // (`core_cells`, the core count, `rank_of_cell`). No term grows with the
    // number of core points beyond the grid itself.
    let side_tables = pts.len() + 4 * (2 * cc.num_core_cells() + cc.grid.num_cells());
    assert_eq!(
        cc.approx_bytes(),
        cc.grid.approx_bytes() + side_tables as u64
    );
    let grid = GridIndex::build(&pts, p.eps());
    assert_eq!(cc.grid.approx_bytes(), grid.approx_bytes());
}

fn expired(policy: DeadlinePolicy) -> RunCtl {
    RunCtl::new(&DeadlineConfig {
        budget: Some(Duration::ZERO),
        policy,
        degrade_rho: 0.05,
        stall_timeout: None,
    })
}

#[test]
fn a_tripped_budget_never_truncates_the_grid() {
    let pts = dataset::<2>(3_000, 11);
    let p = DbscanParams::new(0.8, 4).unwrap();
    let whole = GridIndex::build(&pts, p.eps());
    for threads in [1, 3] {
        // The budget is spent before the grid build starts, so every grid
        // task runs after the trip.
        let ctl = expired(DeadlinePolicy::Partial);
        let config = ParConfig::with_threads(Some(threads));
        let cc = CoreCells::try_build_ctl(&pts, p, &config, &NoStats, &ctl).unwrap();
        assert_eq!(cc.grid.num_cells(), whole.num_cells(), "threads={threads}");
        for (a, b) in cc.grid.cells().iter().zip(whole.cells()) {
            assert_eq!((a.coord, a.len()), (b.coord, b.len()), "threads={threads}");
        }
        for i in 0..pts.len() as u32 {
            let cell = cc.grid.cell_of_point(i);
            assert!(
                cc.grid.points_of(cell).contains(&i),
                "threads={threads} point {i}"
            );
        }

        let spec = |policy| {
            let mut spec = Spec::new(Algorithm::Exact(BcpStrategy::TreeAssisted), p);
            spec.exec.threads = Some(threads);
            (spec, expired(policy))
        };
        // `partial` still clusters every point...
        let (s, ctl) = spec(DeadlinePolicy::Partial);
        let out = cluster(&pts, None, &s, &NoStats, &ctl).unwrap();
        assert_eq!(out.assignments.len(), pts.len());
        out.validate().unwrap();
        // ...and `abort` still returns the typed error.
        let (s, ctl) = spec(DeadlinePolicy::Abort);
        let err = cluster(&pts, None, &s, &NoStats, &ctl).unwrap_err();
        assert!(
            matches!(
                err,
                DbscanError::DeadlineExceeded {
                    phase: "labeling",
                    ..
                }
            ),
            "threads={threads}: {err:?}"
        );
    }
}
