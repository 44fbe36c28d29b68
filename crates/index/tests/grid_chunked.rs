//! The chunked grid build equals the one-chunk build, whatever the chunk
//! count and whatever order or threads the chunk tasks run in: same cell
//! order, point ids, cell of every point, neighbor lists and bit-identical
//! SoA lanes, and the same refusal for bad input.

use dbscan_geom::{CellCoord, CellError, Point};
use dbscan_index::{BuildError, GridIndex};
use std::sync::atomic::{AtomicUsize, Ordering};

const CHUNKS: [usize; 4] = [1, 2, 3, 7];

/// A chunk runner, as `GridIndex::try_build_chunked` takes it.
type Runner = fn(usize, &(dyn Fn(usize) + Sync)) -> Result<(), BuildError>;

/// Runs the tasks last to first, on the caller.
fn reversed(tasks: usize, task: &(dyn Fn(usize) + Sync)) -> Result<(), BuildError> {
    (0..tasks).rev().for_each(task);
    Ok(())
}

/// Runs the even tasks on one scoped thread and the odd ones on another.
fn two_threads(tasks: usize, task: &(dyn Fn(usize) + Sync)) -> Result<(), BuildError> {
    std::thread::scope(|s| {
        for parity in 0..2 {
            s.spawn(move || (parity..tasks).step_by(2).for_each(task));
        }
    });
    Ok(())
}

/// Deterministic coordinates in `[0, span)`.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, span: f64) -> f64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64 * span
    }
}

/// Seed-spreader-style data: a random walk that drops points around its
/// current position and restarts at a random spot ten times, plus a little
/// uniform noise — consecutive points mostly share a cell, as in the paper's
/// SS sets.
fn seed_spreader<const D: usize>(n: usize, seed: u64) -> Vec<Point<D>> {
    let mut rng = Lcg(seed);
    let span = 100.0;
    let mut at: [f64; D] = std::array::from_fn(|_| rng.next(span));
    (0..n)
        .map(|i| {
            if i % (n / 10).max(1) == 0 {
                at = std::array::from_fn(|_| rng.next(span));
            }
            if i % 50 == 0 {
                return Point(std::array::from_fn(|_| rng.next(span)));
            }
            for x in &mut at {
                *x += rng.next(0.2) - 0.1;
            }
            Point(std::array::from_fn(|d| at[d] + rng.next(1.0)))
        })
        .collect()
}

/// Asserts that two grids are the same structure, lanes bit for bit.
fn assert_same<const D: usize>(a: &GridIndex<D>, b: &GridIndex<D>, n: usize, what: &str) {
    assert_eq!(a.num_cells(), b.num_cells(), "{what}: cell count");
    for (ca, cb) in a.cells().iter().zip(b.cells()) {
        assert_eq!(ca.coord, cb.coord, "{what}: cell order");
        assert_eq!(ca.len(), cb.len(), "{what}: cell size");
    }
    for c in 0..a.num_cells() as u32 {
        assert_eq!(a.points_of(c), b.points_of(c), "{what}: ids of cell {c}");
        assert_eq!(
            a.neighbors_of(c),
            b.neighbors_of(c),
            "{what}: neighbors of {c}"
        );
        let (la, lb) = (a.cell_block(c), b.cell_block(c));
        for d in 0..D {
            let bits = |lane: &[f64]| lane.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(la.lane(d)),
                bits(lb.lane(d)),
                "{what}: lane {d} of {c}"
            );
        }
    }
    for p in 0..n as u32 {
        assert_eq!(
            a.cell_of_point(p),
            b.cell_of_point(p),
            "{what}: cell of {p}"
        );
    }
}

/// Builds `pts` at every chunk count under both test runners and compares
/// each result with the one-chunk build.
fn check_all<const D: usize>(pts: &[Point<D>], eps: f64, what: &str) {
    let base = GridIndex::try_build(pts, eps, None).unwrap();
    // Ids ascend within every cell, and the cells hold every point once.
    let mut seen = 0;
    for c in 0..base.num_cells() as u32 {
        let ids = base.points_of(c);
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "{what}: cell {c}");
        seen += ids.len();
    }
    assert_eq!(seen, pts.len(), "{what}: every point bucketed once");
    let more_than_points = pts.len() + 3;
    for chunks in CHUNKS.into_iter().chain([more_than_points]) {
        for (runner, run) in [("reversed", reversed as Runner), ("threads", two_threads)] {
            let g = GridIndex::try_build_chunked(pts, eps, None, chunks, run).unwrap();
            assert_same(
                &g,
                &base,
                pts.len(),
                &format!("{what} chunks={chunks} {runner}"),
            );
        }
    }
}

#[test]
fn seed_spreader_data_matches_at_every_chunk_count() {
    for seed in [11u64, 12, 13] {
        check_all(
            &seed_spreader::<3>(3_000, seed),
            2.0,
            &format!("ss3d seed={seed}"),
        );
        check_all(
            &seed_spreader::<5>(2_000, seed),
            3.0,
            &format!("ss5d seed={seed}"),
        );
    }
}

#[test]
fn degenerate_layouts_match() {
    let p = |x: f64, y: f64| Point([x, y]);
    // Every point in one cell.
    let one_cell: Vec<_> = (0..50).map(|i| p(0.1 + i as f64 * 1e-3, 0.2)).collect();
    check_all(&one_cell, 1.0, "one cell");
    // Exact duplicates.
    check_all(&vec![p(3.0, -4.0); 40], 1.0, "duplicates");
    // Points alternating between two cells: the last-cell memo misses on
    // every point.
    let alternating: Vec<_> = (0..41)
        .map(|i| if i % 2 == 0 { p(0.1, 0.1) } else { p(5.1, 0.1) })
        .collect();
    check_all(&alternating, 1.0, "alternating");
    check_all(&[p(7.0, 7.0)], 1.0, "one point");
    check_all::<2>(&[], 1.0, "empty");
}

/// The error text names the offending value, which identifies the point.
fn refusal<const D: usize>(pts: &[Point<D>], chunks: usize, run: Runner) -> String {
    match GridIndex::try_build_chunked(pts, 1.0, None, chunks, run) {
        Err(e) => format!("{e:?}"),
        Ok(_) => panic!("a bad coordinate must be refused (chunks={chunks})"),
    }
}

#[test]
fn bad_coordinates_in_later_chunks_give_the_sequential_error() {
    let seed = 21u64;
    let good = seed_spreader::<2>(400, seed);
    // A NaN alone in the last chunk.
    let mut nan = good.clone();
    nan[390] = Point([1.0, f64::NAN]);
    // An overflow in a middle chunk and a NaN in a later one: the lower id
    // (the overflow) must be the one reported.
    let mut both = good.clone();
    both[210] = Point([2e300, 0.0]);
    both[350] = Point([f64::NAN, 0.0]);
    // Two overflows in the same late chunk: the lower id wins.
    let mut two = good;
    two[300] = Point([0.0, -3e300]);
    two[301] = Point([4e300, 0.0]);
    for (pts, want) in [
        (&nan, "Overflow { dim: 1, value: NaN"),
        (&both, "Overflow { dim: 0, value: 2e300"),
        (&two, "Overflow { dim: 1, value: -3e300"),
    ] {
        let sequential = format!("{:?}", GridIndex::try_build(pts, 1.0, None).err().unwrap());
        assert!(sequential.contains(want), "seed={seed}: {sequential}");
        for chunks in CHUNKS.into_iter().chain([pts.len() + 3]) {
            for run in [reversed as Runner, two_threads] {
                assert_eq!(
                    refusal(pts, chunks, run),
                    sequential,
                    "seed={seed} chunks={chunks}"
                );
            }
        }
    }
    assert!(matches!(
        GridIndex::try_build(&nan, 1.0, None),
        Err(BuildError::Cell(CellError::Overflow { dim: 1, .. }))
    ));
}

#[test]
fn byte_budget_refuses_before_the_large_allocations() {
    let pts = seed_spreader::<2>(1_000, 5);
    let calls = AtomicUsize::new(0);
    let counting = |tasks: usize, task: &(dyn Fn(usize) + Sync)| {
        calls.fetch_add(1, Ordering::Relaxed);
        reversed(tasks, task)
    };
    // Below the per-point floor: refused before the bucket pass runs.
    let err = GridIndex::try_build_chunked(&pts, 1.0, Some(64), 3, counting).err();
    assert!(matches!(err, Some(BuildError::Budget { .. })), "{err:?}");
    assert_eq!(calls.load(Ordering::Relaxed), 0, "no pass may run");
    // Exactly the per-point floor: the bucket pass runs, and the cell table
    // then tips the estimate over before ids and lanes are allocated.
    let floor = (pts.len() * (8 + 8 * 2)) as u64;
    let err = GridIndex::try_build_chunked(&pts, 1.0, Some(floor), 3, counting).err();
    assert!(matches!(err, Some(BuildError::Budget { .. })), "{err:?}");
    assert_eq!(
        calls.load(Ordering::Relaxed),
        1,
        "only the bucket pass may run"
    );
    // The one-chunk build refuses the same way.
    assert_eq!(
        GridIndex::try_build(&pts, 1.0, Some(floor)).err(),
        err,
        "same refusal at one chunk"
    );
}

#[test]
fn partition_moves_selected_points_first_and_keeps_lanes_aligned() {
    let pts = seed_spreader::<3>(2_000, 8);
    let keep = |p: u32| p % 3 != 1 && p % 7 != 2;
    let before = GridIndex::build(&pts, 2.0);
    for chunks in CHUNKS {
        let mut g = GridIndex::build(&pts, 2.0);
        let counts = g.partition_cells(keep, chunks, reversed).unwrap();
        assert_eq!(counts.len(), g.num_cells());
        for c in 0..g.num_cells() as u32 {
            let ids = g.points_of(c);
            let k = counts[c as usize] as usize;
            let (head, tail) = ids.split_at(k);
            let want_head: Vec<u32> = before
                .points_of(c)
                .iter()
                .copied()
                .filter(|&p| keep(p))
                .collect();
            let want_tail: Vec<u32> = before
                .points_of(c)
                .iter()
                .copied()
                .filter(|&p| !keep(p))
                .collect();
            assert_eq!(head, want_head, "chunks={chunks} cell {c}");
            assert_eq!(tail, want_tail, "chunks={chunks} cell {c}");
            let block = g.cell_block(c);
            for (j, &id) in ids.iter().enumerate() {
                assert_eq!(
                    block.point(j),
                    pts[id as usize],
                    "chunks={chunks} cell {c} slot {j}"
                );
            }
        }
    }
}

/// The float `k` steps from `x` in the total order of `f64`.
fn ulps(x: f64, k: i64) -> f64 {
    let flip = |b: i64| b ^ (((b >> 63) as u64) >> 1) as i64;
    f64::from_bits(flip(flip(x.to_bits() as i64) + k) as u64)
}

/// Points whose coordinates mostly lie inside one cell and otherwise sit
/// within a few ulps of a cell boundary `m·side` or at exact ±0.0: runs
/// inside one cell, steps to a neighbouring cell, and jumps to far cells
/// (up to 2^45 cells out, negative ones included).
fn boundary_points<const D: usize>(n: usize, side: f64, seed: u64) -> Vec<Point<D>> {
    let mut rng = Lcg(seed);
    let mut pick = |k: u64| (rng.next(k as f64) as u64).min(k - 1) as i64;
    let mut cell = [0i64; D];
    (0..n)
        .map(|_| {
            match pick(40) {
                0 => cell = std::array::from_fn(|_| (pick(1 << 46) - (1 << 45)) * pick(2)),
                1..=6 => cell[pick(D as u64) as usize] += pick(3) - 1,
                _ => {}
            }
            Point(std::array::from_fn(|d| match pick(24) {
                0 => 0.0,
                1 => -0.0,
                2..=8 => ulps((cell[d] + pick(2)) as f64 * side, pick(7) - 3),
                _ => (cell[d] as f64 + pick(1000) as f64 / 1000.0) * side,
            }))
        })
        .collect()
}

/// Every point's cell is the one `CellCoord::try_of` names, at 1, 2 and 3
/// chunks, on coordinates a few ulps either side of cell boundaries — so a
/// bucket pass that trusts a preimage box one ulp too wide puts some point
/// in the wrong cell. A bad coordinate put in the middle of a run of one
/// cell is still refused with the error of the lowest offending id.
#[test]
fn bucketing_matches_try_of_at_cell_boundaries() {
    fn check<const D: usize>(seed: u64) {
        for eps in [1e-3, 0.75, 3.0, 5000.0, 1e9] {
            let side = dbscan_geom::grid::base_side::<D>(eps);
            let pts = boundary_points::<D>(4_000, side, seed);
            let what = format!("seed={seed} D={D} eps={eps:e}");
            for chunks in [1, 2, 3] {
                let g = GridIndex::try_build_chunked(&pts, eps, None, chunks, reversed).unwrap();
                for (i, p) in pts.iter().enumerate() {
                    let want = CellCoord::try_of(p, side).unwrap();
                    let got = g.cells()[g.cell_of_point(i as u32) as usize].coord;
                    assert_eq!(got, want, "{what} chunks={chunks} point {i} {p:?}");
                }
            }
            // Bad coordinates at the start of the second half of a run of
            // one cell, two per input: the lower id must be reported.
            let runs: Vec<usize> = (2..pts.len())
                .filter(|&i| {
                    let c = |j: usize| CellCoord::try_of(&pts[j], side).unwrap();
                    c(i - 2) == c(i - 1) && c(i - 1) == c(i)
                })
                .map(|i| i - 1)
                .collect();
            assert!(runs.len() > 20, "{what}: the input has runs");
            let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 3e300, -4e300];
            for (k, &x) in bad.iter().enumerate() {
                let (first, second) = (runs[runs.len() / 3 + k], runs[2 * runs.len() / 3]);
                let mut broken = pts.clone();
                broken[first][k % D] = x;
                broken[second][(k + 1) % D] = bad[(k + 1) % bad.len()];
                let want = broken
                    .iter()
                    .find_map(|p| CellCoord::try_of(p, side).err())
                    .unwrap();
                for chunks in [1, 2, 3] {
                    let got = GridIndex::try_build_chunked(&broken, eps, None, chunks, reversed)
                        .err()
                        .map(|e| format!("{e:?}"));
                    assert_eq!(
                        got,
                        Some(format!("{:?}", BuildError::Cell(want))),
                        "{what} chunks={chunks} bad id {first}"
                    );
                }
            }
        }
    }
    let seed = 0x5eed_b0c5;
    println!("bucketing_matches_try_of_at_cell_boundaries: seed {seed}");
    check::<1>(seed);
    check::<2>(seed + 1);
    check::<3>(seed + 2);
    check::<5>(seed + 3);
}
