//! `GridIndex::count_within_eps` settles whole ε-neighbor cells from their
//! exact preimage boxes and scans only the cells the sphere cuts. The count
//! must still be exactly the brute-force count, clamped to the cap, on the
//! inputs where a box test could go wrong: points a few ulps from cell
//! faces, points at exactly ε from the query on a box corner or face,
//! duplicates, and cells so far out that they have no box.
//!
//! Each case is seeded; a failure message names the dimension and seed.

use dbscan_geom::grid::base_side;
use dbscan_geom::{BallCover, CellCoord, Point};
use dbscan_index::GridIndex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SEEDS: std::ops::Range<u64> = 0..12;
const CAPS: [usize; 6] = [1, 2, 3, 5, 9, usize::MAX];

/// `x` moved by `k` ulps along the total order of `f64`.
fn ulps(x: f64, k: i64) -> f64 {
    let mut x = x;
    for _ in 0..k.unsigned_abs() {
        x = if k > 0 { x.next_up() } else { x.next_down() };
    }
    x
}

/// A point at exactly `eps_sq` (as `dist_sq` computes it) from `anchor`,
/// offset along `dir` (`dir[0] != 0`), or `None` if a few ulps of search on
/// dimension 0 find none.
fn at_exact_eps<const D: usize>(anchor: &Point<D>, dir: [f64; D], eps_sq: f64) -> Option<Point<D>> {
    let norm = dir.iter().map(|d| d * d).sum::<f64>().sqrt();
    let eps = eps_sq.sqrt();
    let mut p = Point(std::array::from_fn(|i| anchor[i] + dir[i] / norm * eps));
    let start = p[0];
    (-8..=8).find_map(|k| {
        p.0[0] = ulps(start, k);
        (p.dist_sq(anchor) == eps_sq).then_some(p)
    })
}

/// Points around a few neighboring cells near `origin_cell`: random ones,
/// ones within ±3 ulps of cell faces, duplicates, and pairs at exactly ε,
/// some of them on box corners and faces.
fn near_points<const D: usize>(rng: &mut StdRng, eps: f64, origin_cell: i64) -> Vec<Point<D>> {
    let side = base_side::<D>(eps);
    let eps_sq = eps * eps;
    let mut pts: Vec<Point<D>> = Vec::new();
    let random_cell = |rng: &mut StdRng| {
        CellCoord::<D>(std::array::from_fn(|_| {
            origin_cell + rng.gen_range(-2i64..=2)
        }))
    };
    for _ in 0..40 {
        let b = random_cell(rng)
            .preimage(side)
            .expect("near cells have boxes");
        pts.push(Point(std::array::from_fn(|i| {
            b.lo[i] + rng.gen::<f64>() * (b.hi[i] - b.lo[i])
        })));
    }
    // Within ±3 ulps of a face, in one dimension or all of them.
    for _ in 0..40 {
        let b = random_cell(rng).preimage(side).unwrap();
        let all = rng.gen::<bool>();
        let dim = rng.gen_range(0..D);
        pts.push(Point(std::array::from_fn(|i| {
            if all || i == dim {
                let face = if rng.gen::<bool>() { b.lo[i] } else { b.hi[i] };
                ulps(face, rng.gen_range(-3i64..=3))
            } else {
                b.lo[i] + rng.gen::<f64>() * (b.hi[i] - b.lo[i])
            }
        })));
    }
    // Exact-ε ties: a point on a box's `lo` corner and a query point at
    // exactly ε from it beyond the box's middle in every dimension, so that
    // corner is the box's far corner; and one on a face point, so that the
    // face is the box's near face.
    for _ in 0..8 {
        let b = random_cell(rng).preimage(side).unwrap();
        let corner = Point(b.lo);
        let dir: [f64; D] = std::array::from_fn(|_| 0.5 + rng.gen::<f64>());
        if let Some(q) = at_exact_eps(&corner, dir, eps_sq) {
            pts.extend([corner, q]);
        }
        let face = Point(std::array::from_fn(|i| {
            if i == 0 {
                b.lo[0]
            } else {
                b.lo[i] + rng.gen::<f64>() * (b.hi[i] - b.lo[i])
            }
        }));
        let mut dir = [0.0; D];
        dir[0] = -1.0;
        if let Some(q) = at_exact_eps(&face, dir, eps_sq) {
            pts.extend([face, q]);
        }
    }
    // Duplicates.
    for _ in 0..15 {
        let p = pts[rng.gen_range(0..pts.len())];
        pts.extend(std::iter::repeat_n(p, rng.gen_range(1..4)));
    }
    pts
}

/// A few points in cells whose index is past `2^52` in dimension 0, where
/// cells have no preimage box: a line of neighbors `ulp`s apart there.
fn boxless_points<const D: usize>(rng: &mut StdRng, eps: f64) -> Vec<Point<D>> {
    let side = base_side::<D>(eps);
    let x0 = 2f64.powi(53) * side;
    let step = (x0.next_up() - x0).max(side / 4.0);
    (0..12)
        .map(|j| {
            Point(std::array::from_fn(|i| {
                if i == 0 {
                    x0 + step * f64::from(rng.gen_range(0u32..6)) + step * f64::from(j % 2)
                } else {
                    rng.gen::<f64>() * eps
                }
            }))
        })
        .collect()
}

fn check<const D: usize>() {
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed ^ (D as u64) << 32);
        let eps = [1.0, 0.37, 5000.0, 3.3e-3][seed as usize % 4];
        let origin_cell = [0i64, -3, 1_000_003, -(1 << 40)][seed as usize / 4 % 4];
        let mut pts = near_points::<D>(&mut rng, eps, origin_cell);
        pts.extend(boxless_points::<D>(&mut rng, eps));
        let g = GridIndex::build(&pts, eps);
        let eps_sq = eps * eps;

        let mut settled = 0usize;
        let mut boxless = 0usize;
        for q in 0..pts.len() as u32 {
            let qp = &pts[q as usize];
            let brute = pts.iter().filter(|p| p.dist_sq(qp) <= eps_sq).count();
            let own = g.cell_of_point(q);
            for &nb in g.neighbors_of(own) {
                match g.ball_cover(nb, qp, eps_sq) {
                    BallCover::Straddles => {}
                    _ => settled += 1,
                }
                let coord = g.cells()[nb as usize].coord;
                boxless += usize::from(coord.preimage(g.side()).is_none());
            }
            for cap in CAPS {
                let got = g.count_within_eps(&pts, q, cap);
                assert_eq!(
                    got.count,
                    brute.min(cap),
                    "D = {D}, seed {seed}: q = {q} {qp:?}, cap {cap}, eps {eps}"
                );
                assert!(got.examined <= pts.len(), "D = {D}, seed {seed}");
            }
        }
        assert!(settled > 0, "D = {D}, seed {seed}: no cell was box-settled");
        assert!(
            boxless > 0,
            "D = {D}, seed {seed}: no box-less neighbor cell"
        );
    }
}

#[test]
fn box_settled_count_equals_brute_force_1d() {
    check::<1>();
}

#[test]
fn box_settled_count_equals_brute_force_2d() {
    check::<2>();
}

#[test]
fn box_settled_count_equals_brute_force_3d() {
    check::<3>();
}

#[test]
fn box_settled_count_equals_brute_force_5d() {
    check::<5>();
}

/// The exact-ε pairs are really built: every dimension gets ties.
#[test]
fn the_inputs_hold_exact_eps_ties() {
    fn ties<const D: usize>() -> usize {
        let mut rng = StdRng::seed_from_u64(7);
        let eps = 0.37;
        let pts = near_points::<D>(&mut rng, eps, -3);
        let mut n = 0;
        for (i, p) in pts.iter().enumerate() {
            n += pts[i + 1..]
                .iter()
                .filter(|q| q.dist_sq(p) == eps * eps)
                .count();
        }
        n
    }
    assert!(ties::<1>() > 0);
    assert!(ties::<2>() > 0);
    assert!(ties::<3>() > 0);
    assert!(ties::<5>() > 0);
}
