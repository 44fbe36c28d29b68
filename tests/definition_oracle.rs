//! Validation against a from-the-definitions oracle.
//!
//! Independently of all five algorithms, this test computes the unique DBSCAN
//! clustering straight from Definitions 1–3: brute-force core labeling, a
//! union-find over core points joined whenever two cores are within ε (the
//! transitive closure of density-reachability restricted to cores), and border
//! assignment to every cluster with a core within ε. Every exact algorithm must
//! match it, and every ρ-approximate one must be sandwiched between the oracle
//! at ε and at ε(1+ρ) (Theorem 3). The algorithms run through `cluster` from a
//! table of `Spec`s, sequentially and on two workers. Besides small uniform
//! inputs, clumped instances with cells past the brute-force limit cover
//! every step of the exact edge front end and its fallback structures.

use dbscan_revisited::core::algorithms::{
    cluster, Algorithm, ApproxOracle, BcpStrategy, Cit08Config, Kdd96Index, Spec,
};
use dbscan_revisited::core::bcp::{self, Settled};
use dbscan_revisited::core::unionfind::UnionFind;
use dbscan_revisited::core::{Assignment, Clustering, CoreCells, DbscanParams, NoStats, RunCtl};
use dbscan_revisited::eval::same_clustering;
use dbscan_revisited::eval::sandwich::{check_sandwich, SandwichOutcome};
use dbscan_revisited::geom::Point;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// O(n²) reference DBSCAN from the definitions.
fn oracle<const D: usize>(points: &[Point<D>], params: DbscanParams) -> Clustering {
    let n = points.len();
    let eps_sq = params.eps() * params.eps();
    let is_core: Vec<bool> = points
        .iter()
        .map(|p| points.iter().filter(|q| p.dist_sq(q) <= eps_sq).count() >= params.min_pts())
        .collect();

    let mut uf = UnionFind::new(n);
    for i in 0..n {
        if !is_core[i] {
            continue;
        }
        for j in (i + 1)..n {
            if is_core[j] && points[i].dist_sq(&points[j]) <= eps_sq {
                uf.union(i as u32, j as u32);
            }
        }
    }
    // Compact cluster ids over core-point components, in first-core order.
    let mut cluster_of_root: Vec<Option<u32>> = vec![None; n];
    let mut num_clusters = 0u32;
    let mut assignments = vec![Assignment::Noise; n];
    for i in 0..n {
        if is_core[i] {
            let root = uf.find(i as u32) as usize;
            let c = *cluster_of_root[root].get_or_insert_with(|| {
                let c = num_clusters;
                num_clusters += 1;
                c
            });
            assignments[i] = Assignment::Core(c);
        }
    }
    for i in 0..n {
        if is_core[i] {
            continue;
        }
        let mut cs: Vec<u32> = (0..n)
            .filter(|&j| is_core[j] && points[i].dist_sq(&points[j]) <= eps_sq)
            .map(|j| cluster_of_root[uf.find(j as u32) as usize].unwrap())
            .collect();
        cs.sort_unstable();
        cs.dedup();
        if !cs.is_empty() {
            assignments[i] = Assignment::Border(cs);
        }
    }
    Clustering {
        assignments,
        num_clusters: num_clusters as usize,
    }
}

fn random_points<const D: usize>(n: usize, span: f64, seed: u64) -> Vec<Point<D>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.gen::<f64>() * span;
            }
            Point(c)
        })
        .collect()
}

/// The approximation ratio of the ρ-approximate rows.
const RHO: f64 = 0.05;

/// Every algorithm variant: the four BCP strategies, both approximate
/// oracles, the three KDD'96 indexes, CIT08, and — on 2-D inputs —
/// Gunawan's algorithm.
fn algorithms(two_d: bool) -> Vec<Algorithm> {
    let mut all: Vec<Algorithm> = [
        BcpStrategy::TreeAssisted,
        BcpStrategy::BruteForceOnly,
        BcpStrategy::FullBcp,
        BcpStrategy::FullBruteBcp,
    ]
    .map(Algorithm::Exact)
    .into();
    for oracle in [ApproxOracle::ProbeFirst, ApproxOracle::CounterOnly] {
        all.push(Algorithm::Approx { rho: RHO, oracle });
    }
    for index in [Kdd96Index::KdTree, Kdd96Index::RTree, Kdd96Index::Linear] {
        all.push(Algorithm::Kdd96(index));
    }
    all.push(Algorithm::Cit08(Cit08Config::default()));
    if two_d {
        all.push(Algorithm::Gunawan2d);
    }
    all
}

/// Runs every algorithm of [`algorithms`] at 1 and 2 threads and checks it
/// against the oracle: an exact result must equal it, an approximate one must
/// pass the sandwich check against the oracle at ε and at ε(1+ρ).
fn check_all<const D: usize>(pts: &[Point<D>], params: DbscanParams, what: &str) {
    let truth = oracle(pts, params);
    truth.validate().unwrap();
    let outer = oracle(pts, params.inflate(RHO));
    for algorithm in algorithms(D == 2) {
        for threads in [1, 2] {
            let mut spec = Spec::new(algorithm, params);
            spec.exec.threads = Some(threads);
            let name = format!("{algorithm:?} threads={threads} ({what})");
            let c = cluster(pts, None, &spec, &NoStats, &RunCtl::unlimited())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            if let Algorithm::Approx { .. } = algorithm {
                let outcome = check_sandwich(&truth, &c, &outer);
                assert_eq!(outcome, SandwichOutcome::Holds, "{name}");
            } else {
                assert!(
                    same_clustering(&truth, &c),
                    "{name} differs from the definition oracle"
                );
            }
        }
    }
}

#[test]
fn algorithms_match_definition_oracle_2d() {
    for seed in 0..5u64 {
        let pts = random_points::<2>(250, 20.0, seed);
        for (eps, min_pts) in [(1.0, 3), (2.0, 6), (0.5, 2), (5.0, 20)] {
            let params = DbscanParams::new(eps, min_pts).unwrap();
            check_all(
                &pts,
                params,
                &format!("seed {seed}, eps {eps}, MinPts {min_pts}"),
            );
        }
    }
}

#[test]
fn algorithms_match_definition_oracle_3d_and_7d() {
    for seed in 0..3u64 {
        let pts = random_points::<3>(200, 10.0, seed);
        check_all(
            &pts,
            DbscanParams::new(1.2, 4).unwrap(),
            &format!("3d seed {seed}"),
        );

        let pts7 = random_points::<7>(150, 6.0, seed + 100);
        check_all(
            &pts7,
            DbscanParams::new(2.5, 5).unwrap(),
            &format!("7d seed {seed}"),
        );
    }
}

#[test]
fn oracle_matches_on_degenerate_configurations() {
    // Clustered duplicates and exact-distance ties.
    let mut pts: Vec<Point<2>> = vec![Point([0.0, 0.0]); 10];
    pts.extend((0..10).map(|i| Point([i as f64, 0.0])));
    pts.push(Point([3.0, 4.0])); // at distance exactly 5 from origin
    for (eps, min_pts) in [(1.0, 3), (5.0, 11), (0.1, 2)] {
        let params = DbscanParams::new(eps, min_pts).unwrap();
        check_all(&pts, params, &format!("eps {eps} MinPts {min_pts}"));
    }
}

/// `n` points on an 8×8 lattice of pitch 0.001 around `(x, y)`, in id order.
fn clump(n: usize, x: f64, y: f64) -> impl Iterator<Item = Point<2>> {
    (0..n).map(move |i| {
        let (dx, dy) = ((i % 8) as f64 - 3.5, (i / 8 % 8) as f64 - 3.5);
        Point([x + dx * 0.001, y + dy * 0.001])
    })
}

/// Clumped 2-D instances at ε = 1, each with one candidate pair of core
/// cells of 150 points a side, whose closest pairs the budgeted probe never
/// sees: that side's first 128 ids are beyond ε of the other cell. Each
/// reaches a different step of the exact front end
/// (`dbscan_revisited::core::bcp::front_end`) past the probe. The cells are
/// `(0, 0)` and `(2, 0)` of the side-1/√2 grid, except in the last
/// instance, whose four clumps no step can settle and which falls through
/// to the kd-tree or the Lemma 5 counter.
fn front_end_instances() -> Vec<(Settled, Vec<Point<2>>)> {
    vec![
        // Core boxes 1.1 apart.
        (
            Settled::BoxesApart,
            clump(150, 0.35, 0.35)
                .chain(clump(150, 1.45, 0.35))
                .collect(),
        ),
        // Only the two 20-point clumps lie within ε of the other box; the
        // scan over them finds the pair 0.8 apart.
        (
            Settled::Filtered(true),
            clump(130, 0.05, 0.35)
                .chain(clump(20, 0.65, 0.35))
                .chain(clump(130, 2.05, 0.35))
                .chain(clump(20, 1.45, 0.35))
                .collect(),
        ),
        // One side keeps 120 points and the other all 150, too many to
        // scan; the far clump sits by the empty corner of the first cell's
        // box, 1.08 from its points, and the near one 0.85 from them.
        (
            Settled::Nearest,
            clump(120, 0.65, 0.05)
                .chain(clump(30, 0.05, 0.65))
                .chain(clump(128, 1.55, 0.65))
                .chain(clump(22, 1.5, 0.05))
                .collect(),
        ),
        // Two clumps per side, each within ε of the other side's box, no
        // cross pair within ε (the closest are about 1.05 apart).
        (
            Settled::Open,
            clump(80, 0.639, 0.444)
                .chain(clump(80, 0.168, 0.059))
                .chain(clump(80, -0.190, 1.102))
                .chain(clump(80, -0.596, 0.779))
                .collect(),
        ),
    ]
}

#[test]
fn oracle_matches_above_the_brute_force_limit() {
    let params = DbscanParams::new(1.0, 5).unwrap();
    for (route, pts) in front_end_instances() {
        let cc = CoreCells::build(&pts, params);
        let mut settled = Vec::new();
        for r1 in 0..cc.num_core_cells() {
            cc.for_candidate_partners(r1, |r2| {
                let (a, b) = (cc.core_block(r1), cc.core_block(r2));
                assert!(a.len().min(b.len()) > 130, "{route:?}: cells too small");
                settled.push(bcp::front_end(&a, &b, params.eps()));
            });
        }
        assert_eq!(settled, [route]);
        check_all(&pts, params, &format!("front end {route:?}"));
    }
}
