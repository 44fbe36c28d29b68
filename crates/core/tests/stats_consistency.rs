//! Consistency properties of the instrumentation layer (`dbscan_core::stats`):
//! the counter-decomposition invariant, sequential/parallel agreement, the
//! no-op-collector equivalence, and degenerate inputs.

use dbscan_core::algorithms::{
    cit08, cluster, grid_exact, grid_exact_instrumented, gunawan_2d, kdd96_kdtree, rho_approx,
    rho_approx_instrumented, Algorithm, ApproxOracle, BcpStrategy, Cit08Config, Kdd96Index, Spec,
};
use dbscan_core::{
    Clustering, Counter, DbscanParams, Phase, RunCtl, Stats, StatsReport, StatsSink,
};
use dbscan_geom::Point;
use proptest::prelude::*;

fn params(eps: f64, min_pts: usize) -> DbscanParams {
    DbscanParams::new(eps, min_pts).unwrap()
}

const EXACT: Algorithm = Algorithm::Exact(BcpStrategy::TreeAssisted);
const KDD96: Algorithm = Algorithm::Kdd96(Kdd96Index::KdTree);

fn approx(rho: f64) -> Algorithm {
    Algorithm::Approx {
        rho,
        oracle: ApproxOracle::ProbeFirst,
    }
}

fn cit08_default() -> Algorithm {
    Algorithm::Cit08(Cit08Config::default())
}

/// A [`cluster`] run of `algorithm` on a `threads`-worker pool, into `stats`.
fn run<const D: usize, S: StatsSink>(
    pts: &[Point<D>],
    algorithm: Algorithm,
    p: DbscanParams,
    threads: usize,
    stats: &S,
) -> Clustering {
    let mut spec = Spec::new(algorithm, p);
    spec.exec.threads = Some(threads);
    cluster(pts, None, &spec, stats, &RunCtl::unlimited()).unwrap()
}

fn arb_points<const D: usize>(max_n: usize, span: f64) -> impl Strategy<Value = Vec<Point<D>>> {
    prop::collection::vec(prop::collection::vec(0.0..span, D), 1..max_n).prop_map(|rows| {
        rows.into_iter()
            .map(|row| {
                let mut c = [0.0; D];
                c.copy_from_slice(&row);
                Point(c)
            })
            .collect()
    })
}

fn lcg_points<const D: usize>(n: usize, span: f64, seed: u64) -> Vec<Point<D>> {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f64 / (1u64 << 31) as f64 * span
    };
    (0..n)
        .map(|_| {
            let mut c = [0.0; D];
            for v in &mut c {
                *v = next();
            }
            Point(c)
        })
        .collect()
}

/// The invariants every connect-loop (grid-template) run must satisfy:
/// each enumerated candidate pair is either skipped or decided by exactly one
/// mechanism, and each discovered edge causes exactly one union.
fn assert_connect_invariants(r: &StatsReport, label: &str) {
    assert_eq!(
        r.counter(Counter::EdgeTests),
        r.decision_sum(),
        "{label}: edge tests must decompose into skip/decision counters"
    );
    assert!(
        r.counter(Counter::EdgesFound) <= r.counter(Counter::EdgeTests),
        "{label}: edges found cannot exceed tests"
    );
    assert_eq!(
        r.counter(Counter::UnionOps),
        r.counter(Counter::EdgesFound),
        "{label}: one union per discovered edge"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn decomposition_invariant_3d(
        pts in arb_points::<3>(250, 10.0),
        eps in 0.4..4.0f64,
        min_pts in 1usize..8,
    ) {
        let p = params(eps, min_pts);
        for strategy in [
            BcpStrategy::TreeAssisted,
            BcpStrategy::BruteForceOnly,
            BcpStrategy::FullBcp,
            BcpStrategy::FullBruteBcp,
        ] {
            let s = Stats::new();
            grid_exact_instrumented(&pts, p, strategy, &s);
            assert_connect_invariants(&s.report(), &format!("grid_exact {strategy:?}"));
        }
        let s = Stats::new();
        rho_approx_instrumented(&pts, p, 0.01, &s);
        assert_connect_invariants(&s.report(), "rho_approx");
    }

    #[test]
    fn decomposition_invariant_2d_gunawan(
        pts in arb_points::<2>(250, 10.0),
        eps in 0.4..4.0f64,
        min_pts in 1usize..8,
    ) {
        let s = Stats::new();
        run(&pts, Algorithm::Gunawan2d, params(eps, min_pts), 1, &s);
        assert_connect_invariants(&s.report(), "gunawan_2d");
    }

    #[test]
    fn sequential_and_parallel_counters_agree(
        pts in arb_points::<2>(400, 12.0),
        eps in 0.4..3.0f64,
        min_pts in 1usize..6,
    ) {
        let p = params(eps, min_pts);

        let seq = Stats::new();
        let a = grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &seq);
        let par = Stats::new();
        let b = run(&pts, EXACT, p, 4, &par);
        prop_assert_eq!(&a.assignments, &b.assignments);
        let sr = seq.report();
        let pr = par.report();
        assert_connect_invariants(&pr, "grid_exact_par");
        // Candidate-pair enumeration is order-independent, so the counts
        // match exactly (both paths count a pair before their short-circuit
        // check — sequential against its union-find, parallel against the
        // shared concurrent one; only the *skipped* counts may differ, since
        // the parallel value depends on thread timing).
        prop_assert_eq!(sr.counter(Counter::EdgeTests), pr.counter(Counter::EdgeTests));
        // Every tree-probe decision resolves through the lazy cache: first
        // use builds, later uses hit. Nothing falls back to brute force.
        prop_assert_eq!(
            pr.counter(Counter::KdTreeBuilds) + pr.counter(Counter::TreeCacheHits),
            pr.counter(Counter::TreeProbeDecisions)
        );
        prop_assert_eq!(pr.counter(Counter::TreeFallbackBrute), 0);
        // Labeling does identical distance-computation work in both paths.
        prop_assert_eq!(
            sr.counter(Counter::GridPointsExamined),
            pr.counter(Counter::GridPointsExamined)
        );

        let seq = Stats::new();
        let a = rho_approx_instrumented(&pts, p, 0.01, &seq);
        let par = Stats::new();
        let b = run(&pts, approx(0.01), p, 3, &par);
        prop_assert_eq!(&a.assignments, &b.assignments);
        prop_assert_eq!(
            seq.report().counter(Counter::EdgeTests),
            par.report().counter(Counter::EdgeTests)
        );
        assert_connect_invariants(&par.report(), "rho_approx_par");
    }
}

/// Instrumentation must not change results: every algorithm returns the same
/// clustering through its instrumented entry point with a live collector as
/// through the plain public API (which uses the no-op collector).
#[test]
fn instrumented_results_equal_uninstrumented() {
    let pts = lcg_points::<2>(800, 25.0, 7);
    let p = params(1.2, 4);
    let runs: Vec<(&str, Clustering, Clustering)> = vec![
        ("grid_exact", grid_exact(&pts, p), {
            let s = Stats::new();
            grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &s)
        }),
        ("rho_approx", rho_approx(&pts, p, 0.01), {
            let s = Stats::new();
            rho_approx_instrumented(&pts, p, 0.01, &s)
        }),
        ("gunawan_2d", gunawan_2d(&pts, p), {
            let s = Stats::new();
            run(&pts, Algorithm::Gunawan2d, p, 1, &s)
        }),
        ("kdd96", kdd96_kdtree(&pts, p), {
            let s = Stats::new();
            run(&pts, KDD96, p, 1, &s)
        }),
        ("cit08", cit08(&pts, p, Cit08Config::default()), {
            let s = Stats::new();
            run(&pts, cit08_default(), p, 1, &s)
        }),
    ];
    for (name, plain, instrumented) in runs {
        assert_eq!(
            plain.assignments, instrumented.assignments,
            "{name}: instrumentation changed the result"
        );
    }
}

/// Phase attribution is disjoint, so the named phases can never sum past the
/// enclosing total (1 ms slack absorbs timer-read overhead at span borders).
#[test]
fn phases_sum_to_at_most_total() {
    let pts = lcg_points::<3>(3_000, 15.0, 13);
    let p = params(1.0, 5);
    let runs: Vec<(&str, Stats)> = vec![
        ("grid_exact", {
            let s = Stats::new();
            grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &s);
            s
        }),
        ("rho_approx", {
            let s = Stats::new();
            rho_approx_instrumented(&pts, p, 0.01, &s);
            s
        }),
        ("kdd96", {
            let s = Stats::new();
            run(&pts, KDD96, p, 1, &s);
            s
        }),
        ("cit08", {
            let s = Stats::new();
            run(&pts, cit08_default(), p, 1, &s);
            s
        }),
        ("grid_exact_par", {
            let s = Stats::new();
            run(&pts, EXACT, p, 4, &s);
            s
        }),
    ];
    for (name, stats) in runs {
        let r = stats.report();
        let total = r.phase_nanos(Phase::Total);
        assert!(total > 0, "{name}: total must be recorded");
        let sum: u64 = Phase::ALL
            .iter()
            .filter(|&&ph| ph != Phase::Total)
            .map(|&ph| r.phase_nanos(ph))
            .sum();
        assert!(
            sum <= total + 1_000_000,
            "{name}: phases sum to {sum} ns > total {total} ns"
        );
    }
}

#[test]
fn degenerate_empty_input() {
    let s = Stats::new();
    let c = grid_exact_instrumented::<2, _>(&[], params(1.0, 2), BcpStrategy::TreeAssisted, &s);
    assert_eq!(c.num_clusters, 0);
    let r = s.report();
    for c in Counter::ALL {
        assert_eq!(r.counter(c), 0, "{}: empty input does no work", c.name());
    }
    let s = Stats::new();
    let c = run::<2, _>(&[], approx(0.01), params(1.0, 2), 4, &s);
    assert_eq!(c.num_clusters, 0);
    assert_connect_invariants(&s.report(), "rho_approx_par empty");
}

#[test]
fn degenerate_single_point() {
    let pts = [Point([0.0, 0.0])];
    let s = Stats::new();
    let c = grid_exact_instrumented(&pts, params(1.0, 1), BcpStrategy::TreeAssisted, &s);
    assert_eq!(c.num_clusters, 1);
    let r = s.report();
    // One core cell, no neighbors: nothing to test or union.
    assert_eq!(r.counter(Counter::EdgeTests), 0);
    assert_eq!(r.counter(Counter::UnionOps), 0);
    assert_connect_invariants(&r, "single point");
}

#[test]
fn degenerate_identical_points() {
    // Footnote 1's adversarial instance: 500 coincident points. One dense
    // cell, all core by the dense-cell shortcut — no distance computations,
    // no edges, one cluster.
    let pts = vec![Point([3.5, -1.25]); 500];
    let p = params(1.0, 10);
    for (name, stats, c) in [
        {
            let s = Stats::new();
            let c = grid_exact_instrumented(&pts, p, BcpStrategy::TreeAssisted, &s);
            ("grid_exact", s, c)
        },
        {
            let s = Stats::new();
            let c = run(&pts, EXACT, p, 4, &s);
            ("grid_exact_par", s, c)
        },
        {
            let s = Stats::new();
            let c = rho_approx_instrumented(&pts, p, 0.01, &s);
            ("rho_approx", s, c)
        },
        {
            let s = Stats::new();
            let c = run(&pts, Algorithm::Gunawan2d, p, 1, &s);
            ("gunawan_2d", s, c)
        },
    ] {
        assert_eq!(c.num_clusters, 1, "{name}");
        assert_eq!(c.core_count(), 500, "{name}");
        let r = stats.report();
        assert_eq!(r.counter(Counter::EdgeTests), 0, "{name}");
        assert_eq!(r.counter(Counter::GridPointsExamined), 0, "{name}");
        assert_connect_invariants(&r, name);
    }
}

/// A cell pair the exact front end (`dbscan_core::bcp::front_end`) cannot
/// settle, at ε = 1: four clumps of `n` points, radius ≤ 0.005, in two
/// ε-neighbor cells of the side-1/√2 grid (`cell` and the one diagonally
/// above left of it). Each clump lies within ε of the other cell's core box,
/// no cross pair is within ε, and `(2n)²` exceeds the brute-force limit for
/// `n ≥ 64`, so the pair falls through to a kd-tree or a Lemma 5 counter.
fn open_pair(n: usize, cell: (i32, i32)) -> Vec<Point<2>> {
    let side = dbscan_geom::grid::base_side::<2>(1.0);
    let (x0, y0) = (cell.0 as f64 * side, cell.1 as f64 * side);
    [
        (0.639, 0.444),
        (0.168, 0.059),
        (-0.190, 1.102),
        (-0.596, 0.779),
    ]
    .into_iter()
    .flat_map(|(x, y)| {
        (0..n).map(move |i| {
            let (dx, dy) = ((i % 8) as f64 - 3.5, (i / 8 % 8) as f64 - 3.5);
            Point([x0 + x + dx * 0.001, y0 + y + dy * 0.001])
        })
    })
    .collect()
}

/// With the exact front end first, small inputs never reach a Lemma 5
/// counter. Two dense clumps in ε-neighbor cells whose closest pair lies
/// beyond ε are past the brute-force limit and the probe's budget, but
/// their core boxes are more than ε apart, so the front end still decides
/// them, as it does the smaller pairs around them; only the far-away
/// [`open_pair`] reaches a counter. Either way each approximate edge test
/// counts exactly one decision.
#[test]
fn approx_edge_tests_decompose_into_probe_and_counter_decisions() {
    let mut pts = open_pair(80, (-100, -100));
    for i in 0..150 {
        let (dx, dy) = ((i % 16) as f64 / 128.0, (i / 16) as f64 / 128.0);
        pts.push(Point([0.375 + dx, 0.125 + dy]));
        pts.push(Point([1.7 + dx, 0.125 + dy]));
        if i < 20 {
            // A small cell beside the first clump: a blocked-scan pair.
            pts.push(Point([0.375 + dx, 0.8 + dy]));
        }
    }
    let p = params(1.0, 3);
    for (label, s) in [
        ("rho_approx", {
            let s = Stats::new();
            rho_approx_instrumented(&pts, p, 0.01, &s);
            s
        }),
        ("rho_approx_par", {
            let s = Stats::new();
            run(&pts, approx(0.01), p, 2, &s);
            s
        }),
    ] {
        let r = s.report();
        assert_connect_invariants(&r, label);
        assert!(r.counter(Counter::CounterDecisions) > 0, "{label}");
        assert!(r.counter(Counter::BruteForceDecisions) > 0, "{label}");
        assert!(r.counter(Counter::CounterBuilds) > 0, "{label}");
    }
}
