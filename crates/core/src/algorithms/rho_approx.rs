//! "OurApprox" — ρ-approximate DBSCAN (Section 4.4, Theorem 4): O(n) expected
//! time for any fixed d, any ε, and any constant ρ.
//!
//! Identical skeleton to the exact grid algorithm, except the edge rule of the
//! re-defined graph `G` (Section 4.4):
//!
//! * edge **yes** if some core-point pair across the two cells is within ε;
//! * edge **no** if no pair is within ε(1+ρ);
//! * **don't care** in between.
//!
//! An exact answer to "is the closest pair within ε?" satisfies both rules,
//! so the oracle ([`ApproxOracle::ProbeFirst`]) first runs the exact
//! algorithm's own front end ([`bcp::front_end`], through `Graph::settle`):
//! small pairs (`|a|·|b| ≤` [`bcp::BRUTE_FORCE_LIMIT`]) are decided by the
//! blocked early-exit scan, large pairs by a budgeted blocked probe of at
//! most [`bcp::PROBE_EVAL_BUDGET`] distance evaluations and then by their
//! core-point bounding boxes: a box gap beyond ε, a box filter that leaves
//! one side empty or few enough points to scan, or a hit among the
//! [`bcp::NEAREST_K`] points of each side nearest the other box. Only a
//! pair the front end leaves open builds (lazily, once per cell) the
//! approximate range counter of Lemma 5 over the larger cell's core points
//! and queries it with the other cell's core points: a positive
//! (approximate) count at radius ε decides the edge. No kd-tree is ever
//! built: the exact and approximate oracles differ only in that fallback
//! structure. The front end costs O(|a| + |b|) plus a constant number of
//! distance evaluations per candidate pair, no more than the counter route
//! it replaces, so Theorem 4's O(n) expected bound still holds.
//! [`ApproxOracle::CounterOnly`] skips the front end and decides every pair
//! with a counter: the paper's own cost profile, kept as an ablation for
//! Figures 11 and 13.
//!
//! [`bcp::front_end`]: crate::bcp::front_end
//! [`bcp::BRUTE_FORCE_LIMIT`]: crate::bcp::BRUTE_FORCE_LIMIT
//! [`bcp::PROBE_EVAL_BUDGET`]: crate::bcp::PROBE_EVAL_BUDGET
//! [`bcp::NEAREST_K`]: crate::bcp::NEAREST_K
//!
//! Core-point labeling and border assignment remain exact, so any output is
//! a legal result of Problem 2 and inherits the sandwich guarantee of
//! Theorem 3.

use super::{cluster, Algorithm, Spec};
use crate::cells::CoreCells;
use crate::deadline::RunCtl;
use crate::error::{validate_rho, DbscanError};
use crate::parallel::{run_grid, Graph, ParConfig};
use crate::stats::{Counter, NoStats, Phase, StatsSink};
use crate::types::{Clustering, DbscanParams};
use dbscan_geom::grid::{base_side, hierarchy_levels};
use dbscan_geom::Point;
use dbscan_index::ApproxRangeCounter;
use std::sync::OnceLock;

/// ρ-approximate DBSCAN (the paper's Theorem 4 algorithm): a sequential
/// [`cluster`] run of [`Algorithm::Approx`] with the default
/// [`ApproxOracle`]; panics where [`cluster`] returns an error (an unusable
/// `rho`: non-positive, NaN/inf, degenerate-hierarchy small, or with
/// `eps·(1+ρ)` overflowing; non-finite coordinates; unrepresentable cell
/// indices).
///
/// `rho` is the approximation ratio; the paper recommends (and its experiments
/// default to) `rho = 0.001`.
///
/// ```
/// use dbscan_core::{DbscanParams, algorithms::{grid_exact, rho_approx}};
/// use dbscan_geom::Point;
///
/// let pts: Vec<Point<3>> = (0..50)
///     .map(|i| Point([(i % 10) as f64, (i / 10) as f64, 0.0]))
///     .collect();
/// let params = DbscanParams::new(1.5, 4).unwrap();
/// let approx = rho_approx(&pts, params, 0.001);
/// // On well-separated data the approximate result equals the exact one.
/// assert_eq!(approx.assignments, grid_exact(&pts, params).assignments);
/// ```
pub fn rho_approx<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
) -> Clustering {
    let spec = Spec::new(
        Algorithm::Approx {
            rho,
            oracle: ApproxOracle::ProbeFirst,
        },
        params,
    );
    cluster(points, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// How the ρ-approximate edge rule between two core cells is evaluated.
///
/// Both variants return a legal ρ-approximate clustering (Theorem 3); they
/// differ in running time, and may differ on "don't care" pairs whose
/// closest pair lies in (ε, ε(1+ρ)]. The ablation matters for interpreting
/// the paper's Figures 11 and 13, whose OurApprox builds a counter for every
/// reached pair. See EXPERIMENTS.md.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ApproxOracle {
    /// The exact algorithm's front end ([`crate::bcp::front_end`]: blocked
    /// scan, budgeted probe, core-box tests); a Lemma 5 counter only for the
    /// pairs it leaves open.
    #[default]
    ProbeFirst,
    /// A Lemma 5 counter for every pair: the paper's cost profile.
    CounterOnly,
}

/// [`rho_approx`] with an observability sink (see [`crate::stats`]).
///
/// Records per-phase wall times plus the edge-test decision counters (pairs
/// decided by the exact front end, and pairs decided by a counter) and
/// the counter-specific operation counts: Lemma 5 structures built,
/// `query_positive` probes issued, and hierarchy cells visited while
/// answering them. With [`NoStats`] every recording site
/// compiles away and this is exactly the uninstrumented algorithm.
pub fn rho_approx_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    stats: &S,
) -> Clustering {
    let spec = Spec::new(
        Algorithm::Approx {
            rho,
            oracle: ApproxOracle::ProbeFirst,
        },
        params,
    );
    cluster(points, None, &spec, stats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}

/// The ρ-approximate algorithm on the grid pipeline (see [`run_grid`]),
/// building the core cells unless `prebuilt` is given (the counters are
/// still built lazily here, so the same cells serve any `rho`). Beyond the
/// checks of [`validate_rho`] and the grid build, this pre-validates that
/// every point's cell index is representable at the *deepest* level of the
/// Lemma 5 hierarchy (where the unchecked build would silently saturate and
/// break the sandwich guarantee), and — under `config.limits` — refuses runs
/// whose worst-case aggregate counter footprint exceeds the byte budget,
/// before building any counter.
pub(crate) fn rho_approx_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    prebuilt: Option<&CoreCells<D>>,
    rule: EdgeRule,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let rho = rule.rho;
    validate_rho(params.eps(), rho)?;
    run_grid(points, params, prebuilt, config, stats, ctl, |g| {
        // Counters bucket at sides down to base_side / 2^(h-1); verify the
        // whole dataset is representable there so the lazy in-loop builds
        // can never overflow a cell coordinate. The check serves only the
        // counters, so its time is structure-build time.
        let leaf_side = base_side::<D>(params.eps()) / (1u64 << (hierarchy_levels(rho) - 1)) as f64;
        let span = g.exec.stats.now();
        crate::validate::check_cell_range(points, leaf_side)?;
        g.exec.stats.finish(Phase::StructureBuild, span);
        if let Some(budget) = g.exec.limits.max_index_bytes {
            // Worst case every core cell builds its counter; their aggregate
            // estimate is h·size_of::<node>() (+ sort scratch) per core point.
            let estimated =
                dbscan_index::counter::estimated_build_bytes::<D>(g.cc.num_core_points(), rho);
            if estimated > budget {
                return Err(DbscanError::ResourceLimit {
                    structure: "approximate range counters",
                    estimated_bytes: estimated,
                    budget_bytes: budget,
                });
            }
        }
        let counters = g.slots();
        let uf = g.connect(|r1, r2| counter_edge_test(g, &counters, rule, r1, r2))?;
        if S::ENABLED {
            // Core cells whose Lemma 5 counter was never built: no pair
            // reached them as its count side, or the front end decided
            // every such pair (the approximate analogue of the exact path's
            // brute_force_cells).
            let unbuilt = counters.iter().filter(|c| c.get().is_none()).count();
            g.exec.stats.add(Counter::BruteForceCells, unbuilt as u64);
        }
        Ok(uf)
    })
}

/// A ρ-approximate edge rule: its approximation ratio, and how a pair is
/// decided.
#[derive(Clone, Copy, Debug)]
pub(crate) struct EdgeRule {
    pub(crate) rho: f64,
    pub(crate) oracle: ApproxOracle,
}

impl EdgeRule {
    /// The default rule at `rho`: [`ApproxOracle::ProbeFirst`].
    pub(crate) fn probe_first(rho: f64) -> Self {
        EdgeRule {
            rho,
            oracle: ApproxOracle::ProbeFirst,
        }
    }
}

/// One lazily built Lemma 5 counter slot per core cell.
pub(crate) type CounterSlots<const D: usize> = [OnceLock<ApproxRangeCounter<D>>];

/// Decides the `(r1, r2)` edge under `rule` (see the module docs). Under
/// [`ApproxOracle::ProbeFirst`] the exact front end ([`Graph::settle`])
/// decides the pair if it can; a pair it leaves open, and every pair under
/// [`ApproxOracle::CounterOnly`], is decided by the approximate range
/// counter of Lemma 5 at `rule.rho`, built lazily over the larger cell's
/// core points and probed with the smaller cell's core points (ties count
/// on `r2`): a positive count at radius ε decides the edge.
pub(crate) fn counter_edge_test<const D: usize, S: StatsSink>(
    g: &Graph<'_, D, S>,
    counters: &CounterSlots<D>,
    rule: EdgeRule,
    r1: usize,
    r2: usize,
) -> bool {
    let (points, cc, stats) = (g.points, g.cc, g.exec.stats);
    if rule.oracle == ApproxOracle::ProbeFirst {
        if let Some(hit) = g.settle(r1, r2) {
            return hit;
        }
    }
    stats.bump(Counter::CounterDecisions);
    let (probe_rank, counter_rank) = if cc.core_points(r1).len() <= cc.core_points(r2).len() {
        (r1, r2)
    } else {
        (r2, r1)
    };
    let (counter, built) = g.lazy(&counters[counter_rank], || {
        let pts: Vec<Point<D>> = cc
            .core_points(counter_rank)
            .iter()
            .map(|&i| points[i as usize])
            .collect();
        ApproxRangeCounter::build(&pts, cc.params.eps(), rule.rho)
    });
    if built {
        stats.bump(Counter::CounterBuilds);
    }
    let probe = cc.core_points(probe_rank);
    if S::ENABLED {
        let mut visited = 0u64;
        let mut queries = 0u64;
        let hit = probe.iter().any(|&p| {
            queries += 1;
            counter.query_positive_counted(&points[p as usize], &mut visited)
        });
        stats.add(Counter::CounterQueries, queries);
        stats.add(Counter::IndexNodesVisited, visited);
        hit
    } else {
        probe
            .iter()
            .any(|&p| counter.query_positive(&points[p as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::grid_exact;
    use crate::bcp;
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
        assert_eq!(rho_approx::<2>(&[], params(1.0, 2), 0.001).num_clusters, 0);
    }

    #[test]
    fn figure5_example() {
        // The paper's Figure 5: o5 is ρ-approximate density-reachable from o3
        // (through the inflated ball) but not density-reachable. With a distance
        // gap between ε and ε(1+ρ), the approximate result may or may not merge
        // o5 — but never splits the core chain o1..o4.
        // Construct: chain o1,o2,o3 of core points, o4 near o1, o5 at distance
        // in (ε, ε(1+ρ)] from o1.
        let eps = 1.0;
        let rho = 0.5;
        let pts = vec![
            p2(0.0, 0.0),  // o1, core
            p2(0.9, 0.0),  // o2, core
            p2(1.8, 0.0),  // o3, core
            p2(0.0, 0.9),  // o4, core
            p2(-1.3, 0.0), // o5: dist 1.3 from o1 ∈ (ε, ε(1+ρ)]
        ];
        let p = params(eps, 3);
        let c = rho_approx(&pts, p, rho);
        c.validate().unwrap();
        // o1..o4 always one cluster.
        let l = c.flat_labels();
        assert_eq!(l[0], l[1]);
        assert_eq!(l[1], l[2]);
        assert_eq!(l[0], l[3]);
        // o5 is not core and not within ε of any core point → noise under the
        // exact border rule, regardless of the approximate edges.
        assert!(c.assignments[4].is_noise());
    }

    #[test]
    fn agrees_with_exact_on_well_separated_data() {
        // Clusters separated by much more than ε(1+ρ): the approximate result
        // must equal the exact one.
        let mut pts = Vec::new();
        for b in 0..3 {
            let bx = b as f64 * 50.0;
            for i in 0..30 {
                pts.push(p2(bx + (i % 6) as f64 * 0.4, (i / 6) as f64 * 0.4));
            }
        }
        let p = params(1.0, 4);
        for rho in [0.001, 0.01, 0.1] {
            let approx = rho_approx(&pts, p, rho);
            let exact = grid_exact(&pts, p);
            assert_eq!(approx.assignments, exact.assignments, "rho={rho}");
            assert_eq!(approx.num_clusters, 3);
        }
    }

    #[test]
    fn sandwich_holds_on_random_data() {
        // Statement 1 of Theorem 3: any exact cluster is contained in some
        // approximate cluster — equivalently, exact co-clustered core points are
        // approx co-clustered.
        for seed in [11u64, 22, 33] {
            let pts = lcg_points(400, 20.0, seed);
            let p = params(1.0, 4);
            let rho = 0.1;
            let exact = grid_exact(&pts, p);
            let approx = rho_approx(&pts, p, rho);
            let outer = grid_exact(&pts, p.inflate(rho));
            for i in 0..pts.len() {
                for j in 0..pts.len() {
                    if let (crate::Assignment::Core(a), crate::Assignment::Core(b)) =
                        (&exact.assignments[i], &exact.assignments[j])
                    {
                        if a == b {
                            // Same exact cluster → same approx cluster.
                            assert_eq!(
                                approx.assignments[i].clusters()[0],
                                approx.assignments[j].clusters()[0],
                                "statement 1 violated (seed {seed}, pts {i},{j})"
                            );
                        }
                    }
                    // Statement 2: same approx cluster → same outer cluster.
                    if let (crate::Assignment::Core(a), crate::Assignment::Core(b)) =
                        (&approx.assignments[i], &approx.assignments[j])
                    {
                        if a == b {
                            assert_eq!(
                                outer.assignments[i].clusters()[0],
                                outer.assignments[j].clusters()[0],
                                "statement 2 violated (seed {seed}, pts {i},{j})"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Decides every candidate pair of `pts` (all points core) with both
    /// oracles and checks each answer against the brute-force closest pair:
    /// "yes" needs it within ε(1+ρ), "no" needs it beyond ε. Returns how
    /// many pairs a counter decided under [`ApproxOracle::ProbeFirst`].
    fn assert_oracle_legal(pts: &[Point<2>], eps: f64, rho: f64) -> u64 {
        use crate::stats::Stats;
        let outer = eps * (1.0 + rho);
        let mut counter_decided = 0;
        for oracle in [ApproxOracle::ProbeFirst, ApproxOracle::CounterOnly] {
            let stats = Stats::new();
            let config = ParConfig::sequential(&crate::ResourceLimits::UNLIMITED);
            let ctl = RunCtl::unlimited();
            run_grid(pts, params(eps, 1), None, &config, &stats, &ctl, |g| {
                let (cc, counters) = (g.cc, g.slots());
                for r1 in 0..cc.num_core_cells() {
                    cc.for_candidate_partners(r1, |r2| {
                        let yes = counter_edge_test(g, &counters, EdgeRule { rho, oracle }, r1, r2);
                        let (a, b) = (cc.core_points(r1), cc.core_points(r2));
                        let (_, _, d) = bcp::closest_pair_brute(pts, a, b).unwrap();
                        let what = format!("{oracle:?} eps={eps} rho={rho} bcp={}", d.sqrt());
                        if yes {
                            assert!(d <= outer * outer, "yes beyond eps(1+rho): {what}");
                        } else {
                            assert!(d > eps * eps, "no within eps: {what}");
                        }
                    });
                }
                g.connect(|_, _| false)
            })
            .unwrap();
            let report = stats.report();
            if oracle == ApproxOracle::ProbeFirst {
                counter_decided = report.counter(Counter::CounterDecisions);
            } else {
                assert_eq!(report.counter(Counter::BruteForceDecisions), 0);
            }
        }
        counter_decided
    }

    /// Two clumps of `n` points in ε-neighbor cells (ε = 1, cells 0 and 2
    /// along x) whose closest pair is the two points at height 0.25, `gap`
    /// apart. With `gap = 1` every coordinate is a multiple of 1/128, so that
    /// pair is an exact tie at ε. `dup` piles the rest of each clump onto
    /// four points. The front end settles these pairs by their core boxes,
    /// so far away [`bcp::open_pair`] adds a pair it leaves to a counter.
    fn clumps(n: usize, gap: f64, dup: bool) -> Vec<Point<2>> {
        let mut pts = vec![p2(0.5, 0.25), p2(0.5 + gap, 0.25)];
        for i in 0..n - 1 {
            let k = if dup { i % 4 } else { i };
            let (dx, dy) = ((k % 16) as f64 / 128.0, (k / 16 % 64) as f64 / 128.0);
            pts.push(p2(0.375 + dx, 0.125 + dy));
            pts.push(p2(0.5 + gap + 0.125 - dx, 0.125 + dy));
        }
        pts.extend(bcp::open_pair(80, (-100, -100)));
        pts
    }

    #[test]
    fn oracle_answers_are_legal_on_adversarial_pairs() {
        for rho in [0.001, 0.1, 0.5] {
            for gap in [1.0, 1.0 + rho / 2.0, 1.0 + rho, 1.0 + 2.0 * rho] {
                for dup in [false, true] {
                    // 150 x 150 is past the brute-force limit and, with no
                    // pair within ε, past the probe budget too.
                    let decided = assert_oracle_legal(&clumps(150, gap, dup), 1.0, rho);
                    // (At rho = 0.5 the wider gaps leave cell 2 behind.)
                    if gap > 1.0 && rho <= 0.1 {
                        assert!(decided > 0, "rho={rho} gap={gap}: no counter built");
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_answers_are_legal_on_random_cells() {
        for seed in [5u64, 6, 7] {
            let mut pts = lcg_points(600, 12.0, seed);
            // Dense clumps push some pairs past the brute-force limit.
            pts.extend(lcg_points(900, 1.5, seed + 100));
            pts.extend(
                lcg_points(900, 1.5, seed + 200)
                    .iter()
                    .map(|p| p2(p[0] + 1.6, p[1])),
            );
            for rho in [0.001, 0.05, 0.5] {
                assert_oracle_legal(&pts, 1.0, rho);
            }
        }
    }

    #[test]
    fn both_oracles_agree_with_exact_outside_the_slack_band() {
        // With the closest pair well inside ε or well beyond ε(1+ρ), every
        // legal answer is the exact one.
        let p = params(1.0, 3);
        for gap in [0.9, 1.5] {
            let pts = clumps(150, gap, false);
            let exact = grid_exact(&pts, p);
            for oracle in [ApproxOracle::ProbeFirst, ApproxOracle::CounterOnly] {
                let spec = Spec::new(Algorithm::Approx { rho: 0.001, oracle }, p);
                let got = cluster(&pts, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap();
                assert_eq!(got.assignments, exact.assignments, "{oracle:?} gap={gap}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_rejected() {
        let _ = rho_approx::<2>(&[p2(0.0, 0.0)], params(1.0, 1), 0.0);
    }
}
