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
//! The rule is realized by building, per core cell, the approximate range
//! counter of Lemma 5 over that cell's core points, and probing it with the
//! other cell's core points: a positive (approximate) count at radius ε decides
//! the edge. Core-point labeling and border assignment remain exact, so any
//! output is a legal result of Problem 2 and inherits the sandwich guarantee of
//! Theorem 3.

use crate::cells::CoreCells;
use crate::deadline::RunCtl;
use crate::error::{validate_rho, DbscanError, ResourceLimits};
use crate::parallel::{run_grid, Graph, ParConfig};
use crate::stats::{Counter, NoStats, StatsSink};
use crate::types::{Clustering, DbscanParams};
use dbscan_geom::grid::{base_side, hierarchy_levels};
use dbscan_geom::Point;
use dbscan_index::ApproxRangeCounter;
use std::sync::OnceLock;

/// ρ-approximate DBSCAN (the paper's Theorem 4 algorithm).
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
    rho_approx_instrumented(points, params, rho, &NoStats)
}

/// [`rho_approx`] with an observability sink (see [`crate::stats`]).
///
/// Records per-phase wall times plus the counter-specific operation counts:
/// Lemma 5 structures built, `query_positive` probes issued, and hierarchy
/// cells visited while answering them. With [`NoStats`] every recording site
/// compiles away and this is exactly the uninstrumented algorithm.
pub fn rho_approx_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    stats: &S,
) -> Clustering {
    try_rho_approx_instrumented(points, params, rho, &ResourceLimits::UNLIMITED, stats)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible twin of [`rho_approx`]: returns a typed [`DbscanError`] for an
/// unusable `rho` (non-positive, NaN/inf, degenerate-hierarchy small, or with
/// `eps·(1+ρ)` overflowing), non-finite coordinates, or unrepresentable cell
/// indices, instead of panicking.
pub fn try_rho_approx<const D: usize>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
) -> Result<Clustering, DbscanError> {
    try_rho_approx_instrumented(points, params, rho, &ResourceLimits::UNLIMITED, &NoStats)
}

/// Fallible twin of [`rho_approx_instrumented`]; the infallible entry points
/// delegate here. Beyond the checks of [`validate_rho`] and the grid build,
/// this pre-validates that every point's cell index is representable at the
/// *deepest* level of the Lemma 5 hierarchy (where the unchecked build would
/// silently saturate and break the sandwich guarantee), and — under `limits`
/// — refuses runs whose worst-case aggregate counter footprint exceeds the
/// byte budget, before building any counter.
pub fn try_rho_approx_instrumented<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    limits: &ResourceLimits,
    stats: &S,
) -> Result<Clustering, DbscanError> {
    try_rho_approx_ctl(points, params, rho, limits, stats, &RunCtl::unlimited())
}

/// Cancellation-aware entry point taking an externally owned [`RunCtl`], so a
/// host (e.g. the service daemon) can interrupt or degrade the run
/// mid-flight; see [`crate::algorithms::try_grid_exact_ctl`]. Degrading an
/// already-approximate run re-targets the remaining edge tests at the
/// (coarser) `degrade_rho`; the combined result is a valid
/// max(ρ, ρ′)-approximate clustering by the same Sandwich-Theorem argument.
pub fn try_rho_approx_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    rho: f64,
    limits: &ResourceLimits,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let config = ParConfig::sequential(limits);
    rho_approx_run(points, params, None, rho, &config, stats, ctl)
}

/// Runs the ρ-approximate algorithm on a prebuilt [`CoreCells`] structure
/// (from [`CoreCells::try_build_ctl`] on the same `points`) on `config`'s
/// pool, skipping the grid build and core labeling. The counters themselves
/// are still built lazily here, so the same cached cells serve any `rho`.
/// Returns [`DbscanError::IndexSizeMismatch`] when `cells` was built over a
/// different number of points. `config.deadline` is ignored (`ctl` carries
/// the budget).
pub fn try_rho_approx_from_cells_ctl<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cells: &CoreCells<D>,
    rho: f64,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    rho_approx_run(points, cells.params, Some(cells), rho, config, stats, ctl)
}

/// The ρ-approximate algorithm on the grid pipeline (see [`run_grid`]),
/// building the core cells unless `prebuilt` is given.
pub(crate) fn rho_approx_run<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    params: DbscanParams,
    prebuilt: Option<&CoreCells<D>>,
    rho: f64,
    config: &ParConfig,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    validate_rho(params.eps(), rho)?;
    run_grid(points, params, prebuilt, config, stats, ctl, |g| {
        // Counters bucket at sides down to base_side / 2^(h-1); verify the
        // whole dataset is representable there so the lazy in-loop builds
        // can never overflow a cell coordinate.
        let leaf_side = base_side::<D>(params.eps()) / (1u64 << (hierarchy_levels(rho) - 1)) as f64;
        crate::validate::check_cell_range(points, leaf_side)?;
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
        let uf = g.connect(|r1, r2| {
            g.exec.stats.bump(Counter::CounterDecisions);
            counter_edge_test(g, &counters, rho, r1, r2)
        })?;
        if S::ENABLED {
            // Core cells that never served as the count side of a reached
            // pair, so their Lemma 5 counter was never built (the approximate
            // analogue of the exact path's brute_force_cells).
            let unbuilt = counters.iter().filter(|c| c.get().is_none()).count();
            g.exec.stats.add(Counter::BruteForceCells, unbuilt as u64);
        }
        Ok(uf)
    })
}

/// One lazily built Lemma 5 counter slot per core cell.
pub(crate) type CounterSlots<const D: usize> = [OnceLock<ApproxRangeCounter<D>>];

/// The ρ-approximate edge rule: the approximate range counter of Lemma 5 at
/// `rho`, built lazily over the larger cell's core points, is probed with
/// the smaller cell's core points (ties count on `r2`); a positive count at
/// radius ε decides the edge.
pub(crate) fn counter_edge_test<const D: usize, S: StatsSink>(
    g: &Graph<'_, D, S>,
    counters: &CounterSlots<D>,
    rho: f64,
    r1: usize,
    r2: usize,
) -> bool {
    let (points, cc, stats) = (g.points, g.cc, g.exec.stats);
    let (probe_rank, counter_rank) = if cc.core_points_of[r1].len() <= cc.core_points_of[r2].len() {
        (r1, r2)
    } else {
        (r2, r1)
    };
    let (counter, built) = g.lazy(&counters[counter_rank], || {
        let pts: Vec<Point<D>> = cc.core_points_of[counter_rank]
            .iter()
            .map(|&i| points[i as usize])
            .collect();
        ApproxRangeCounter::build(&pts, cc.params.eps(), rho)
    });
    if built {
        stats.bump(Counter::CounterBuilds);
    }
    let probe = &cc.core_points_of[probe_rank];
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

    #[test]
    #[should_panic(expected = "rho must be positive")]
    fn zero_rho_rejected() {
        let _ = rho_approx::<2>(&[p2(0.0, 0.0)], params(1.0, 1), 0.0);
    }
}
