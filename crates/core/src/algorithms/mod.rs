//! The five DBSCAN algorithms evaluated in the paper, behind one entry point.
//!
//! All five take the same inputs — points, ε and MinPts, plus ρ for OurApprox
//! — so one request shape serves them: a [`Spec`] names the [`Algorithm`]
//! (with its own choices: BCP strategy, approximate oracle, range index,
//! partition size), the [`DbscanParams`], and the execution config
//! ([`ParConfig`]: worker count or pool, recovery policy, resource limits,
//! fault plan), and [`cluster`] runs it under a caller-owned [`RunCtl`]
//! (cancellation, deadline) into any [`StatsSink`].
//!
//! All exact algorithms ([`Algorithm::Exact`], [`Algorithm::Gunawan2d`],
//! [`Algorithm::Kdd96`], [`Algorithm::Cit08`]) compute the unique clustering
//! of Problem 1 and differ only in running time; [`Algorithm::Approx`]
//! computes a legal ρ-approximate clustering (Problem 2) under the sandwich
//! guarantee of Theorem 3.
//!
//! The three grid algorithms (exact, approximate, Gunawan) differ only in the
//! edge oracle of the grid pipeline in [`crate::parallel`]; they run on
//! `spec.exec`'s pool, where a sequential run is the one-thread pool, and can
//! start from prebuilt [`CoreCells`]. KDD'96 and CIT08 are sequential
//! algorithms: they ignore the pool settings of `spec.exec`.
//!
//! The paper-name functions ([`grid_exact`], [`rho_approx`], [`gunawan_2d`],
//! [`kdd96_kdtree`], [`kdd96_rtree`], [`kdd96_linear`], [`cit08`]) are
//! one-call conveniences over [`cluster`] for the default choices; they panic
//! with the error's text where [`cluster`] would return it.

mod cit08;
mod grid_exact;
mod gunawan2d;
mod kdd96;
mod rho_approx;

pub use cit08::{cit08, Cit08Config};
pub use grid_exact::{grid_exact, grid_exact_instrumented, BcpStrategy};
pub use gunawan2d::gunawan_2d;
pub use kdd96::{kdd96_kdtree, kdd96_linear, kdd96_rtree};
pub use rho_approx::{rho_approx, rho_approx_instrumented, ApproxOracle};

// The Lemma 5 edge rule, for the degraded test every grid algorithm shares.
pub(crate) use rho_approx::{counter_edge_test, CounterSlots, EdgeRule};

use crate::cells::CoreCells;
use crate::deadline::RunCtl;
use crate::error::{DbscanError, ResourceLimits};
use crate::parallel::ParConfig;
use crate::stats::StatsSink;
use crate::types::{Clustering, DbscanParams};
use dbscan_geom::Point;

/// Which algorithm a [`Spec`] runs, with the choices specific to it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Algorithm {
    /// OurExact (Section 3.2, Theorem 2): grid + BCP edge tests, decided per
    /// the [`BcpStrategy`].
    Exact(BcpStrategy),
    /// OurApprox (Section 4.4, Theorem 4): grid + approximate range counting
    /// at approximation ratio `rho` (the paper's default is 0.001), decided
    /// per the [`ApproxOracle`].
    Approx {
        /// The approximation ratio ρ.
        rho: f64,
        /// How a pair of core cells is decided.
        oracle: ApproxOracle,
    },
    /// Gunawan's 2D algorithm: grid + per-cell nearest-neighbour edge tests.
    /// Runs only on 2-dimensional points.
    Gunawan2d,
    /// The original KDD'96 algorithm over the given range index.
    Kdd96(Kdd96Index),
    /// CIT08, the grid-partitioned exact baseline.
    Cit08(Cit08Config),
}

/// The range index a KDD'96 run builds over the points.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Kdd96Index {
    /// A kd-tree.
    #[default]
    KdTree,
    /// An STR R-tree (closest to the original R*-tree setup).
    RTree,
    /// No index: every region query scans all points (the O(n²) straw man).
    Linear,
}

/// One clustering request: the algorithm, its parameters, and how to
/// execute it.
#[derive(Clone, Debug)]
pub struct Spec {
    /// The algorithm and its own choices.
    pub algorithm: Algorithm,
    /// ε and MinPts.
    pub params: DbscanParams,
    /// Worker count or pool, recovery policy, resource limits and fault plan
    /// (used by the grid algorithms; KDD'96 and CIT08 run sequentially).
    pub exec: ParConfig,
}

impl Spec {
    /// A sequential run — the one-thread pool, no resource limits — of
    /// `algorithm` at `params`.
    pub fn new(algorithm: Algorithm, params: DbscanParams) -> Spec {
        Spec {
            algorithm,
            params,
            exec: ParConfig::sequential(&ResourceLimits::UNLIMITED),
        }
    }
}

/// Runs `spec` on `points`, recording into `stats` (pass
/// [`NoStats`](crate::NoStats) and every recording site compiles away) under
/// the caller-owned `ctl` (pass [`RunCtl::unlimited`] for an unbudgeted,
/// uncancellable run; a budgeted one reads its
/// [`DeadlineReport`](crate::DeadlineReport) via [`RunCtl::report`]
/// afterwards).
///
/// `cells`, when given, is a [`CoreCells`] structure built over exactly
/// `points` (by [`CoreCells::try_build_ctl`]) under `spec.params`: a grid
/// algorithm then skips the grid build and core labeling, and lands on the
/// identical clustering. This is the cache fast path of the service tier.
///
/// Returns a typed [`DbscanError`] for unusable input (non-finite
/// coordinates, unrepresentable cell indices, an unusable ρ), a refused
/// index build, a worker panic, a cancellation or an expired budget, and
/// for a spec that does not fit its inputs:
/// [`DbscanError::SpecMismatch`] for [`Algorithm::Gunawan2d`] on
/// non-2-dimensional points, for `cells` passed to KDD'96 or CIT08, and for
/// `cells` built under other params than `spec.params`;
/// [`DbscanError::IndexSizeMismatch`] for `cells` built over a different
/// number of points.
///
/// ```
/// use dbscan_core::algorithms::{cluster, Algorithm, ApproxOracle, Spec};
/// use dbscan_core::{DbscanParams, NoStats, RunCtl};
/// use dbscan_geom::Point;
///
/// let pts: Vec<Point<2>> = (0..40).map(|i| Point([(i % 8) as f64, (i / 8) as f64])).collect();
/// let params = DbscanParams::new(1.5, 4).unwrap();
/// let mut spec = Spec::new(
///     Algorithm::Approx { rho: 0.001, oracle: ApproxOracle::ProbeFirst },
///     params,
/// );
/// spec.exec.threads = Some(2);
/// let c = cluster(&pts, None, &spec, &NoStats, &RunCtl::unlimited()).unwrap();
/// assert_eq!(c.num_clusters, 1);
/// ```
pub fn cluster<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    cells: Option<&CoreCells<D>>,
    spec: &Spec,
    stats: &S,
    ctl: &RunCtl,
) -> Result<Clustering, DbscanError> {
    let params = spec.params;
    if spec.algorithm == Algorithm::Gunawan2d && D != 2 {
        return Err(DbscanError::SpecMismatch {
            reason: format!("'gunawan2d' requires 2D input, got {D}D"),
        });
    }
    if let Some(cells) = cells {
        if matches!(spec.algorithm, Algorithm::Kdd96(_) | Algorithm::Cit08(_)) {
            return Err(DbscanError::SpecMismatch {
                reason: format!(
                    "prebuilt core cells serve only the grid algorithms, not {:?}",
                    spec.algorithm
                ),
            });
        }
        if cells.params != params {
            return Err(DbscanError::SpecMismatch {
                reason: format!(
                    "the prebuilt core cells were built under {:?}, the run asks for {params:?}",
                    cells.params
                ),
            });
        }
    }
    let exec = &spec.exec;
    match spec.algorithm {
        Algorithm::Exact(strategy) => {
            grid_exact::grid_exact_run(points, params, cells, strategy, exec, stats, ctl)
        }
        Algorithm::Approx { rho, oracle } => {
            let rule = EdgeRule { rho, oracle };
            rho_approx::rho_approx_run(points, params, cells, rule, exec, stats, ctl)
        }
        Algorithm::Gunawan2d => gunawan2d::gunawan_run(points, params, cells, exec, stats, ctl),
        Algorithm::Kdd96(index) => kdd96::kdd96_run(points, params, index, stats, ctl),
        Algorithm::Cit08(config) => cit08::cit08_run(points, params, config, stats, ctl),
    }
}
