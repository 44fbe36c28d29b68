//! Shared harness for regenerating the paper's evaluation (Section 5).
//!
//! The `repro` binary (in `src/bin/repro.rs`) exposes one subcommand per table
//! and figure; this library holds the pieces it shares with the Criterion
//! benches: the resolved parameter grid of Table 1 ([`config`]), dataset
//! construction ([`datasets`]), wall-clock measurement with time budgets
//! ([`timing`]), plain-text table rendering ([`table`]), and [`run_on`], one
//! [`cluster`] call per measured run.

pub mod config;
pub mod datasets;
pub mod table;
pub mod timing;

pub use config::Scale;
pub use datasets::DatasetKind;

use dbscan_core::algorithms::{cluster, Algorithm, ApproxOracle, BcpStrategy, Spec};
use dbscan_core::{Clustering, DbscanParams, ParConfig, RunCtl, StatsSink};
use dbscan_geom::Point;

/// OurExact with the default BCP strategy.
pub const EXACT: Algorithm = Algorithm::Exact(BcpStrategy::TreeAssisted);

/// OurApprox at `rho` with the default oracle.
pub fn approx(rho: f64) -> Algorithm {
    Algorithm::Approx {
        rho,
        oracle: ApproxOracle::ProbeFirst,
    }
}

/// Runs `algorithm` at `params` on `points` through [`cluster`], on `threads`
/// workers as [`ParConfig::threads`] reads them (`Some(1)` is the sequential
/// run, `None` and `Some(0)` all cores), recording into `stats`. Panics on
/// error: every harness input is valid by construction.
pub fn run_on<const D: usize, S: StatsSink>(
    points: &[Point<D>],
    algorithm: Algorithm,
    params: DbscanParams,
    threads: Option<usize>,
    stats: &S,
) -> Clustering {
    let spec = Spec {
        algorithm,
        params,
        exec: ParConfig::with_threads(threads),
    };
    cluster(points, None, &spec, stats, &RunCtl::unlimited()).unwrap_or_else(|e| panic!("{e}"))
}
