//! The clustering algorithms of *DBSCAN Revisited* (Gan & Tao, SIGMOD 2015).
//!
//! This crate implements the paper's definitions (Section 2.1), all the algorithms
//! it discusses, and the USEC→DBSCAN reduction of its hardness proof.
//!
//! Every algorithm runs through one entry point,
//! [`cluster`](algorithms::cluster)`(points, cells, &spec, stats, ctl)`: a
//! [`Spec`](algorithms::Spec) names the [`Algorithm`](algorithms::Algorithm),
//! the [`DbscanParams`] and the execution config ([`ParConfig`]; a sequential
//! run is the one-thread pool, the default of
//! [`Spec::new`](algorithms::Spec::new)), `stats` is any [`StatsSink`]
//! ([`NoStats`] compiles every recording site away), and `ctl` is the run's
//! [`RunCtl`] (cancellation and time budget). Each paper algorithm also has a
//! one-call convenience function for its default choices:
//!
//! | paper name | `Algorithm` | function | notes |
//! |---|---|---|---|
//! | KDD96 | `Kdd96(index)` | [`algorithms::kdd96_kdtree`], [`algorithms::kdd96_rtree`], [`algorithms::kdd96_linear`] | the original Ester et al. algorithm over a kd-tree, an R-tree or no index; O(n²) worst case (footnote 1) |
//! | Gunawan's 2D algorithm | `Gunawan2d` | [`algorithms::gunawan_2d`] | grid + per-cell nearest-neighbor edge tests; O(n log n); d = 2 only |
//! | OurExact (Theorem 2) | `Exact(strategy)` | [`algorithms::grid_exact`] | grid + BCP edge tests, any fixed d |
//! | OurApprox (Theorem 4) | `Approx { rho, oracle }` | [`algorithms::rho_approx`] | grid + approximate range counting; O(n) expected |
//! | CIT08 | `Cit08(config)` | [`algorithms::cit08`] | grid-partitioned exact baseline (Mahran & Mahar) |
//!
//! All exact algorithms produce the *unique* clustering of Problem 1 (up to cluster
//! numbering); [`algorithms::rho_approx`] produces a legal result of Problem 2,
//! guaranteed by Theorem 3 to be sandwiched between the exact clusterings at `ε`
//! and `ε(1+ρ)`.
//!
//! The three grid algorithms run one pipeline, [`parallel`]: grid, core
//! labeling, the core-cell graph `G` built by a single edge loop from each
//! algorithm's edge oracle, and border assignment, on a [`WorkerPool`] of any
//! size — a sequential run is the one-thread pool, which runs inline and
//! spawns no thread. Shared machinery lives in the submodules: [`labeling`]
//! (core-point identification on the grid), [`bcp`] (bichromatic
//! closest-pair tests), [`cells`] (the core cells, the vertices of `G`),
//! [`border`] (border-point assignment), [`unionfind`], and [`usec`]
//! (Lemma 4). The blocked
//! structure-of-arrays distance kernels behind the BCP, labeling, and border
//! hot paths are re-exported as [`kernels`] (implemented in
//! `dbscan_geom::kernels`).

// Indexed `for d in 0..D` loops pairing two fixed-size arrays are clearer than
// zip chains in the coordinate arithmetic below.
#![allow(clippy::needless_range_loop)]

pub mod algorithms;
pub mod baselines;
pub mod bcp;
pub mod border;
pub mod cells;
pub mod deadline;
pub mod dim;
pub mod error;
pub mod faults;
pub mod hash;
pub mod hopcroft;
pub mod labeling;
pub mod optics;
pub mod parallel;
pub mod scheduler;
pub mod stats;
pub mod trace;
pub mod types;
pub mod unionfind;
pub mod usec;
pub mod validate;

pub use cells::CoreCells;
pub use dbscan_geom::kernels;
pub use deadline::{
    parse_duration, Budget, CancelReason, CancelToken, DeadlineConfig, DeadlineOutcome,
    DeadlinePolicy, DeadlineReport, RunCtl, StageId,
};
pub use error::{DbscanError, RecoveryPolicy, ResourceLimits};
pub use faults::{FaultPlan, FaultSite};
pub use parallel::ParConfig;
pub use scheduler::WorkerPool;
pub use stats::{Counter, NoStats, Phase, Stats, StatsReport, StatsSink};
pub use trace::{
    export::{chrome_trace_json, chrome_trace_json_capped, folded_stacks, TraceFormat},
    hist::{HistKind, Log2Hist},
    EventName, NoTrace, TraceSink, TraceSnapshot, TracedStats, Tracer,
};
pub use types::{Assignment, Clustering, DbscanParams, ParamError};
