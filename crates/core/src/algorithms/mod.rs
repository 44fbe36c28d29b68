//! The five DBSCAN algorithms evaluated in the paper.
//!
//! All exact algorithms ([`kdd96`], [`gunawan_2d`], [`grid_exact`], [`cit08`])
//! compute the unique clustering of Problem 1 and differ only in running time;
//! [`rho_approx`] computes a legal ρ-approximate clustering (Problem 2) under the
//! sandwich guarantee of Theorem 3.

mod cit08;
mod grid_exact;
mod gunawan2d;
pub(crate) mod kdd96;
mod rho_approx;

pub use cit08::{
    cit08, cit08_instrumented, try_cit08, try_cit08_ctl, try_cit08_instrumented, Cit08Config,
};
pub use grid_exact::{
    grid_exact, grid_exact_instrumented, grid_exact_with, try_grid_exact, try_grid_exact_ctl,
    try_grid_exact_from_cells_ctl, try_grid_exact_instrumented, try_grid_exact_with, BcpStrategy,
};
pub use gunawan2d::{
    gunawan_2d, gunawan_2d_instrumented, try_gunawan_2d, try_gunawan_2d_ctl,
    try_gunawan_2d_instrumented,
};
pub use kdd96::{
    kdd96, kdd96_instrumented, kdd96_kdtree, kdd96_kdtree_instrumented, kdd96_linear,
    kdd96_linear_instrumented, kdd96_rtree, kdd96_rtree_instrumented, try_kdd96,
    try_kdd96_instrumented, try_kdd96_kdtree, try_kdd96_kdtree_ctl, try_kdd96_kdtree_instrumented,
    try_kdd96_linear, try_kdd96_rtree, try_kdd96_rtree_instrumented,
};
pub use rho_approx::{
    rho_approx, rho_approx_instrumented, rho_approx_with, try_rho_approx, try_rho_approx_ctl,
    try_rho_approx_from_cells_ctl, try_rho_approx_instrumented, ApproxOracle,
};

// The edge oracles' pipeline drivers, for the `*_par` entry points, and the
// Lemma 5 edge rule, for the degraded test every grid algorithm shares.
pub(crate) use grid_exact::grid_exact_run;
pub(crate) use rho_approx::{counter_edge_test, rho_approx_run, CounterSlots, EdgeRule};
