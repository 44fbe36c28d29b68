//! Geometric primitives shared by every crate in the *DBSCAN Revisited* reproduction.
//!
//! The paper (Gan & Tao, SIGMOD 2015) works exclusively in low, fixed dimensionality
//! `d` with the Euclidean metric, so the whole workspace is generic over a
//! compile-time dimension `D` (`Point<const D: usize>`). This crate provides:
//!
//! * [`Point`] — a `D`-dimensional point with squared/plain Euclidean distances;
//! * [`Aabb`] — axis-aligned boxes with the ball predicates the grid algorithms need
//!   (minimum/maximum distance to a point, "fully inside ball", "disjoint from ball");
//! * [`CellCoord`] and the [`grid`] module — integer grid-cell coordinates for the
//!   side-length-`ε/√d` grids at the heart of the exact and ρ-approximate algorithms;
//! * [`hash`] — an FxHash-style hasher plus `HashMap`/`HashSet` aliases used for the
//!   hot cell-coordinate maps (written here so the workspace needs no extra
//!   dependency for fast hashing);
//! * [`kernels`] — blocked, autovectorizer-friendly distance kernels over
//!   structure-of-arrays ([`kernels::SoaBlock`]) point storage, the hot inner
//!   loops of the BCP edge tests, neighborhood counting, and kd-tree leaves
//!   (re-exported as `dbscan_core::kernels`).

// Indexed `for i in 0..D` loops over fixed-size coordinate arrays are the clearest
// way to write the paired-array arithmetic in this crate; zip-based rewrites obscure it.
#![allow(clippy::needless_range_loop)]

pub mod aabb;
pub mod cell;
pub mod grid;
pub mod hash;
pub mod kernels;
pub mod point;

pub use aabb::Aabb;
pub use cell::{BallCover, CellCoord, CellError, CellPreimage};
pub use hash::{FastHashMap, FastHashSet};
pub use point::Point;

/// The paper normalizes every dataset to the domain `[0, 10^5]` in each dimension
/// (Section 5.1). Exposed as a constant so generators and experiments agree.
pub const PAPER_DOMAIN: f64 = 100_000.0;
