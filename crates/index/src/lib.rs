//! Spatial index substrates for the *DBSCAN Revisited* reproduction.
//!
//! The paper's algorithms and baselines need four different access structures,
//! all built here from scratch:
//!
//! * [`LinearScan`] — the trivial O(n)-per-query index; the ground truth every
//!   other structure is tested against, and the honest worst case of the original
//!   KDD'96 algorithm;
//! * [`KdTree`] — a bulk-built kd-tree supporting ε-range reporting, capped range
//!   counting, and nearest-neighbor queries; used by the KDD96 baseline, by the
//!   Gunawan-style edge computation, and as the practical stand-in for the
//!   Agarwal et al. BCP routine (see DESIGN.md, substitutions);
//! * [`RTree`] — an STR bulk-loaded R-tree, standing in for the R*-tree that
//!   backed the original DBSCAN implementation;
//! * [`GridIndex`] — the side-`ε/√d` grid of Sections 2.2/3.2 with per-cell point
//!   lists and precomputed ε-neighbor cell lists (found through a kd-tree over
//!   non-empty cell centers, since enumerating all `(2√d+3)^d` offsets is
//!   infeasible for d ≥ 5);
//! * [`ApproxRangeCounter`] — the quadtree-like hierarchical grid of Lemma 5
//!   answering approximate range-count queries in O(1) expected time for fixed ρ.

pub mod counter;
pub mod error;
pub mod grid;
pub mod kdtree;
pub mod linear;
pub mod rtree;
pub mod traits;

pub use counter::ApproxRangeCounter;
pub use error::BuildError;
pub use grid::{EpsCount, GridIndex};
pub use kdtree::KdTree;
pub use linear::LinearScan;
pub use rtree::RTree;
pub use traits::RangeIndex;
