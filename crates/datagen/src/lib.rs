//! Dataset generation for the *DBSCAN Revisited* experiments.
//!
//! * [`spreader`] — the **seed spreader** of Section 5.1: a restart random walk
//!   that "spits out" points around its current location, producing arbitrarily
//!   shaped dense clusters plus uniform background noise (Figure 8);
//! * [`realworld`] — synthetic stand-ins for the paper's three real datasets
//!   (PAMAP2, Farm, Household), matching their dimensionality and structural
//!   character (see DESIGN.md for the substitution rationale);
//! * [`hard`] — a blob and a shell at radius ε(1 + ρ/2) around it, whose
//!   blob–shell pairs all sit in the ρ-approximate slack band (the
//!   exact-vs-approximate gap of Section 3.1);
//! * [`io`] — plain CSV reading/writing for points, so generated datasets can be
//!   persisted and plotted externally.

pub mod hard;
pub mod io;
pub mod randutil;
pub mod realworld;
pub mod scenes;
pub mod spreader;

pub use spreader::{seed_spreader, SpreaderConfig};
