//! Typed failures for index construction.
//!
//! The access structures in this crate are built over untrusted spans (the CLI
//! feeds them raw CSV data) and can be asked to materialize multi-gigabyte
//! neighbor lists or counter hierarchies. The fallible `try_build` entry points
//! return a [`BuildError`] instead of saturating cell coordinates or dying on
//! OOM; the classic infallible builders delegate to them and panic with the
//! same message, preserving their historical signatures.

use dbscan_geom::CellError;
use std::fmt;

/// Why an index could not be built.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum BuildError {
    /// A grid-cell coordinate could not be computed (bad side length derived
    /// from `eps`, or a coordinate whose cell index overflows `i64`).
    Cell(CellError),
    /// A scalar build parameter is out of its valid range.
    Param {
        /// Name of the offending parameter.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The estimated memory footprint of the structure exceeds the caller's
    /// byte budget; the build is refused before any large allocation happens.
    Budget {
        /// Which structure was being built.
        structure: &'static str,
        /// Estimated bytes the build would need.
        estimated_bytes: u64,
        /// The configured budget it exceeds.
        budget_bytes: u64,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Cell(e) => write!(f, "{e}"),
            BuildError::Param { what, value } => {
                write!(
                    f,
                    "{what} must be positive (and not absurdly small): got {value}"
                )
            }
            BuildError::Budget {
                structure,
                estimated_bytes,
                budget_bytes,
            } => write!(
                f,
                "building the {structure} would need an estimated {estimated_bytes} \
                 bytes, exceeding the {budget_bytes}-byte memory budget"
            ),
        }
    }
}

impl std::error::Error for BuildError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BuildError::Cell(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CellError> for BuildError {
    fn from(e: CellError) -> Self {
        BuildError::Cell(e)
    }
}

/// Checks an estimated allocation size against an optional byte budget.
pub(crate) fn check_budget(
    structure: &'static str,
    estimated_bytes: u64,
    budget_bytes: Option<u64>,
) -> Result<(), BuildError> {
    match budget_bytes {
        Some(budget) if estimated_bytes > budget => Err(BuildError::Budget {
            structure,
            estimated_bytes,
            budget_bytes: budget,
        }),
        _ => Ok(()),
    }
}
