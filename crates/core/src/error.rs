//! The typed error surface of the crate, plus the recovery and resource
//! policies that parameterize the fallible entry points.
//!
//! Every algorithm runs through
//! [`cluster`](crate::algorithms::cluster), which returns
//! `Result<Clustering, DbscanError>`; the paper-name convenience functions
//! panic with the error's `Display` text instead. The variants cover every way a run can fail:
//! bad parameters, non-finite or unrepresentable input, a refused
//! over-budget index build, a worker panic inside the parallel pipeline, and
//! CSV ingest problems (carrying the 1-based line number and offending token).

use crate::types::ParamError;
use dbscan_geom::CellError;
use dbscan_index::BuildError;
use std::fmt;
use std::str::FromStr;

/// Why a DBSCAN run failed. See the [module docs](self) for the taxonomy.
#[derive(Debug)]
pub enum DbscanError {
    /// `eps`/`min_pts` rejected by [`crate::DbscanParams::new`].
    InvalidParams(ParamError),
    /// An input point has a NaN or infinite coordinate.
    NonFinitePoint {
        /// Index of the first offending point.
        index: usize,
    },
    /// The approximation parameter `rho` is unusable for this `eps`.
    InvalidRho {
        /// The rejected value.
        rho: f64,
        /// Human-readable reason (always starts with what must hold).
        reason: &'static str,
    },
    /// A coordinate's integer grid-cell index overflows `i64`: the dataset
    /// span is too large relative to the cell side in use.
    CoordinateOverflow {
        /// Dimension of the offending coordinate.
        dim: usize,
        /// The offending coordinate value.
        value: f64,
        /// The cell side at which the overflow occurred.
        side: f64,
    },
    /// An index build was refused because its estimated footprint exceeds the
    /// configured [`ResourceLimits::max_index_bytes`] budget.
    ResourceLimit {
        /// Which structure was refused.
        structure: &'static str,
        /// Estimated bytes the build would need.
        estimated_bytes: u64,
        /// The configured budget.
        budget_bytes: u64,
    },
    /// A worker thread panicked inside the parallel pipeline. The run was
    /// poisoned and drained cooperatively; no other worker was torn down.
    WorkerPanicked {
        /// Every pipeline phase a failure was recorded in, `+`-joined in
        /// first-seen order (`"labeling"`, `"edge_tests"`, `"border_assign"`,
        /// or e.g. `"labeling+edge_tests"` for multi-panic chaos runs).
        phase: String,
        /// Id of the task (cell / point chunk) whose execution panicked first.
        task: u32,
        /// The first panic's payload, stringified.
        payload: String,
        /// Total number of recorded worker failures (≥ 1).
        panic_count: u64,
    },
    /// The run was explicitly cancelled mid-flight — an external
    /// [`RunCtl::cancel`](crate::deadline::RunCtl::cancel) (a server-side
    /// `cancel` verb) or an [`interrupt`](crate::deadline::RunCtl::interrupt)
    /// (SIGINT/SIGTERM, shutdown drain). Unlike a deadline expiry this is
    /// never softened by the degrade/partial policies.
    Cancelled {
        /// The stage that observed the cancellation.
        phase: &'static str,
        /// Why the token tripped (always a hard reason:
        /// [`CancelReason::is_hard`](crate::deadline::CancelReason::is_hard)).
        reason: crate::deadline::CancelReason,
    },
    /// The run's time budget expired under
    /// [`DeadlinePolicy::Abort`](crate::deadline::DeadlinePolicy::Abort).
    DeadlineExceeded {
        /// The stage that observed the expiry (`"labeling"`, `"edge_tests"`,
        /// or `"border_assign"`).
        phase: &'static str,
        /// Wall-clock time elapsed when the expiry was observed.
        elapsed: std::time::Duration,
        /// Tasks still unfinished in that stage at that moment.
        remaining_tasks: u64,
    },
    /// A [`Spec`](crate::algorithms::Spec) that does not fit its inputs:
    /// Gunawan's 2D algorithm on points of another dimensionality, or
    /// prebuilt core cells passed to an algorithm that cannot use them or
    /// built under other parameters.
    SpecMismatch {
        /// What does not fit.
        reason: String,
    },
    /// Prebuilt core cells do not cover the point set.
    IndexSizeMismatch {
        /// Number of points the index covers.
        index_len: usize,
        /// Number of points in the dataset.
        points_len: usize,
    },
    /// A CSV row could not be parsed.
    Parse {
        /// 1-based line number of the offending row.
        line: usize,
        /// The offending token (a field, or the whole row for shape errors).
        token: String,
        /// What was wrong with it.
        message: String,
    },
    /// An underlying I/O failure while reading input.
    Io(std::io::Error),
}

impl fmt::Display for DbscanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DbscanError::InvalidParams(e) => write!(f, "invalid parameters: {e}"),
            DbscanError::NonFinitePoint { index } => {
                write!(
                    f,
                    "input point {index} has a non-finite coordinate (NaN or infinity)"
                )
            }
            DbscanError::InvalidRho { rho, reason } => {
                write!(f, "{reason}: got rho = {rho}")
            }
            DbscanError::CoordinateOverflow { dim, value, side } => write!(
                f,
                "coordinate {value} (dimension {dim}) overflows the integer cell \
                 grid of side {side}; the dataset span is too large for this eps"
            ),
            DbscanError::ResourceLimit {
                structure,
                estimated_bytes,
                budget_bytes,
            } => write!(
                f,
                "building the {structure} would need an estimated {estimated_bytes} \
                 bytes, exceeding the {budget_bytes}-byte memory budget"
            ),
            DbscanError::WorkerPanicked {
                phase,
                task,
                payload,
                panic_count,
            } => write!(
                f,
                "a worker panicked in the {phase} phase (task {task}, \
                 {panic_count} worker failure(s) total): {payload}"
            ),
            DbscanError::Cancelled { phase, reason } => {
                write!(f, "run cancelled ({}) in the {phase} phase", reason.name())
            }
            DbscanError::DeadlineExceeded {
                phase,
                elapsed,
                remaining_tasks,
            } => write!(
                f,
                "deadline exceeded in the {phase} phase after {elapsed:?} \
                 with {remaining_tasks} tasks remaining"
            ),
            DbscanError::SpecMismatch { reason } => f.write_str(reason),
            DbscanError::IndexSizeMismatch {
                index_len,
                points_len,
            } => write!(
                f,
                "the prebuilt core cells cover {index_len} points but the dataset has {points_len}"
            ),
            DbscanError::Parse {
                line,
                token,
                message,
            } => {
                write!(f, "line {line}: {message} (offending token: {token:?})")
            }
            DbscanError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for DbscanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DbscanError::InvalidParams(e) => Some(e),
            DbscanError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParamError> for DbscanError {
    fn from(e: ParamError) -> Self {
        DbscanError::InvalidParams(e)
    }
}

impl From<std::io::Error> for DbscanError {
    fn from(e: std::io::Error) -> Self {
        DbscanError::Io(e)
    }
}

impl From<CellError> for DbscanError {
    fn from(e: CellError) -> Self {
        match e {
            // A bad side means eps itself was bad — the params-level failure.
            CellError::BadSide { .. } => DbscanError::InvalidParams(ParamError::NonPositiveEps),
            CellError::Overflow { dim, value, side } => {
                DbscanError::CoordinateOverflow { dim, value, side }
            }
        }
    }
}

impl From<BuildError> for DbscanError {
    fn from(e: BuildError) -> Self {
        match e {
            BuildError::Cell(c) => c.into(),
            BuildError::Param { value, .. } => DbscanError::InvalidRho {
                rho: value,
                reason: RHO_POSITIVE,
            },
            BuildError::Budget {
                structure,
                estimated_bytes,
                budget_bytes,
            } => DbscanError::ResourceLimit {
                structure,
                estimated_bytes,
                budget_bytes,
            },
        }
    }
}

pub(crate) const RHO_POSITIVE: &str = "rho must be positive and finite";
pub(crate) const RHO_TOO_SMALL: &str =
    "rho must be positive and larger than 1e-9 (the Lemma 5 hierarchy degenerates below that)";
pub(crate) const RHO_EPS_OVERFLOW: &str =
    "rho must be positive and small enough that eps * (1 + rho) stays finite";

/// Validates the approximation parameter against the radius it will scale.
///
/// Rejects `rho ≤ 0`, NaN/inf, values so small the counter hierarchy
/// degenerates (`≤ 1e-9`, where the infallible builder would panic), and
/// values so large that `eps·(1+ρ)` — the outer sandwich radius — overflows
/// to infinity.
pub fn validate_rho(eps: f64, rho: f64) -> Result<(), DbscanError> {
    if !(rho.is_finite() && rho > 0.0) {
        Err(DbscanError::InvalidRho {
            rho,
            reason: RHO_POSITIVE,
        })
    } else if rho <= 1e-9 {
        Err(DbscanError::InvalidRho {
            rho,
            reason: RHO_TOO_SMALL,
        })
    } else if !(eps * (1.0 + rho)).is_finite() {
        Err(DbscanError::InvalidRho {
            rho,
            reason: RHO_EPS_OVERFLOW,
        })
    } else {
        Ok(())
    }
}

/// What the grid pipeline does when a worker panics mid-run.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryPolicy {
    /// Surface [`DbscanError::WorkerPanicked`] to the caller (the default).
    #[default]
    Fail,
    /// Transparently re-run the same pipeline on the one-thread pool with
    /// the fault plan off (so the result is the unfaulted clustering) and
    /// record the event in the stats counters `worker_panics` /
    /// `sequential_fallbacks`.
    FallbackSequential,
}

impl RecoveryPolicy {
    /// Stable lowercase name, as spelled in the CLI flag and the stats
    /// envelope's `recovery` field.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryPolicy::Fail => "fail",
            RecoveryPolicy::FallbackSequential => "fallback-sequential",
        }
    }
}

impl FromStr for RecoveryPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fail" => Ok(RecoveryPolicy::Fail),
            "fallback-sequential" => Ok(RecoveryPolicy::FallbackSequential),
            other => Err(format!(
                "unknown recovery policy {other:?} (expected 'fail' or 'fallback-sequential')"
            )),
        }
    }
}

/// Caller-configurable resource budgets enforced by the `try_*` entry points.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ResourceLimits {
    /// Refuse any single index build (grid, per-cell counter aggregate) whose
    /// estimated footprint exceeds this many bytes. `None` = unlimited.
    pub max_index_bytes: Option<u64>,
}

impl ResourceLimits {
    /// No budgets: every build is attempted (the historical behavior).
    pub const UNLIMITED: ResourceLimits = ResourceLimits {
        max_index_bytes: None,
    };

    /// Limits with the given index-build byte budget.
    pub fn with_max_index_bytes(max_index_bytes: u64) -> Self {
        ResourceLimits {
            max_index_bytes: Some(max_index_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rho_validation_covers_the_taxonomy() {
        assert!(validate_rho(1.0, 0.001).is_ok());
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                validate_rho(1.0, bad),
                Err(DbscanError::InvalidRho {
                    reason: RHO_POSITIVE,
                    ..
                })
            ));
        }
        assert!(matches!(
            validate_rho(1.0, 1e-10),
            Err(DbscanError::InvalidRho {
                reason: RHO_TOO_SMALL,
                ..
            })
        ));
        // eps * (1 + rho) overflows f64 even though rho itself is finite.
        assert!(matches!(
            validate_rho(1e308, 10.0),
            Err(DbscanError::InvalidRho {
                reason: RHO_EPS_OVERFLOW,
                ..
            })
        ));
    }

    #[test]
    fn rho_messages_keep_the_historical_prefix() {
        // The infallible rho_approx historically panicked with a message
        // containing "rho must be positive"; the typed errors preserve it.
        for reason in [RHO_POSITIVE, RHO_TOO_SMALL, RHO_EPS_OVERFLOW] {
            assert!(reason.starts_with("rho must be positive"), "{reason}");
        }
    }

    #[test]
    fn build_error_conversion() {
        let e: DbscanError = dbscan_index::BuildError::Budget {
            structure: "grid index",
            estimated_bytes: 100,
            budget_bytes: 10,
        }
        .into();
        assert!(matches!(
            e,
            DbscanError::ResourceLimit {
                budget_bytes: 10,
                ..
            }
        ));

        let e: DbscanError = dbscan_geom::CellError::Overflow {
            dim: 2,
            value: 1e300,
            side: 0.5,
        }
        .into();
        assert!(matches!(e, DbscanError::CoordinateOverflow { dim: 2, .. }));
    }

    #[test]
    fn recovery_policy_round_trips() {
        for p in [RecoveryPolicy::Fail, RecoveryPolicy::FallbackSequential] {
            assert_eq!(p.name().parse::<RecoveryPolicy>().unwrap(), p);
        }
        assert!("chaos".parse::<RecoveryPolicy>().is_err());
    }

    #[test]
    fn display_messages_name_the_essentials() {
        let msg = DbscanError::Parse {
            line: 7,
            token: "abc".into(),
            message: "not a number".into(),
        }
        .to_string();
        assert!(msg.contains("line 7") && msg.contains("\"abc\""), "{msg}");

        let msg = DbscanError::WorkerPanicked {
            phase: "edge_tests".into(),
            task: 3,
            payload: "boom".into(),
            panic_count: 4,
        }
        .to_string();
        assert!(
            msg.contains("edge_tests") && msg.contains("task 3") && msg.contains('4'),
            "{msg}"
        );

        let msg = DbscanError::DeadlineExceeded {
            phase: "edge_tests",
            elapsed: std::time::Duration::from_millis(5),
            remaining_tasks: 12,
        }
        .to_string();
        assert!(
            msg.contains("deadline exceeded")
                && msg.contains("edge_tests")
                && msg.contains("12 tasks remaining"),
            "{msg}"
        );
    }
}
