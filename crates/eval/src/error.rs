//! Typed evaluation failures.
//!
//! Library code in `traj-eval` never panics on operational failures: a
//! worker thread dying mid-sweep or a bad configuration surfaces as an
//! [`EvalError`] the caller can handle (the crate root denies clippy's
//! panic lints to keep it that way).

use std::fmt;
use traj_dist::PruneError;

/// Failures of ground-truth computation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalError {
    /// The configured coarse cell size is not a positive finite number.
    InvalidCellSize,
    /// A parallel worker panicked (a bug in a distance kernel, e.g. an
    /// empty trajectory reaching Hausdorff); the panic is contained and
    /// reported instead of propagated.
    WorkerPanicked,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::InvalidCellSize => {
                write!(f, "ground truth coarse cell size must be a positive finite number")
            }
            EvalError::WorkerPanicked => write!(f, "ground truth worker panicked"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<PruneError> for EvalError {
    fn from(e: PruneError) -> Self {
        match e {
            PruneError::InvalidCellSize => EvalError::InvalidCellSize,
            PruneError::WorkerPanicked => EvalError::WorkerPanicked,
        }
    }
}
