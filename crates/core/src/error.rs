//! Typed training and encoding errors, replacing the library-code
//! asserts the seed used (a bad config, a degenerate dataset or a
//! hostile trajectory should be handleable by the caller, not abort the
//! process).

use crate::checkpoint::CheckpointError;
use std::fmt;
use traj_data::Trajectory;
use traj_dist::PruneError;

/// Why [`crate::Traj2Hash::try_embed`] refused a trajectory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmbedError {
    /// The trajectory has no points: there is no first token to read out.
    Empty,
    /// A coordinate is NaN or infinite: every embedding value, and every
    /// distance computed from it, would be NaN.
    NonFinite {
        /// Position of the first offending point.
        point: usize,
    },
}

impl EmbedError {
    /// `Ok` exactly when [`crate::Traj2Hash::try_embed`] accepts `t`, for
    /// callers that must refuse an input before doing any other work.
    pub fn check(t: &Trajectory) -> Result<(), EmbedError> {
        if t.is_empty() {
            return Err(EmbedError::Empty);
        }
        match t.points.iter().position(|p| !(p.x.is_finite() && p.y.is_finite())) {
            Some(point) => Err(EmbedError::NonFinite { point }),
            None => Ok(()),
        }
    }
}

impl fmt::Display for EmbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmbedError::Empty => write!(f, "trajectory has no points"),
            EmbedError::NonFinite { point } => {
                write!(f, "point {point} has a non-finite coordinate")
            }
        }
    }
}

impl std::error::Error for EmbedError {}

/// Why training could not start or complete.
#[derive(Debug)]
pub enum TrainError {
    /// A [`crate::TrainConfig`] field is out of its valid range.
    InvalidConfig(String),
    /// The similarity supervision needs at least two seed trajectories.
    TooFewSeeds {
        /// Seeds actually supplied.
        got: usize,
    },
    /// Triplet generation needs a non-empty corpus.
    EmptyCorpus,
    /// The sparse supervision sweep failed (an invalid bucket cell size
    /// or a worker panic inside the pruned exact driver).
    Supervision(PruneError),
    /// The divergence guard exhausted its rollback budget: the loss
    /// kept spiking or going non-finite after every retry.
    Diverged {
        /// Epoch that kept failing.
        epoch: usize,
        /// The last offending loss value.
        loss: f32,
        /// How many rollbacks were attempted at this epoch.
        retries: usize,
    },
    /// Reading or writing a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A checkpoint decoded cleanly but its parameter blob does not fit
    /// this model (count or shape mismatch — usually a config drift
    /// between the saving and resuming run).
    IncompatibleCheckpoint(String),
    /// The debug-build static verifier rejected a compiled batch plan or
    /// a recorded loss tape before `backward` ran (shape drift, severed
    /// gradient flow, duplicate slot writes, poisoned supervision).
    InvalidGraph(String),
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::InvalidConfig(s) => write!(f, "invalid train config: {s}"),
            TrainError::TooFewSeeds { got } => {
                write!(f, "need at least two seed trajectories, got {got}")
            }
            TrainError::EmptyCorpus => write!(f, "triplet generation needs a non-empty corpus"),
            TrainError::Supervision(e) => write!(f, "sparse supervision sweep failed: {e}"),
            TrainError::Diverged { epoch, loss, retries } => write!(
                f,
                "training diverged at epoch {epoch} (loss {loss}) and did not recover \
                 after {retries} rollbacks"
            ),
            TrainError::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            TrainError::IncompatibleCheckpoint(s) => {
                write!(f, "checkpoint incompatible with this model: {s}")
            }
            TrainError::InvalidGraph(s) => {
                write!(f, "static verification rejected the training graph: {s}")
            }
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Checkpoint(e) => Some(e),
            TrainError::Supervision(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CheckpointError> for TrainError {
    fn from(e: CheckpointError) -> Self {
        TrainError::Checkpoint(e)
    }
}

impl From<PruneError> for TrainError {
    fn from(e: PruneError) -> Self {
        TrainError::Supervision(e)
    }
}
