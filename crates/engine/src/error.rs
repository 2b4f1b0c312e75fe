//! Typed errors of the serving engine.

use std::fmt;
use traj2hash::{CheckpointError, EmbedError};
use traj_index::SearchError;

/// Why an engine operation failed.
#[derive(Debug)]
pub enum EngineError {
    /// An index rejected the query and no linear-scan degradation was
    /// possible either (e.g. the corpus itself is width-inconsistent).
    Search(SearchError),
    /// `remove` was asked for an id that does not exist or was already
    /// removed.
    UnknownId(u64),
    /// The [`EngineConfig`](crate::EngineConfig) is unusable as given.
    InvalidConfig(String),
    /// A query or inserted trajectory the encoder cannot embed: no
    /// points, or a non-finite coordinate.
    InvalidInput(String),
    /// A snapshot failed to encode, decode, or validate.
    Snapshot(CheckpointError),
    /// The engine state cannot be snapshotted — currently only when the
    /// model's grid channel uses a non-serializable embedding provider
    /// (Node2vec).
    SnapshotUnsupported(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Search(e) => write!(f, "search failed: {e}"),
            EngineError::UnknownId(id) => write!(f, "no live trajectory with id {id}"),
            EngineError::InvalidConfig(s) => write!(f, "invalid engine config: {s}"),
            EngineError::InvalidInput(s) => write!(f, "invalid input: {s}"),
            EngineError::Snapshot(e) => write!(f, "snapshot error: {e}"),
            EngineError::SnapshotUnsupported(s) => write!(f, "snapshot unsupported: {s}"),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::Search(e) => Some(e),
            EngineError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SearchError> for EngineError {
    fn from(e: SearchError) -> Self {
        EngineError::Search(e)
    }
}

impl From<EmbedError> for EngineError {
    fn from(e: EmbedError) -> Self {
        EngineError::InvalidInput(e.to_string())
    }
}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        EngineError::Snapshot(e)
    }
}
