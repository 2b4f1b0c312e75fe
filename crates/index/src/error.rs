//! Typed errors for index construction and querying.
//!
//! The seed panicked (`assert!`) on every misuse — fatal for a long-
//! running search service where a single width-mismatched query must
//! not take the process down. Queries now return these errors instead;
//! conditions that have a safe degraded answer (empty database, `k`
//! larger than the database, more tables than bits) do not error at
//! all and degrade gracefully instead.

use std::fmt;

/// Why an index could not be built or a query could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// The query code's width differs from the indexed codes' width.
    /// There is no meaningful fallback: Hamming distance between codes
    /// of different widths is undefined.
    WidthMismatch {
        /// Bits in the query code.
        query: usize,
        /// Bits in the indexed codes.
        index: usize,
    },
    /// A database code's width differs from the first code's width
    /// (build-time corruption, e.g. mixed model versions).
    InconsistentCodes {
        /// Position of the offending code.
        position: usize,
        /// Width of the first code.
        expected: usize,
        /// Width of the offending code.
        got: usize,
    },
    /// An embedding's width differs from the width of the rows already
    /// stored (the Euclidean twin of `InconsistentCodes`).
    InconsistentEmbeddings {
        /// Position of the offending row.
        position: usize,
        /// Width of the stored rows.
        expected: usize,
        /// Width of the offending row.
        got: usize,
    },
    /// The requested lookup radius exceeds what table probing supports.
    RadiusUnsupported {
        /// Requested radius.
        radius: u32,
        /// Largest supported radius.
        max: u32,
    },
    /// The index was configured with zero substring tables.
    NoTables,
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::WidthMismatch { query, index } => {
                write!(f, "query code has {query} bits but the index holds {index}-bit codes")
            }
            SearchError::InconsistentCodes { position, expected, got } => write!(
                f,
                "database code {position} has {got} bits, expected {expected}"
            ),
            SearchError::InconsistentEmbeddings { position, expected, got } => write!(
                f,
                "embedding {position} has {got} dimensions, expected {expected}"
            ),
            SearchError::RadiusUnsupported { radius, max } => {
                write!(f, "lookup radius {radius} unsupported (max {max})")
            }
            SearchError::NoTables => write!(f, "multi-index hashing needs at least one table"),
        }
    }
}

impl std::error::Error for SearchError {}
