//! # traj-eval — metrics and experiment utilities
//!
//! HR@k and R10@50 metrics (Section V-A4), exact parallel ground-truth
//! top-k computation, ranking glue over embeddings/hash codes, and plain
//! text table rendering for the experiment harnesses.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod error;
pub mod groundtruth;
pub mod metrics;
pub mod rank;
pub mod table;

pub use error::EvalError;
pub use groundtruth::{
    dense_ground_truth_top_k, ground_truth_top_k, ground_truth_top_k_with, GroundTruthOptions,
};
pub use metrics::{hr_at_k, r10_at_50, recall_k1_at_k2, Metrics};
pub use rank::{pack_codes, pack_codes_from_floats, rank_euclidean, rank_hamming};
pub use table::{fmt4, fmt_ms, TextTable};
