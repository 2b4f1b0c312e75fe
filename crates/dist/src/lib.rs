//! # traj-dist — exact trajectory distance measures
//!
//! Implements the ground-truth distance functions the paper approximates
//! (DTW, discrete Fréchet, Hausdorff — Definition 3) plus ERP, EDR, and
//! constrained DTW, their endpoint lower bounds (Lemma 1), and the
//! bucket-pruned exact top-k driver with the sparse `exp(-theta * D)`
//! similarity transform used as WMSE supervision (Section IV-F).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod bounds;
pub mod dtw;
pub mod edit;
pub mod frechet;
pub mod hausdorff;
pub mod measure;
pub mod sparse;

pub use bounds::{
    bbox_bound, endpoint_bound, first_point_bound, last_point_bound, BoundProfile,
};
pub use dtw::{cdtw, dtw};
pub use edit::{edr, erp};
pub use frechet::frechet;
pub use hausdorff::{directed_hausdorff, hausdorff};
pub use measure::Measure;
pub use sparse::{
    auto_theta_sparse, pruned_self_top_k, pruned_top_k, sparse_similarity, PruneError,
    PruneStats, PrunedResult, PrunedTopK, SparseDistances, SparsePairs, SparseSimilarity,
};
