//! # traj-grid — grid machinery for Traj2Hash
//!
//! Uniform grid partitioning ([`GridSpec`], Definition 2), the
//! light-weight decomposed grid representation with NCE pre-training
//! ([`DecomposedGridEmbedding`], Section IV-C / Eq. 5–7), the Node2vec
//! comparator of Fig. 7, and the fast coarse-grid triplet generation of
//! Section IV-F.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod embedding;
pub mod grid;
pub mod node2vec;
pub mod triplets;

pub use embedding::{DecomposedGridEmbedding, GridEmbedding, NceConfig};
pub use grid::{GridSpec, GridTrajectory};
pub use node2vec::{Node2vecConfig, Node2vecEmbedding};
pub use triplets::{
    bucket_by_grid, cluster_by_grid, generate_triplets, EndpointKey, GridBuckets, GridClusters,
    Triplet,
};
