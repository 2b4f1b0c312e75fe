//! # traj-index — Euclidean and Hamming top-k search
//!
//! Packed [`BinaryCode`]s with popcount Hamming distance, brute-force
//! Euclidean/Hamming scans, a radius-2 table-lookup index, the
//! `Hamming-Hybrid` search strategy evaluated in Section V-E of the
//! paper, plus two exact pruning indexes that go beyond it:
//! [`MultiIndexHashing`] (exact Hamming k-NN without the empty-bucket
//! problem of footnote 5) and a [`VpTree`] for the Euclidean space.
//!
//! A corpus is stored once, as two flat columns — [`EmbeddingMatrix`]
//! (Eq. 15's `h_f`) and [`PackedCodes`] (Eq. 16's `z`). The index
//! structures are built `over` an `Arc` of a column and read it in
//! place; the `build` / `try_build` constructors taking `Vec`s of rows
//! are adapters that pack a column first.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod cluster;
pub mod code;
pub mod error;
pub mod matrix;
pub mod mih;
pub mod packed;
pub mod search;
pub mod topk;
pub mod vptree;

pub use cluster::{dbscan_hamming, Assignment, Clustering};
pub use code::BinaryCode;
pub use error::SearchError;
pub use matrix::{euclidean_distance, EmbeddingMatrix};
pub use mih::MultiIndexHashing;
pub use packed::{hamming_words, PackedCodes};
pub use search::{euclidean_top_k, hamming_top_k, HammingTable, Hit};
pub use topk::{cmp_hits, sort_hits, top_k_grouped, top_k_hits};
pub use vptree::VpTree;
