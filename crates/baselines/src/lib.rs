//! # traj-baselines — the paper's comparison methods, reimplemented
//!
//! Dense encoders (NeuTraj, NT-No-SAM, Transformer, TrajGAT-lite behind
//! the [`TrajEncoder`] trait), the self-supervised t2vec and CL-TSim
//! methods, the Fresh LSH for curves, the shared WMSE trainer, and the
//! trainable linear hash head used to give every dense baseline a
//! Hamming-space representation (Section V-A3). Simplifications relative
//! to the original systems are documented per type and in DESIGN.md.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod cltsim;
pub mod encoders;
pub mod fresh;
pub mod hash_head;
pub mod quadtree;
pub mod t2vec;
pub mod train;

pub use cltsim::{ClTsimConfig, ClTsimEncoder};
pub use encoders::{GruMetricEncoder, TrajEncoder, TrajGatEncoder, TransformerEncoder};
pub use fresh::{Fresh, FreshConfig};
pub use hash_head::{HashHead, HashHeadConfig};
pub use quadtree::QuadTree;
pub use t2vec::{T2vecConfig, T2vecEncoder};
pub use train::{train_wmse, WmseConfig};
