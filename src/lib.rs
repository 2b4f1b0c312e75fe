//! # traj2hash-suite
//!
//! Meta-crate of the Traj2Hash reproduction (ICDE 2024, *Learning to
//! Hash for Trajectory Similarity Computation and Search*). It hosts the
//! runnable examples under `examples/` and the cross-crate integration
//! tests under `tests/`, and re-exports every member crate for
//! convenience:
//!
//! * [`tinynn`] — CPU tensor/autograd/layer substrate
//! * [`traj_data`] — trajectory types + synthetic city datasets
//! * [`traj_dist`] — exact distance measures and distance matrices
//! * [`traj_grid`] — grid machinery, decomposed embeddings, triplets
//! * [`traj2hash`] — the paper's model, losses, and trainer
//! * [`traj_baselines`] — the comparison methods
//! * [`traj_index`] — Euclidean/Hamming top-k search structures
//! * [`traj_eval`] — metrics and experiment tables
//! * [`traj_engine`] — the serving layer: one `ShardedEngine` over
//!   encode → hash → index → search, with incremental updates, lock-free
//!   readers + snapshots

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]

pub use tinynn;
pub use traj2hash;
pub use traj_baselines;
pub use traj_bench;
pub use traj_data;
pub use traj_dist;
pub use traj_engine;
pub use traj_eval;
pub use traj_grid;
pub use traj_index;
