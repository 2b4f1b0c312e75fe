//! # traj2hash — learning to hash for trajectory similarity
//!
//! Reproduction of *"Learning to Hash for Trajectory Similarity
//! Computation and Search"* (ICDE 2024). The model encodes a trajectory
//! into a Euclidean embedding `h_f^T` whose pairwise distances
//! approximate a chosen trajectory measure (DTW / Fréchet / Hausdorff),
//! and simultaneously into a binary code `z^T = sign(h_f^T)` for fast
//! Hamming-space top-k search.
//!
//! ## Quick start
//!
//! ```no_run
//! use traj2hash::{ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData, train};
//! use traj_data::{CityParams, Dataset, SplitSizes};
//! use traj_dist::Measure;
//!
//! let dataset = Dataset::generate(CityParams::porto_like(), SplitSizes::small(), 42);
//! let cfg = ModelConfig::small();
//! let ctx = ModelContext::prepare(&dataset.training_visible(), &cfg, 42);
//! let mut model = Traj2Hash::new(cfg, &ctx, 42);
//! let data = TrainData::prepare(&dataset, Measure::Frechet, &TrainConfig::default())
//!     .expect("supervision");
//! let report = train(&mut model, &data, &TrainConfig::default()).expect("training");
//! println!("best epoch: {}", report.best_epoch);
//! let code = model.hash_signs(&dataset.query[0]);
//! assert_eq!(code.len(), model.embedding_dim());
//! ```
//!
//! ## Fault tolerance
//!
//! Training survives the failure modes that actually occur at scale:
//! bad hyper-parameters are rejected up front
//! ([`TrainConfig::validate`]), diverging epochs roll back to the last
//! good state with a reduced learning rate (recorded as
//! [`RecoveryEvent`]s in the [`TrainReport`]), and the full training
//! state — parameters, Adam moments, scheduler position, history — is
//! written to a checksummed [`checkpoint`] file after every accepted
//! epoch when [`TrainConfig::checkpoint_path`] is set, and resumed after
//! a crash via [`TrainConfig::resume`].

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod encoder;
pub mod error;
mod infer;
pub mod iofault;
pub mod loss;
pub mod model;
mod plan;
pub mod trainer;

pub use checkpoint::{Checkpoint, CheckpointError, RecoveryEvent, RecoveryKind};
pub use config::{ModelConfig, Readout, TrainConfig};
pub use error::{EmbedError, TrainError};
pub use iofault::{
    clean_stale_tmps, durable_write, durable_write_retry, with_fault_plan, FaultPlan, FaultRule,
    FaultWhen, RetryPolicy, WriteFault, WriteReceipt,
};
pub use model::{ModelContext, ModelSpec, Traj2Hash};
pub use trainer::{
    train, train_with_hooks, validation_hr10, TrainData, TrainHooks, TrainReport,
};
