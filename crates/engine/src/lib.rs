//! # traj-engine — the Traj2Hash serving layer
//!
//! The paper's end product is a *search system*: Euclidean embeddings
//! for similarity computation (Eq. 15) plus binary codes for Hamming
//! top-k search (Eq. 16, Section V-E). This crate packages that system
//! as one engine, [`ShardedEngine`], instead of the ad-hoc
//! `prepare → embed_all → pack_codes → build index → query` wiring every
//! caller used to repeat:
//!
//! * **one row store** — a shard's rows live once, in columnar
//!   [`shard::Rows`] blocks over
//!   [`EmbeddingMatrix`](traj_index::EmbeddingMatrix) and
//!   [`PackedCodes`](traj_index::PackedCodes);
//! * **one query path** — [`ShardedEngine::query`] covers all five
//!   strategies ([`Strategy`]) by scanning those columns or through a
//!   [`HammingTable`](traj_index::HammingTable),
//!   [`MultiIndexHashing`](traj_index::MultiIndexHashing) and optional
//!   [`VpTree`](traj_index::VpTree) that read them in place, with
//!   automatic linear-scan degradation;
//! * **a live corpus** — [`ShardedEngine::insert`] /
//!   [`ShardedEngine::remove`] via generations + tombstones with
//!   threshold-triggered per-shard compaction;
//! * **concurrent readers** — [`ShardedEngine::reader`] hands out
//!   lock-free [`ShardReader`]s that pin immutable shard generations;
//! * **snapshots** — [`ShardedEngine::save_snapshot`] /
//!   [`ShardedEngine::load_snapshot`] persist model parameters,
//!   corpus, embeddings, and codes in the CRC-checksummed container
//!   format, so cold-start never re-encodes;
//! * **a model-checked publish protocol** — the engine has one swap
//!   point, a [`cell::PublishCell`] over the model and every shard it
//!   encoded, so each operation is one pin or one publish; the
//!   `loomlet` interleaving enumerator (`tests/common/loomlet.rs`)
//!   runs every interleaving of whole engine operations against the
//!   scan oracle.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod cell;
pub mod engine;
pub mod error;
pub mod shard;
pub mod sharded;
pub mod snapshot;
pub mod telemetry;
pub mod trace;

pub use cell::PublishCell;
pub use engine::{EngineConfig, EngineStats, Hit, Strategy};
pub use error::EngineError;
pub use sharded::{PinnedView, ReaderSpec, ShardConfig, ShardReader, ShardedEngine};
pub use telemetry::{EngineTelemetry, QueryInfo, StrategyTelemetry};
pub use trace::{QueryTrace, ShardRow};
