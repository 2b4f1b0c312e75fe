//! # traj-soak — always-on streaming soak for the Traj2Hash engine
//!
//! A long-lived, deterministic, fault-injected serving loop over
//! [`traj_engine::ShardedEngine`]. Each tick:
//!
//! 1. ingests a batch from a drifting city stream
//!    ([`traj_data::DriftingGenerator`], porto → chengdu),
//! 2. serves top-k queries round-robin across every strategy
//!    (degraded mode still answers via linear scan),
//! 3. periodically re-measures validation HR@10 of the serving model
//!    on the *current* distribution and feeds a frozen-baseline
//!    detector ([`traj_obs::TrendWindow`]),
//! 4. on detected drift, fine-tunes from the on-disk checkpoint,
//!    re-encodes the live corpus, persists a `T2HSNAP1` snapshot
//!    through the fault-injection layer, loads it back, and hot-swaps
//!    it into serving, and
//! 5. runs scheduled degrade → recover drills.
//!
//! Every tick ends either healthy or in a typed, telemetry-visible
//! degraded state ([`TickHealth`]); injected write faults
//! ([`traj2hash::FaultPlan`]) surface as degraded ticks that later
//! ticks retry, never as aborts. The JSONL telemetry stream (`OBS_JSONL`)
//! is the run's artifact. See `DESIGN.md` §12.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod report;
mod runner;

pub use config::SoakConfig;
pub use report::{DegradeReason, SoakReport, TickHealth, TickRecord};
pub use runner::{SoakError, SoakRunner};
