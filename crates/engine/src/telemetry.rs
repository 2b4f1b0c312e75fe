//! Engine-owned telemetry: per-strategy latency/candidate histograms
//! and lifecycle counters.
//!
//! Unlike the global `traj_obs` recorder (which the *application*
//! installs), [`EngineTelemetry`] is always collected — it is part of
//! the engine's state, like [`EngineStats`](crate::EngineStats) — so
//! bench binaries read one source of truth whether or not a recorder is
//! installed. When a recorder *is* installed the same numbers are
//! mirrored to it, which is how the per-strategy histograms reach the
//! JSONL export.
//!
//! The live counters sit in one [`LiveTelemetry`] mutex shared by the
//! writer and every reader. Its guard never leaves this file: each
//! method locks, bumps plain counters and unlocks, so no guard can be
//! held across a search, an encode or a rebuild.

use crate::engine::Strategy;
use std::sync::{Mutex, MutexGuard};
use traj_obs::Histogram;

/// Query-path counters and histograms for one [`Strategy`].
#[derive(Debug, Clone, Default)]
pub struct StrategyTelemetry {
    /// Queries answered by this strategy.
    pub queries: u64,
    /// Queries answered by a full linear scan because the index could
    /// not serve them (engine degraded, or the structure rejected the
    /// query) — *not* counted for strategies that scan by design.
    pub linear_fallbacks: u64,
    /// Queries that ran while the engine was in degraded mode.
    pub degraded_queries: u64,
    /// Wall-clock per query, in seconds.
    pub latency: Histogram,
    /// Rows whose distance was evaluated per query (see
    /// [`QueryInfo::candidates`]).
    pub candidates: Histogram,
}

/// Everything the engine measures about itself. Obtain a snapshot with
/// [`ShardedEngine::telemetry`](crate::ShardedEngine::telemetry).
#[derive(Debug, Clone, Default)]
pub struct EngineTelemetry {
    /// Per-strategy query telemetry, in [`Strategy::ALL`] order.
    pub strategies: [StrategyTelemetry; 5],
    /// Trajectories inserted since construction.
    pub inserts: u64,
    /// Trajectories tombstoned since construction.
    pub removes: u64,
    /// Index rebuilds (including the one at construction).
    pub rebuilds: u64,
    /// Rebuilds that also compacted tombstoned slots away.
    pub compactions: u64,
    /// Rebuilds that failed and left the engine in degraded mode.
    pub degraded_rebuilds: u64,
    /// `Hybrid` queries whose radius-2 ball came up short and spilled
    /// into a full scan (designed behaviour, tracked separately from
    /// [`StrategyTelemetry::linear_fallbacks`]).
    pub hybrid_spills: u64,
    /// Tombstone over-fetch margin applied per indexed query.
    pub overfetch: Histogram,
    /// Snapshots written.
    pub snapshot_saves: u64,
    /// Total snapshot bytes written.
    pub snapshot_bytes: u64,
    /// Live refreshes: a replacement engine's state hot-swapped in via
    /// [`ShardedEngine::hot_swap`](crate::ShardedEngine::hot_swap).
    pub hot_swaps: u64,
    /// Degraded → healthy transitions performed by
    /// [`ShardedEngine::recover`](crate::ShardedEngine::recover).
    pub recoveries: u64,
}

impl EngineTelemetry {
    /// The telemetry bucket for `strategy`.
    pub fn strategy(&self, strategy: Strategy) -> &StrategyTelemetry {
        &self.strategies[strategy.index()]
    }

    /// Total queries across all strategies.
    pub fn total_queries(&self) -> u64 {
        self.strategies.iter().map(|s| s.queries).sum()
    }

    /// Total linear-scan fallbacks across all strategies.
    pub fn total_linear_fallbacks(&self) -> u64 {
        self.strategies.iter().map(|s| s.linear_fallbacks).sum()
    }

    fn fold(&mut self, q: &QueryInfo) {
        let s = &mut self.strategies[q.strategy.index()];
        s.queries += 1;
        s.latency.record(q.seconds);
        s.candidates.record(q.candidates as f64);
        s.linear_fallbacks += u64::from(q.linear_fallback);
        s.degraded_queries += u64::from(q.degraded);
        self.hybrid_spills += u64::from(q.spill);
        self.overfetch.record(q.overfetch as f64);
    }
}

/// The engine's cumulative [`EngineTelemetry`], shared by the writer and
/// its readers.
pub(crate) struct LiveTelemetry(Mutex<EngineTelemetry>);

impl LiveTelemetry {
    /// Telemetry of a freshly built engine: construction counts as each
    /// of its `shards` first rebuild.
    pub(crate) fn built(shards: usize) -> LiveTelemetry {
        LiveTelemetry(Mutex::new(EngineTelemetry { rebuilds: shards as u64, ..Default::default() }))
    }

    /// Poison-proof lock: a panicking reader must not wedge the engine.
    /// Poison here means a query thread panicked mid-telemetry — the
    /// moment a post-mortem wants the flight recorder's tail exemplars,
    /// so the poison arm force-dumps them (re-entrancy-guarded and
    /// best-effort) before continuing. The counters are plain integers,
    /// valid after any panic.
    #[expect(clippy::disallowed_methods, reason = "the telemetry mutex's one acquisition point")]
    fn lock(&self) -> MutexGuard<'_, EngineTelemetry> {
        match self.0.lock() {
            Ok(g) => g,
            Err(poisoned) => {
                traj_obs::flight::poison_dump("engine.telemetry.poisoned");
                poisoned.into_inner()
            }
        }
    }

    /// A copy of the counters.
    pub(crate) fn snapshot(&self) -> EngineTelemetry {
        self.lock().clone()
    }

    /// Folds one answered query into the counters and histograms.
    pub(crate) fn fold(&self, q: &QueryInfo) {
        self.lock().fold(q);
    }

    /// Counts one inserted trajectory.
    pub(crate) fn insert(&self) {
        self.lock().inserts += 1;
    }

    /// Counts one tombstoned trajectory.
    pub(crate) fn remove(&self) {
        self.lock().removes += 1;
    }

    /// Counts one shard rebuild, and whether it compacted and whether it
    /// left the shard degraded.
    pub(crate) fn rebuild(&self, compacted: bool, degraded: bool) {
        let mut t = self.lock();
        t.rebuilds += 1;
        t.compactions += u64::from(compacted);
        t.degraded_rebuilds += u64::from(degraded);
    }

    /// Counts a forced drop of every shard's indexes.
    pub(crate) fn force_degrade(&self) {
        self.lock().degraded_rebuilds += 1;
    }

    /// Counts one degraded → healthy transition.
    pub(crate) fn recovery(&self) {
        self.lock().recoveries += 1;
    }

    /// Counts one hot swap.
    pub(crate) fn hot_swap(&self) {
        self.lock().hot_swaps += 1;
    }

    /// Counts one snapshot written, of `bytes` bytes.
    pub(crate) fn snapshot_saved(&self, bytes: usize) {
        let mut t = self.lock();
        t.snapshot_saves += 1;
        t.snapshot_bytes += bytes as u64;
    }
}

/// The one record of an answered query: the fan-out fills it, the
/// telemetry folds it, [`QueryTrace`](crate::QueryTrace) seals it and
/// the flight recorder dumps it. Returned by
/// [`ShardedEngine::query_with_info`](crate::ShardedEngine::query_with_info).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryInfo {
    /// The strategy that served the query.
    pub strategy: Strategy,
    /// True when the engine was in degraded (index-less) mode.
    pub degraded: bool,
    /// True when the answer came from a full linear scan because the
    /// index could not serve the query.
    pub linear_fallback: bool,
    /// True when a `Hybrid` radius-2 ball came up short on some shard
    /// and spilled into a scan (designed behaviour, not a fallback).
    pub spill: bool,
    /// Rows whose distance to the query was evaluated, summed over the
    /// shards: every live row of a scan, the rows of a radius-2 ball,
    /// the distance evaluations an exact index (`Mih`, the VP-tree)
    /// spent, plus the live delta rows scanned beside any index — the
    /// work a strategy did, not the size of its answer.
    pub candidates: usize,
    /// Tombstone over-fetch margin the index path applied (0 on scan
    /// paths).
    pub overfetch: usize,
    /// Wall-clock seconds spent answering.
    pub seconds: f64,
    /// Shards the query fanned out across.
    pub shards: usize,
    /// Seconds spent encoding the query (embedding + sign code); `0.0`
    /// when `k == 0` or the corpus is empty and nothing is encoded.
    pub encode_seconds: f64,
    /// Seconds spent searching the shards.
    pub fanout_seconds: f64,
    /// Seconds spent merging per-shard hits through the shared top-k
    /// helper.
    pub merge_seconds: f64,
}
