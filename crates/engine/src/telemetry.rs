//! Engine-owned telemetry: per-strategy query counters and lifecycle
//! counters, collected whether or not a `traj_obs` recorder is
//! installed — part of the engine's state, like
//! [`EngineStats`](crate::EngineStats). Distributions (latency,
//! candidates, over-fetch) are kept only by the recorder, as the
//! `engine.query.*` histograms each answered query is mirrored to.
//!
//! [`LiveTelemetry`] holds `AtomicU64`s shared by the writer and every
//! reader, bumped with `Relaxed` ordering, so counting takes no lock. A
//! snapshot taken during concurrent queries is exact per counter but is
//! not one cut across all counters. Each lifecycle event is counted by
//! one call, which also emits the event's obs counter.

use crate::engine::Strategy;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Query-path counters for one [`Strategy`].
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
}

/// Everything the engine counts about itself. Obtain a snapshot with
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
    /// Entries into degraded mode: every rebuild that failed and left
    /// its shard degraded, and every
    /// [`ShardedEngine::force_degrade`](crate::ShardedEngine::force_degrade).
    pub degraded_entries: u64,
    /// `Hybrid` queries whose radius-2 ball came up short and spilled
    /// into a full scan (designed behaviour, tracked separately from
    /// [`StrategyTelemetry::linear_fallbacks`]).
    pub hybrid_spills: u64,
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
}

/// Adds `n` to `count` and to the obs counter `name`.
fn bump(count: &AtomicU64, name: &str, n: u64) {
    count.fetch_add(n, Relaxed);
    traj_obs::counter(name, n);
}

/// The live form of [`StrategyTelemetry`].
#[derive(Default)]
struct LiveStrategy {
    queries: AtomicU64,
    linear_fallbacks: AtomicU64,
    degraded_queries: AtomicU64,
}

/// The engine's cumulative [`EngineTelemetry`], shared by the writer and
/// its readers; one field per counter of the snapshot.
#[derive(Default)]
pub(crate) struct LiveTelemetry {
    strategies: [LiveStrategy; 5],
    inserts: AtomicU64,
    removes: AtomicU64,
    rebuilds: AtomicU64,
    compactions: AtomicU64,
    degraded_entries: AtomicU64,
    hybrid_spills: AtomicU64,
    snapshot_saves: AtomicU64,
    snapshot_bytes: AtomicU64,
    hot_swaps: AtomicU64,
    recoveries: AtomicU64,
}

impl LiveTelemetry {
    /// Telemetry of a freshly built engine: construction counts as each
    /// of its `shards` first rebuild.
    pub(crate) fn built(shards: usize) -> LiveTelemetry {
        LiveTelemetry { rebuilds: AtomicU64::new(shards as u64), ..Default::default() }
    }

    /// A copy of the counters, each read once (see the module docs).
    pub(crate) fn snapshot(&self) -> EngineTelemetry {
        let get = |c: &AtomicU64| c.load(Relaxed);
        EngineTelemetry {
            strategies: self.strategies.each_ref().map(|s| StrategyTelemetry {
                queries: get(&s.queries),
                linear_fallbacks: get(&s.linear_fallbacks),
                degraded_queries: get(&s.degraded_queries),
            }),
            inserts: get(&self.inserts),
            removes: get(&self.removes),
            rebuilds: get(&self.rebuilds),
            compactions: get(&self.compactions),
            degraded_entries: get(&self.degraded_entries),
            hybrid_spills: get(&self.hybrid_spills),
            snapshot_saves: get(&self.snapshot_saves),
            snapshot_bytes: get(&self.snapshot_bytes),
            hot_swaps: get(&self.hot_swaps),
            recoveries: get(&self.recoveries),
        }
    }

    /// Counts one answered query, and its fallback, degraded serving
    /// and spill when it had them.
    pub(crate) fn query(&self, q: &QueryInfo) {
        let s = &self.strategies[q.strategy.index()];
        s.queries.fetch_add(1, Relaxed);
        if q.linear_fallback {
            bump(&s.linear_fallbacks, "engine.linear_fallbacks", 1);
        }
        if q.degraded {
            bump(&s.degraded_queries, "engine.degraded_queries", 1);
        }
        if q.spill {
            bump(&self.hybrid_spills, "engine.hybrid_spills", 1);
        }
    }

    /// Counts one inserted trajectory.
    pub(crate) fn insert(&self) {
        bump(&self.inserts, "engine.inserts", 1);
    }

    /// Counts one tombstoned trajectory.
    pub(crate) fn remove(&self) {
        bump(&self.removes, "engine.removes", 1);
    }

    /// Counts one shard rebuild, and whether it compacted and whether it
    /// left the shard degraded.
    pub(crate) fn rebuild(&self, compacted: bool, degraded: bool) {
        bump(&self.rebuilds, "engine.rebuilds", 1);
        if compacted {
            bump(&self.compactions, "engine.compactions", 1);
        }
        if degraded {
            self.degrade();
        }
    }

    /// Counts one entry into degraded mode.
    pub(crate) fn degrade(&self) {
        bump(&self.degraded_entries, "engine.degraded_entries", 1);
    }

    /// Counts one degraded → healthy transition.
    pub(crate) fn recovery(&self) {
        bump(&self.recoveries, "engine.recoveries", 1);
    }

    /// Counts one hot swap.
    pub(crate) fn hot_swap(&self) {
        bump(&self.hot_swaps, "engine.hot_swaps", 1);
    }

    /// Counts one snapshot written, of `bytes` bytes.
    pub(crate) fn snapshot_saved(&self, bytes: usize) {
        bump(&self.snapshot_saves, "engine.snapshot.saves", 1);
        bump(&self.snapshot_bytes, "engine.snapshot.bytes_written", bytes as u64);
    }
}

/// The one record of an answered query: the fan-out fills it, the
/// telemetry counts it, the obs recorder takes its distributions,
/// [`QueryTrace`](crate::QueryTrace) seals it and the flight recorder
/// dumps it. Returned by
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
