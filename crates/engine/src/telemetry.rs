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

use crate::engine::Strategy;
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

    /// Folds one answered query into the counters and histograms.
    pub(crate) fn fold(&mut self, q: &QueryInfo) {
        let s = &mut self.strategies[q.strategy.index()];
        s.queries += 1;
        s.latency.record(q.seconds);
        s.candidates.record(q.candidates as f64);
        s.linear_fallbacks += u64::from(q.linear_fallback);
        s.degraded_queries += u64::from(q.degraded);
        self.hybrid_spills += u64::from(q.spill);
        self.overfetch.record(q.overfetch as f64);
    }

    /// Renders a compact human-readable block, one row per strategy
    /// plus the lifecycle counters.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("== engine telemetry ==\n");
        for (i, s) in Strategy::ALL.iter().enumerate() {
            let t = &self.strategies[i];
            if t.queries == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<15} n={:<6} p50={:>9.1}us p99={:>9.1}us cand(p50)={:<7.0} fallbacks={} degraded={}",
                s.name(),
                t.queries,
                t.latency.p50() * 1e6,
                t.latency.p99() * 1e6,
                t.candidates.p50(),
                t.linear_fallbacks,
                t.degraded_queries,
            );
        }
        let _ = writeln!(
            out,
            "  inserts={} removes={} rebuilds={} compactions={} degraded_rebuilds={} hybrid_spills={}",
            self.inserts,
            self.removes,
            self.rebuilds,
            self.compactions,
            self.degraded_rebuilds,
            self.hybrid_spills,
        );
        if self.snapshot_saves > 0 {
            let _ = writeln!(
                out,
                "  snapshot_saves={} snapshot_bytes={}",
                self.snapshot_saves, self.snapshot_bytes
            );
        }
        if self.hot_swaps > 0 || self.recoveries > 0 {
            let _ = writeln!(out, "  hot_swaps={} recoveries={}", self.hot_swaps, self.recoveries);
        }
        out
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
