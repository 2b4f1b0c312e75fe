//! The engine's shared vocabulary: the five search strategies of Section
//! V-E, the construction and maintenance knobs, the hit and stats types
//! every entry point speaks.
//!
//! The engine itself is [`ShardedEngine`](crate::ShardedEngine); its
//! per-shard state and search core live in [`crate::shard`].

use crate::error::EngineError;

/// A search strategy of Section V-E.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Exact top-k in the Euclidean embedding space: the paper's
    /// `Euclidean-BF` answer, ids and distances equal to a full scan's,
    /// found by each shard's VP-tree. A degraded shard scans, and that
    /// scan counts as a fallback.
    EuclideanBf,
    /// Brute-force scan in Hamming space (`Hamming-BF`).
    HammingBf,
    /// Radius-2 hash-table lookup (`Hamming-Table`). Honest about empty
    /// balls: may return fewer than `k` hits.
    Table,
    /// Multi-index hashing: exact Hamming k-NN via substring pigeonhole.
    Mih,
    /// `Hamming-Hybrid`: table lookup first, full scan only when the
    /// radius-2 ball holds fewer than `k`.
    Hybrid,
}

impl Strategy {
    /// All strategies, for exhaustive tests and benchmarks.
    pub const ALL: [Strategy; 5] =
        [Strategy::EuclideanBf, Strategy::HammingBf, Strategy::Table, Strategy::Mih, Strategy::Hybrid];

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            Strategy::EuclideanBf => "Euclidean-BF",
            Strategy::HammingBf => "Hamming-BF",
            Strategy::Table => "Hamming-Table",
            Strategy::Mih => "Hamming-MIH",
            Strategy::Hybrid => "Hamming-Hybrid",
        }
    }

    /// Position in [`Strategy::ALL`] (indexes the telemetry arrays).
    pub fn index(&self) -> usize {
        match self {
            Strategy::EuclideanBf => 0,
            Strategy::HammingBf => 1,
            Strategy::Table => 2,
            Strategy::Mih => 3,
            Strategy::Hybrid => 4,
        }
    }

    /// The obs histogram this strategy's query latencies land in.
    pub fn metric_name(&self) -> &'static str {
        match self {
            Strategy::EuclideanBf => "engine.query.euclidean_bf",
            Strategy::HammingBf => "engine.query.hamming_bf",
            Strategy::Table => "engine.query.table",
            Strategy::Mih => "engine.query.mih",
            Strategy::Hybrid => "engine.query.hybrid",
        }
    }
}

/// Engine construction and maintenance knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Substring tables for the MIH index.
    pub mih_tables: usize,
    /// Worker threads for bulk encoding at build time.
    pub encode_threads: usize,
    /// Minimum delta/tombstone count before an automatic rebuild can
    /// trigger — absorbs churn on small corpora. `usize::MAX`
    /// effectively disables automatic rebuilds.
    pub rebuild_slack: usize,
    /// Rebuild when un-indexed inserts exceed this fraction of the
    /// indexed region (and `rebuild_slack`).
    pub max_delta_fraction: f64,
    /// Rebuild when tombstones exceed this fraction of all slots (and
    /// `rebuild_slack`).
    pub max_dead_fraction: f64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mih_tables: 4,
            encode_threads: 1,
            rebuild_slack: 64,
            max_delta_fraction: 0.25,
            max_dead_fraction: 0.25,
        }
    }
}

impl EngineConfig {
    pub(crate) fn validate(&self) -> Result<(), EngineError> {
        if self.mih_tables == 0 {
            return Err(EngineError::InvalidConfig("mih_tables must be > 0".into()));
        }
        for (name, v) in [
            ("max_delta_fraction", self.max_delta_fraction),
            ("max_dead_fraction", self.max_dead_fraction),
        ] {
            if !v.is_finite() || v <= 0.0 {
                return Err(EngineError::InvalidConfig(format!(
                    "{name} must be finite and > 0, got {v}"
                )));
            }
        }
        Ok(())
    }
}

/// A search result: the stable id of a trajectory plus its distance to
/// the query (Euclidean or Hamming, by strategy).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Hit {
    /// Stable trajectory id (assigned at insert, survives compaction).
    pub id: u64,
    /// Distance to the query.
    pub distance: f64,
}

/// Observability counters for the engine's lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// Live (non-tombstoned) trajectories.
    pub live: usize,
    /// Slots covered by the current generation's indexes.
    pub indexed: usize,
    /// Slots inserted after the last rebuild (linearly scanned).
    pub delta: usize,
    /// Tombstoned slots awaiting compaction.
    pub dead: usize,
    /// Engine-level build/hot-swap counter (per-shard rebuild
    /// generations are visible through `ShardedEngine::pin`).
    pub generation: u64,
    /// True when any shard serves by linear scans only (its index build
    /// failed, or `force_degrade` dropped it).
    pub degraded: bool,
}
