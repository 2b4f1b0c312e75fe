//! Per-query tracing: the request-level observability layer on top of
//! `traj-obs`'s aggregate metrics.
//!
//! A [`QueryTrace`] is the query's one record — its
//! [`QueryInfo`] — plus, while a trace consumer is installed, a
//! process-unique query id and one [`ShardRow`] per shard (pinned
//! publish seq, candidate count, path taxonomy). The engine offers it
//! to the flight recorder (`traj_obs::flight`) as a tail exemplar.
//!
//! ## Disabled cost
//!
//! Tracing is active only while an obs recorder or a flight recorder is
//! installed ([`tracing_enabled`]): two relaxed atomic loads. An inert
//! trace takes no query id and collects no shard rows, so it allocates
//! nothing — `tests/embed_allocations.rs` pins the allocations of a
//! whole disabled query. Query *results* are identical either way;
//! tracing observes, it never steers.

use crate::engine::Strategy;
use crate::telemetry::QueryInfo;
use std::sync::atomic::{AtomicU64, Ordering};
use traj_obs::Field;

/// Process-wide query id allocator: ids are unique across every engine
/// and reader in the process, so flight dumps interleaving traces of
/// several engines stay unambiguous. Starts at 1 — id 0 marks an inert
/// trace. Relaxed is enough — uniqueness comes from `fetch_add`, no
/// other memory is published under it.
static QUERY_IDS: AtomicU64 = AtomicU64::new(1);

/// Process-wide engine instance id allocator: each engine's shard set
/// gets one, so offline validation can group per-shard publish-seq
/// monotonicity checks by instance instead of conflating seqs from
/// unrelated engines. Relaxed for the same reason as
/// `QUERY_IDS`.
static INSTANCE_IDS: AtomicU64 = AtomicU64::new(0);

/// Allocates a trace instance id for a newly built engine.
pub(crate) fn next_instance_id() -> u64 {
    INSTANCE_IDS.fetch_add(1, Ordering::Relaxed)
}

/// True when any trace consumer is installed: an obs recorder
/// (aggregates + JSONL) or a flight recorder (tail exemplars). Two
/// relaxed atomic loads — the disabled fast path of every query.
pub(crate) fn tracing_enabled() -> bool {
    traj_obs::enabled() || traj_obs::flight::installed()
}

/// One shard's contribution to a query: the generation the reader
/// pinned and what the search path did there.
#[derive(Debug, Clone)]
pub struct ShardRow {
    /// Shard index within the fan-out.
    pub shard: usize,
    /// The pinned state's publish sequence.
    pub publish_seq: u64,
    /// The pinned state's rebuild generation.
    pub generation: u64,
    /// Whether the pinned state was serving degraded (scan-only).
    pub degraded: bool,
    /// Rows whose distance this shard evaluated.
    pub candidates: usize,
    /// The shard's index could not answer and a full scan did.
    pub fallback: bool,
    /// A Hybrid radius-2 ball came up short and spilled into a scan.
    pub spill: bool,
    /// Why the shard's search took the path it did: `indexed`,
    /// `designed_scan`, `hybrid_spill`, `degraded_scan`,
    /// `fallback_scan` or `empty`.
    pub path: &'static str,
}

/// A per-query trace: everything the flight recorder retains for a
/// tail exemplar.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Process-unique query id; 0 when no trace consumer was installed
    /// (the trace is inert: `shards` stays empty).
    pub query_id: u64,
    /// The query's record.
    pub info: QueryInfo,
    /// One row per shard in fan-out order.
    pub shards: Vec<ShardRow>,
}

fn join<T: ToString>(vals: impl Iterator<Item = T>) -> String {
    vals.map(|v| v.to_string()).collect::<Vec<_>>().join(",")
}

/// Whole microseconds, truncated — so stages that sum to at most the
/// total in seconds still do in the flight line.
#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "a nonnegative clock reading; truncation is intended"
)]
fn micros(seconds: f64) -> u64 {
    (seconds * 1e6) as u64
}

impl QueryTrace {
    /// The trace of a query about to be answered over `shards` shards:
    /// a zeroed record, live (with a fresh query id) when a trace
    /// consumer is installed.
    pub(crate) fn begin(strategy: Strategy, shards: usize) -> QueryTrace {
        let query_id =
            if tracing_enabled() { QUERY_IDS.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let info = QueryInfo {
            strategy,
            degraded: false,
            linear_fallback: false,
            spill: false,
            candidates: 0,
            overfetch: 0,
            seconds: 0.0,
            shards,
            encode_seconds: 0.0,
            fanout_seconds: 0.0,
            merge_seconds: 0.0,
        };
        QueryTrace { query_id, info, shards: Vec::new() }
    }

    /// Whether a trace consumer was installed when the query began.
    pub fn active(&self) -> bool {
        self.query_id != 0
    }

    /// The structured flight-recorder fields for this trace. `engine`
    /// labels the serving topology (`"sharded"`),
    /// `instance` the engine's process-unique trace instance id —
    /// together with the shard count they key the offline per-shard
    /// publish-seq monotonicity check.
    pub fn flight_fields(&self, engine: &'static str, instance: u64) -> Vec<Field> {
        let q = &self.info;
        vec![
            ("query_id", self.query_id.into()),
            ("strategy", q.strategy.name().into()),
            ("engine", engine.into()),
            ("instance", instance.into()),
            ("shards", self.shards.len().into()),
            ("candidates", q.candidates.into()),
            ("fallback", q.linear_fallback.into()),
            ("degraded", q.degraded.into()),
            ("spill", q.spill.into()),
            ("encode_us", micros(q.encode_seconds).into()),
            ("fanout_us", micros(q.fanout_seconds).into()),
            ("merge_us", micros(q.merge_seconds).into()),
            ("total_us", micros(q.seconds).into()),
            ("shard_seqs", join(self.shards.iter().map(|r| r.publish_seq)).into()),
            ("shard_gens", join(self.shards.iter().map(|r| r.generation)).into()),
            ("shard_candidates", join(self.shards.iter().map(|r| r.candidates)).into()),
            ("shard_paths", join(self.shards.iter().map(|r| r.path)).into()),
        ]
    }

    /// Offers this trace to the installed flight recorder as a tail
    /// exemplar (no-op when the trace is inert or no flight recorder is
    /// installed; the field vector is only built when the latency
    /// qualifies for capture).
    pub(crate) fn offer_to_flight(&self, engine: &'static str, instance: u64) {
        if self.active() {
            traj_obs::flight::offer(self.info.seconds, || {
                ("flight.trace", self.flight_fields(engine, instance))
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_trace_is_inert_without_a_consumer_and_uniquely_numbered_with_one() {
        // No recorder, no flight recorder on this thread.
        let inert = QueryTrace::begin(Strategy::Mih, 3);
        assert!(!inert.active());
        assert_eq!((inert.query_id, inert.info.shards, inert.shards.len()), (0, 3, 0));

        let rec = Arc::new(traj_obs::InMemoryRecorder::default());
        traj_obs::with_local_recorder(rec, || {
            let (a, b) = (QueryTrace::begin(Strategy::Table, 1), QueryTrace::begin(Strategy::Table, 1));
            assert!(a.active() && b.active());
            assert_ne!(a.query_id, b.query_id);
        });
    }

    #[test]
    fn flight_fields_are_the_record_and_its_shard_rows() {
        let mut t = QueryTrace::begin(Strategy::Table, 2);
        t.query_id = 41;
        t.info = QueryInfo {
            candidates: 11,
            seconds: 0.000_5,
            encode_seconds: 0.000_300_9,
            fanout_seconds: 0.000_150_9,
            merge_seconds: 0.000_001_9,
            ..t.info
        };
        for (shard, path) in ["indexed", "designed_scan"].into_iter().enumerate() {
            t.shards.push(ShardRow {
                shard,
                publish_seq: 3 + shard as u64,
                generation: 2,
                degraded: false,
                candidates: 4 + 3 * shard,
                fallback: false,
                spill: false,
                path,
            });
        }
        let fields = t.flight_fields("sharded", 7);
        let get =
            |key: &str| fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string());
        for (key, want) in [
            ("query_id", "41"),
            ("shards", "2"),
            ("candidates", "11"),
            ("encode_us", "300"),
            ("fanout_us", "150"),
            ("merge_us", "1"),
            ("total_us", "500"),
            ("shard_seqs", "3,4"),
            ("shard_gens", "2,2"),
            ("shard_candidates", "4,7"),
            ("shard_paths", "indexed,designed_scan"),
            ("engine", "sharded"),
            ("instance", "7"),
        ] {
            assert_eq!(get(key).as_deref(), Some(want), "{key}");
        }
    }
}
