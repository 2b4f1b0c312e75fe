//! Per-query tracing: the request-level observability layer on top of
//! `traj-obs`'s aggregate metrics.
//!
//! A [`TraceCtx`] travels with one query from the public entry point
//! through the fan-out, the per-shard search core, and the top-k merge,
//! stamping each phase on a monotone step clock and collecting one
//! [`ShardTraceRow`] per shard (pinned publish seq, candidate count,
//! fallback taxonomy). [`TraceCtx::finish`] seals it into a
//! [`QueryTrace`], which can be offered to the flight recorder
//! (`traj_obs::flight`) as a tail exemplar.
//!
//! ## Disabled cost
//!
//! Tracing is active only while an obs recorder or a flight recorder is
//! installed ([`tracing_enabled`]): two relaxed atomic loads. A
//! disabled [`TraceCtx`] allocates nothing (empty `Vec`s), takes no
//! query id, and every `step` is a branch on a local bool —
//! `tests/embed_allocations.rs` counts the whole disabled path at zero
//! allocations. Query *results* are identical either way; tracing
//! observes, it never steers.

use crate::engine::Strategy;
use std::sync::atomic::{AtomicU64, Ordering};
use traj_obs::Field;

/// Process-wide query id allocator: ids are unique across every engine
/// and reader in the process, so flight dumps interleaving traces of
/// several engines stay unambiguous. Relaxed is enough — uniqueness
/// comes from `fetch_add`, no other memory is published under it.
static QUERY_IDS: AtomicU64 = AtomicU64::new(0);

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

/// The per-query trace context: a query id plus a monotone step clock,
/// created at the public entry point and threaded through fan-out,
/// per-shard search, and merge.
pub struct TraceCtx {
    active: bool,
    query_id: u64,
    clock: u64,
    steps: Vec<(u64, &'static str)>,
    shards: Vec<ShardTraceRow>,
}

impl TraceCtx {
    /// A context for one query: live (with a fresh query id) when a
    /// trace consumer is installed, inert otherwise.
    pub fn new() -> TraceCtx {
        if !tracing_enabled() {
            return TraceCtx::disabled();
        }
        TraceCtx {
            active: true,
            query_id: QUERY_IDS.fetch_add(1, Ordering::Relaxed),
            clock: 0,
            steps: Vec::new(),
            shards: Vec::new(),
        }
    }

    /// An inert context: every operation is a branch on a bool, nothing
    /// allocates, and [`TraceCtx::finish`] yields an empty trace.
    pub fn disabled() -> TraceCtx {
        TraceCtx { active: false, query_id: 0, clock: 0, steps: Vec::new(), shards: Vec::new() }
    }

    /// Whether this context is recording.
    pub fn active(&self) -> bool {
        self.active
    }

    /// The process-unique query id (0 when inert).
    pub fn query_id(&self) -> u64 {
        self.query_id
    }

    /// Stamps a phase label at the current step clock and advances the
    /// clock. No-op when inert.
    pub fn step(&mut self, label: &'static str) {
        if self.active {
            self.steps.push((self.clock, label));
            self.clock += 1;
        }
    }

    /// A per-shard sub-trace sharing this context's activity flag, for
    /// handing into the shard search core (possibly on another thread).
    pub fn shard_trace(&self) -> ShardTrace {
        ShardTrace::new(self.active)
    }

    /// Appends one shard's outcome row. No-op when inert.
    pub fn push_shard(&mut self, row: ShardTraceRow) {
        if self.active {
            self.shards.push(row);
        }
    }

    /// Seals the context into a [`QueryTrace`].
    pub fn finish(self, strategy: Strategy, seconds: f64) -> QueryTrace {
        QueryTrace {
            active: self.active,
            query_id: self.query_id,
            strategy,
            seconds,
            steps: self.steps,
            shards: self.shards,
        }
    }
}

impl Default for TraceCtx {
    fn default() -> Self {
        TraceCtx::new()
    }
}

/// A per-shard sub-trace: the taxonomy steps one shard's search took.
/// Cheap enough to hand into scoped fan-out threads by `&mut`.
pub struct ShardTrace {
    active: bool,
    steps: Vec<&'static str>,
}

impl ShardTrace {
    /// A sub-trace; records only when `active`.
    pub fn new(active: bool) -> ShardTrace {
        ShardTrace { active, steps: Vec::new() }
    }

    /// Stamps one taxonomy label. No-op when inactive.
    pub fn step(&mut self, label: &'static str) {
        if self.active {
            self.steps.push(label);
        }
    }

    /// Consumes the sub-trace into its label sequence.
    pub fn into_steps(self) -> Vec<&'static str> {
        self.steps
    }
}

/// One shard's contribution to a query: the generation the reader
/// pinned, what the search path did, and the taxonomy steps it took.
#[derive(Debug, Clone)]
pub struct ShardTraceRow {
    /// Shard index within the fan-out.
    pub shard: usize,
    /// The pinned state's publish sequence.
    pub publish_seq: u64,
    /// The pinned state's rebuild generation.
    pub generation: u64,
    /// Whether the pinned state was serving degraded (scan-only).
    pub degraded: bool,
    /// Candidates this shard considered before its local top-k.
    pub candidates: usize,
    /// The shard's index could not answer and a full scan did.
    pub fallback: bool,
    /// A Hybrid radius-2 ball came up short and spilled into a scan.
    pub spill: bool,
    /// Taxonomy labels from the shard search core, in order.
    pub steps: Vec<&'static str>,
}

/// A sealed per-query trace: everything the flight recorder retains for
/// a tail exemplar.
#[derive(Debug, Clone)]
pub struct QueryTrace {
    /// Whether the trace actually recorded (false = tracing disabled).
    pub active: bool,
    /// Process-unique query id.
    pub query_id: u64,
    /// The strategy that served the query.
    pub strategy: Strategy,
    /// End-to-end wall-clock seconds.
    pub seconds: f64,
    /// `(clock, label)` phase steps, strictly monotone in clock.
    pub steps: Vec<(u64, &'static str)>,
    /// One row per shard in fan-out order.
    pub shards: Vec<ShardTraceRow>,
}

fn join_u64(vals: impl Iterator<Item = u64>) -> String {
    let mut out = String::new();
    for (i, v) in vals.enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

impl QueryTrace {
    /// Number of shards the query fanned out across.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total candidates considered across all shards.
    pub fn candidates(&self) -> usize {
        self.shards.iter().map(|r| r.candidates).sum()
    }

    /// The structured flight-recorder fields for this trace. `engine`
    /// labels the serving topology (`"sharded"`),
    /// `instance` the engine's process-unique trace instance id —
    /// together with the shard count they key the offline per-shard
    /// publish-seq monotonicity check.
    pub fn flight_fields(&self, engine: &'static str, instance: u64) -> Vec<Field> {
        let steps = {
            let mut out = String::new();
            for (i, (c, l)) in self.steps.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&c.to_string());
                out.push(':');
                out.push_str(l);
            }
            out
        };
        let shard_steps = self
            .shards
            .iter()
            .map(|r| r.steps.join("+"))
            .collect::<Vec<_>>()
            .join(";");
        vec![
            ("query_id", self.query_id.into()),
            ("strategy", self.strategy.name().into()),
            ("engine", engine.into()),
            ("instance", instance.into()),
            ("shards", self.shards.len().into()),
            ("candidates", self.candidates().into()),
            ("fallback", self.shards.iter().any(|r| r.fallback).into()),
            ("degraded", self.shards.iter().any(|r| r.degraded).into()),
            ("spill", self.shards.iter().any(|r| r.spill).into()),
            ("steps", steps.into()),
            ("shard_seqs", join_u64(self.shards.iter().map(|r| r.publish_seq)).into()),
            ("shard_gens", join_u64(self.shards.iter().map(|r| r.generation)).into()),
            (
                "shard_candidates",
                join_u64(self.shards.iter().map(|r| r.candidates as u64)).into(), // lint: allow(lossy-cast) — candidate counts fit u64
            ),
            ("shard_steps", shard_steps.into()),
        ]
    }

    /// Offers this trace to the installed flight recorder as a tail
    /// exemplar (no-op when tracing was disabled or no flight recorder
    /// is installed; the field vector is only built when the latency
    /// qualifies for capture).
    pub fn offer_to_flight(&self, engine: &'static str, instance: u64) {
        if !self.active {
            return;
        }
        traj_obs::flight::offer(self.seconds, || {
            ("flight.trace", self.flight_fields(engine, instance))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_context_records_nothing() {
        // No recorder, no flight recorder on this thread.
        let mut ctx = TraceCtx::disabled();
        ctx.step("embed");
        ctx.step("fanout");
        let mut st = ctx.shard_trace();
        st.step("indexed");
        assert!(st.into_steps().is_empty());
        ctx.push_shard(ShardTraceRow {
            shard: 0,
            publish_seq: 1,
            generation: 1,
            degraded: false,
            candidates: 5,
            fallback: false,
            spill: false,
            steps: Vec::new(),
        });
        let qt = ctx.finish(Strategy::Mih, 0.001);
        assert!(!qt.active);
        assert!(qt.steps.is_empty());
        assert_eq!(qt.shard_count(), 0);
        assert_eq!(qt.candidates(), 0);
    }

    #[test]
    fn active_context_stamps_a_monotone_clock_and_unique_ids() {
        let rec = Arc::new(traj_obs::InMemoryRecorder::default());
        traj_obs::with_local_recorder(rec, || {
            let mut a = TraceCtx::new();
            let mut b = TraceCtx::new();
            assert!(a.active() && b.active());
            assert_ne!(a.query_id(), b.query_id());
            a.step("embed");
            a.step("fanout");
            a.step("merge");
            let mut st = a.shard_trace();
            st.step("indexed");
            a.push_shard(ShardTraceRow {
                shard: 0,
                publish_seq: 3,
                generation: 2,
                degraded: false,
                candidates: 11,
                fallback: false,
                spill: false,
                steps: st.into_steps(),
            });
            b.step("empty");
            let qa = a.finish(Strategy::Table, 0.5);
            let clocks: Vec<u64> = qa.steps.iter().map(|&(c, _)| c).collect();
            assert_eq!(clocks, vec![0, 1, 2]);
            assert_eq!(qa.shard_count(), 1);
            assert_eq!(qa.candidates(), 11);
            let fields = qa.flight_fields("sharded", 7);
            let get = |key: &str| {
                fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v.to_string())
            };
            assert_eq!(get("steps").as_deref(), Some("0:embed,1:fanout,2:merge"));
            assert_eq!(get("shard_seqs").as_deref(), Some("3"));
            assert_eq!(get("shard_gens").as_deref(), Some("2"));
            assert_eq!(get("shard_candidates").as_deref(), Some("11"));
            assert_eq!(get("shard_steps").as_deref(), Some("indexed"));
            assert_eq!(get("engine").as_deref(), Some("sharded"));
            assert_eq!(get("instance").as_deref(), Some("7"));
        });
    }
}
