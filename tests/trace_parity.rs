//! Per-query traces agree with the engine they observe.
//!
//! The tracing layer must be a pure observer: for any corpus and any
//! shard count, the engine's [`QueryTrace`] fans out across exactly the
//! configured shard count, its candidate totals reconcile with
//! [`QueryInfo`](traj_engine::QueryInfo), and — for the strategies
//! whose candidate sets are partition-invariant — its total equals the
//! count the scan oracle derives from the live rows: every live row for
//! `HammingBf` and for `EuclideanBf` on the default brute-force backend,
//! the radius-2 ball for `Table`. `Mih` over-fetches `k + tombstones`
//! *per shard* and `Hybrid` decides its radius-2 spill per shard, so
//! their work counts legitimately depend on the topology while the hit
//! lists do not.
//!
//! With tracing compiled in but no consumer installed, `query` output
//! must be byte-identical to `query_traced` and the traces inert.

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

use oracle::{embed, world, Oracle};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use traj_engine::{EngineConfig, QueryTrace, ShardConfig, ShardedEngine, Strategy};

/// Trace activation is process-global (`traj_obs::enabled()` counts
/// thread-local recorders too), so tests asserting active vs inert
/// traces serialize through this gate.
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Strategies whose candidate *sets* do not depend on how the corpus is
/// partitioned; only these have an oracle-derived total.
fn partition_invariant(strategy: Strategy) -> bool {
    matches!(strategy, Strategy::HammingBf | Strategy::EuclideanBf | Strategy::Table)
}

fn assert_clock_monotone(trace: &QueryTrace) {
    assert!(!trace.steps.is_empty(), "active trace must stamp steps");
    for (i, &(clock, label)) in trace.steps.iter().enumerate() {
        assert_eq!(clock, i as u64, "step clock must count from 0 ({label})");
    }
}

fn check_trace_parity(shards: usize, corpus_len: usize, k: usize, qi: usize) {
    let _gate = gate();
    let (dataset, model) = world();
    let corpus = dataset.database[..corpus_len].to_vec();
    let oracle = Oracle::build(&model, &corpus);
    let engine = ShardedEngine::build_from(
        &model,
        corpus,
        EngineConfig::default(),
        ShardConfig { shards, fan_out_threads: 0 },
    )
    .unwrap();
    let q = &dataset.query[qi % dataset.query.len()];
    let q_emb = embed(&model, q);

    let rec = Arc::new(traj_obs::InMemoryRecorder::default());
    traj_obs::with_local_recorder(rec, || {
        let mut ids = std::collections::HashSet::new();
        for strategy in Strategy::ALL {
            let (hits, info, trace) = engine.query_traced(q, k, strategy).unwrap();
            assert_eq!(
                hits,
                oracle.top_k(strategy, &q_emb, k),
                "{} hits diverged at shards={shards} k={k}",
                strategy.name()
            );
            assert!(trace.active, "recorder installed, traces must be live");
            assert!(ids.insert(trace.query_id), "query ids must be process-unique");
            assert_eq!(
                trace.shard_count(),
                shards,
                "{} fan-out must cover every configured shard",
                strategy.name()
            );
            // The trace's totals are the same numbers QueryInfo reports.
            assert_eq!(trace.candidates(), info.candidates, "{} trace", strategy.name());
            if partition_invariant(strategy) {
                assert_eq!(
                    trace.candidates(),
                    oracle.candidates(strategy, &q_emb),
                    "{} candidate total must be the oracle's count at shards={shards}",
                    strategy.name()
                );
            }
            assert_clock_monotone(&trace);
            // Every shard row carries exactly one taxonomy label on a
            // healthy engine, and pins a live publish seq.
            for row in &trace.shards {
                assert_eq!(row.steps.len(), 1, "{:?}", row.steps);
                assert!(!row.degraded && !row.fallback);
            }
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    #[test]
    fn trace_totals_match_the_oracle_on_identical_corpora(
        shards in 1usize..6,
        corpus_len in 24usize..90,
        k in 1usize..13,
        qi in 0usize..64,
    ) {
        check_trace_parity(shards, corpus_len, k, qi);
    }
}

#[test]
fn disabled_mode_output_is_byte_identical_and_traces_inert() {
    let _gate = gate();
    assert!(
        !traj_obs::enabled() && !traj_obs::flight::installed(),
        "no trace consumer may be installed during the disabled-mode check"
    );
    let (dataset, model) = world();
    for shards in [1usize, 4] {
        let engine = ShardedEngine::build_from(
            &model,
            dataset.database.clone(),
            EngineConfig::default(),
            ShardConfig { shards, fan_out_threads: 0 },
        )
        .unwrap();
        for q in dataset.query.iter().take(4) {
            for strategy in Strategy::ALL {
                let plain = engine.query(q, 9, strategy).unwrap();
                let (hits, _info, trace) = engine.query_traced(q, 9, strategy).unwrap();
                assert_eq!(plain.len(), hits.len());
                for (a, b) in plain.iter().zip(&hits) {
                    assert_eq!(a.id, b.id, "{} ids diverged", strategy.name());
                    assert_eq!(
                        a.distance.to_bits(),
                        b.distance.to_bits(),
                        "{} distances must be byte-identical",
                        strategy.name()
                    );
                }
                assert!(!trace.active, "trace must be inert with no consumer installed");
                assert_eq!(trace.query_id, 0);
                assert!(trace.steps.is_empty());
                assert_eq!(trace.shard_count(), 0);
                assert_eq!(trace.candidates(), 0);
            }
        }
    }
}

#[test]
fn degrade_drill_is_visible_in_the_trace_taxonomy() {
    let _gate = gate();
    let (dataset, model) = world();
    let mut sharded = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig { shards: 3, fan_out_threads: 0 },
    )
    .unwrap();
    let q = &dataset.query[0];
    let rec = Arc::new(traj_obs::InMemoryRecorder::default());
    traj_obs::with_local_recorder(rec, || {
        let (_, _, healthy) = sharded.query_traced(q, 5, Strategy::Mih).unwrap();
        assert!(healthy.shards.iter().all(|r| !r.degraded && r.steps == ["indexed"]));
        let (_, _, scan) = sharded.query_traced(q, 5, Strategy::HammingBf).unwrap();
        assert!(scan.shards.iter().all(|r| r.steps == ["designed_scan"]));

        sharded.force_degrade();
        // Mih lost its index: the scan that answers is a fallback.
        let (_, _, fb) = sharded.query_traced(q, 5, Strategy::Mih).unwrap();
        assert!(fb.shards.iter().all(|r| r.degraded && r.steps == ["fallback_scan"]));
        // HammingBf always scans: degraded, but never a fallback.
        let (_, _, deg) = sharded.query_traced(q, 5, Strategy::HammingBf).unwrap();
        assert!(deg.shards.iter().all(|r| r.degraded && r.steps == ["degraded_scan"]));

        assert!(sharded.recover());
        let (_, _, back) = sharded.query_traced(q, 5, Strategy::Mih).unwrap();
        assert!(back.shards.iter().all(|r| !r.degraded && r.steps == ["indexed"]));
    });
}
