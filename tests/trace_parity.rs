//! Per-query traces agree with the engine they observe.
//!
//! The tracing layer must be a pure observer: for any corpus and any
//! shard count, the engine's [`QueryTrace`](traj_engine::QueryTrace)
//! fans out across exactly the configured shard count, its shard rows
//! reconcile with its [`QueryInfo`](traj_engine::QueryInfo) record
//! (candidates, spill, stage clocks within the total), and — for the
//! strategies whose candidate sets are partition-invariant — its total
//! equals the count the scan oracle derives from the live rows: every
//! live row for `HammingBf`, the radius-2 ball for `Table`. `EuclideanBf`
//! prunes a VP-tree per shard, `Mih` over-fetches `k + tombstones` *per
//! shard* and `Hybrid` decides its radius-2 spill per shard, so their
//! work counts legitimately depend on the topology while the hit lists
//! do not.
//!
//! With tracing compiled in but no consumer installed, `query` output
//! must be byte-identical to `query_traced` and the traces inert.

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

use oracle::{embed, world, Oracle};
use proptest::prelude::*;
use std::sync::{Arc, Mutex, MutexGuard};
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};

/// Trace activation is process-global (`traj_obs::enabled()` counts
/// thread-local recorders too), so tests asserting active vs inert
/// traces serialize through this gate.
#[expect(clippy::disallowed_methods, reason = "a poisoned gate still serializes the rest")]
fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|p| p.into_inner())
}

/// Strategies whose candidate *sets* do not depend on how the corpus is
/// partitioned; only these have an oracle-derived total.
fn partition_invariant(strategy: Strategy) -> bool {
    matches!(strategy, Strategy::HammingBf | Strategy::Table)
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
            let (hits, trace) = engine.query_traced(q, k, strategy).unwrap();
            let (info, name) = (trace.info, strategy.name());
            assert_eq!(
                hits,
                oracle.top_k(strategy, &q_emb, k),
                "{} hits diverged at shards={shards} k={k}",
                strategy.name()
            );
            assert!(trace.active(), "recorder installed, traces must be live");
            assert!(ids.insert(trace.query_id), "query ids must be process-unique");
            assert_eq!(info.strategy, strategy);
            assert_eq!(
                (trace.shards.len(), info.shards),
                (shards, shards),
                "{name} fan-out must cover every configured shard"
            );
            // The record is the sum of its shard rows.
            let row_candidates: usize = trace.shards.iter().map(|r| r.candidates).sum();
            assert_eq!(row_candidates, info.candidates, "{name} trace");
            if partition_invariant(strategy) {
                assert_eq!(
                    info.candidates,
                    oracle.candidates(strategy, &q_emb),
                    "{name} candidate total must be the oracle's count at shards={shards}"
                );
            }
            let spilled = trace.shards.iter().any(|r| r.path == "hybrid_spill");
            assert_eq!(info.spill, spilled, "{name} spill vs the shard paths");
            assert!(!info.spill || strategy == Strategy::Hybrid, "{name} cannot spill");
            // The stage clocks run one after another inside the total.
            let stages = info.encode_seconds + info.fanout_seconds + info.merge_seconds;
            assert!(info.encode_seconds > 0.0 && info.fanout_seconds > 0.0, "{info:?}");
            assert!(stages <= info.seconds, "{name} stages {stages} over {}", info.seconds);
            // A healthy engine: no shard is degraded or falls back, and
            // each names the path its strategy is designed to take.
            assert!(!info.degraded && !info.linear_fallback);
            for row in &trace.shards {
                assert!(!row.degraded && !row.fallback && row.spill == (row.path == "hybrid_spill"));
                let designed: &[&str] = match strategy {
                    Strategy::HammingBf => &["designed_scan"],
                    Strategy::Hybrid => &["indexed", "hybrid_spill"],
                    Strategy::EuclideanBf | Strategy::Table | Strategy::Mih => &["indexed"],
                };
                assert!(designed.contains(&row.path), "{name}: {row:?}");
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
                let (hits, trace) = engine.query_traced(q, 9, strategy).unwrap();
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
                assert!(!trace.active(), "trace must be inert with no consumer installed");
                assert_eq!(trace.query_id, 0);
                assert!(trace.shards.is_empty());
                // The record is filled either way.
                assert_eq!((trace.info.strategy, trace.info.shards), (strategy, shards));
                assert!(trace.info.candidates > 0 && trace.info.seconds > 0.0);
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
        // Every shard takes `path`, in `degraded` mode or not, and the
        // record says whether the answer was a fallback.
        let expect = |engine: &ShardedEngine, strategy, path: &str, degraded, fallback| {
            let (_, trace) = engine.query_traced(q, 5, strategy).unwrap();
            let paths: Vec<&str> = trace.shards.iter().map(|r| r.path).collect();
            assert_eq!(paths, [path; 3], "{}", strategy.name());
            assert!(trace.shards.iter().all(|r| r.degraded == degraded && r.fallback == fallback));
            assert_eq!((trace.info.degraded, trace.info.linear_fallback), (degraded, fallback));
        };
        expect(&sharded, Strategy::Mih, "indexed", false, false);
        expect(&sharded, Strategy::HammingBf, "designed_scan", false, false);

        sharded.force_degrade();
        // Mih lost its index: the scan that answers is a fallback.
        expect(&sharded, Strategy::Mih, "fallback_scan", true, true);
        // HammingBf always scans: degraded, but never a fallback.
        expect(&sharded, Strategy::HammingBf, "degraded_scan", true, false);

        assert!(sharded.recover());
        expect(&sharded, Strategy::Mih, "indexed", false, false);
    });
}

/// `EuclideanBf` is served by each shard's VP-tree: healthy, every shard
/// names the path `indexed` and nothing falls back. Degraded, the scan
/// that answers is a counted fallback. The oracle's answer holds in both.
#[test]
fn euclidean_bf_is_indexed_when_healthy_and_a_counted_fallback_when_degraded() {
    let _gate = gate();
    let (dataset, model) = world();
    let oracle = Oracle::build(&model, &dataset.database);
    let mut engine = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig { shards: 2, fan_out_threads: 0 },
    )
    .unwrap();
    let q = &dataset.query[1];
    let want = oracle.top_k(Strategy::EuclideanBf, &embed(&model, q), 10);
    let rec = Arc::new(traj_obs::InMemoryRecorder::default());
    traj_obs::with_local_recorder(rec, || {
        let (hits, trace) = engine.query_traced(q, 10, Strategy::EuclideanBf).unwrap();
        assert_eq!(hits, want);
        assert!(trace.shards.iter().all(|r| r.path == "indexed" && !r.fallback));
        assert!(!trace.info.degraded && !trace.info.linear_fallback);
        assert!(trace.info.candidates < oracle.len(), "the trees evaluate fewer rows than a scan");

        engine.force_degrade();
        let (hits, trace) = engine.query_traced(q, 10, Strategy::EuclideanBf).unwrap();
        assert_eq!(hits, want);
        assert!(trace.shards.iter().all(|r| r.path == "fallback_scan" && r.fallback));
        assert!(trace.info.degraded && trace.info.linear_fallback);
        assert_eq!(trace.info.candidates, oracle.len(), "a degraded shard scans every row");
    });
    assert_eq!(engine.telemetry().strategy(Strategy::EuclideanBf).linear_fallbacks, 1);
}
