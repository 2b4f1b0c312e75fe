//! The engine against the scan oracle, at every shard count.
//!
//! The engine's whole correctness story is one claim: for any corpus,
//! any shard count, any interleaving of lifecycle operations, and all
//! five Section V-E strategies, [`ShardedEngine`] returns exactly what
//! the contract in `tests/common/oracle.rs` says — a `Vec` of live rows
//! and an exact scan under the `(distance, id)` order. The oracle shares
//! no code with the search path, so this is a stronger check than
//! comparing two engines that answer through the same core. This suite
//! pins the claim down:
//!
//! * fresh builds across shard counts 1..8, every strategy, several k;
//! * a stateful model test: random op streams (insert / remove /
//!   compact / force_degrade / recover / snapshot round-trip into a
//!   different shard count / `refreshed` + `hot_swap` under a different
//!   model) applied to the engine and mirrored into the oracle, with a
//!   tiny rebuild threshold so per-shard compactions fire mid-stream,
//!   checked after every op through the writer and a [`ShardReader`],
//!   and at the end through [`ShardedEngine::query_many`] too;
//! * [`ShardedEngine::query_many`] == per-query [`ShardedEngine::query`],
//!   in answers and in what it charges to telemetry;
//! * [`ShardReader`] (the replica-model reader path) == the writer;
//! * threaded fan-out == sequential fan-out;
//! * snapshots written at one shard count load at another.
//!
//! [`ShardReader`]: traj_engine::ShardReader

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

use oracle::{assert_engine_matches, embed, other_model, replica, world, Oracle};
use proptest::prelude::*;
use std::time::Instant;
use traj_data::Trajectory;
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};

fn scfg(shards: usize) -> ShardConfig {
    ShardConfig { shards, fan_out_threads: 0 }
}

#[test]
fn fresh_engine_matches_the_oracle_at_every_shard_count_and_strategy() {
    let (dataset, model) = world();
    let oracle = Oracle::build(&model, &dataset.database);
    for shards in 1..8 {
        let engine = ShardedEngine::build_from(
            &model,
            dataset.database.clone(),
            EngineConfig::default(),
            scfg(shards),
        )
        .unwrap();
        assert_engine_matches(&engine, &oracle, &model, &dataset.query, &[1, 5, 10, 37], "fresh");
    }
}

#[test]
fn threaded_fan_out_matches_sequential() {
    let (dataset, model) = world();
    let seq = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig { shards: 5, fan_out_threads: 0 },
    )
    .unwrap();
    let par = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig { shards: 5, fan_out_threads: 3 },
    )
    .unwrap();
    for q in &dataset.query {
        for strategy in Strategy::ALL {
            assert_eq!(
                par.query(q, 12, strategy).unwrap(),
                seq.query(q, 12, strategy).unwrap(),
                "{} diverged between threaded and sequential fan-out",
                strategy.name()
            );
        }
    }
}

#[test]
fn query_many_matches_per_query_exactly() {
    let (dataset, model) = world();
    let engine = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        scfg(4),
    )
    .unwrap();
    for k in [1usize, 10] {
        for strategy in Strategy::ALL {
            let batched = engine.query_many(&dataset.query, k, strategy).unwrap();
            assert_eq!(batched.len(), dataset.query.len());
            for (q, got) in dataset.query.iter().zip(&batched) {
                let (single, info) = engine.query_with_info(q, k, strategy).unwrap();
                assert_eq!(*got, single, "{} batched answer diverged at k={k}", strategy.name());
                // The stage clock: encoding is timed, and the stages
                // never add up to more than the query they are part of.
                assert!(info.encode_seconds > 0.0);
                assert!(info.encode_seconds + info.fanout_seconds <= info.seconds, "{info:?}");
            }
        }
    }
    // Degenerate batches answer with the right shape, never panic.
    let none: Vec<Trajectory> = Vec::new();
    assert!(engine.query_many(&none, 10, Strategy::Mih).unwrap().is_empty());
    let zero_k = engine.query_many(&dataset.query, 0, Strategy::Mih).unwrap();
    assert_eq!(zero_k.len(), dataset.query.len());
    assert!(zero_k.iter().all(|h| h.is_empty()));
    let (_, info) = engine.query_with_info(&dataset.query[0], 0, Strategy::Mih).unwrap();
    assert_eq!(info.encode_seconds, 0.0, "k == 0 encodes nothing");

    // Self-measurement: a batch counts one query per member, and each is
    // charged its share of the batched encode, so the per-strategy
    // latency histogram of the obs mirror means encode + fan-out for
    // batched and single queries alike. The batch's charged seconds
    // therefore cover most of the call's wall-clock (encoding
    // dominates) and never exceed it.
    let before = engine.telemetry();
    let rec = std::sync::Arc::new(traj_obs::InMemoryRecorder::default());
    let wall = traj_obs::with_local_recorder(rec.clone(), || {
        let t0 = Instant::now();
        engine.query_many(&dataset.query, 10, Strategy::Hybrid).unwrap();
        t0.elapsed().as_secs_f64()
    });
    let after = engine.telemetry();
    let (before, after) = (before.strategy(Strategy::Hybrid), after.strategy(Strategy::Hybrid));
    assert_eq!(after.queries - before.queries, dataset.query.len() as u64);
    let agg = rec.aggregates();
    let latency = agg.histogram("engine.query.hybrid").unwrap();
    assert_eq!(latency.count(), dataset.query.len() as u64);
    let charged = latency.sum();
    assert!(
        0.5 * wall <= charged && charged <= wall,
        "batch charged {charged:.6} s of a {wall:.6} s query_many call"
    );
}

#[test]
fn reader_replica_answers_like_the_writer() {
    let (dataset, model) = world();
    let mut engine = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        scfg(3),
    )
    .unwrap();
    let mut reader = engine.reader().into_reader();
    for q in dataset.query.iter().take(4) {
        for strategy in Strategy::ALL {
            assert_eq!(
                reader.query(q, 10, strategy).unwrap(),
                engine.query(q, 10, strategy).unwrap(),
                "{} reader diverged from writer",
                strategy.name()
            );
        }
    }
    // A hot swap re-encodes the corpus under a new model and bumps the
    // blueprint; the reader must refresh its replica and keep matching
    // the writer.
    let replacement = engine.refreshed(other_model(&dataset)).unwrap();
    let stale = engine.query(&dataset.query[0], 10, Strategy::EuclideanBf).unwrap();
    engine.hot_swap(replacement);
    assert_ne!(engine.query(&dataset.query[0], 10, Strategy::EuclideanBf).unwrap(), stale);
    for q in dataset.query.iter().take(4) {
        assert_eq!(
            reader.query(q, 10, Strategy::Hybrid).unwrap(),
            engine.query(q, 10, Strategy::Hybrid).unwrap(),
        );
    }
}

#[test]
fn snapshots_written_at_one_shard_count_load_at_another() {
    let (dataset, model) = world();
    let mut oracle = Oracle::build(&model, &dataset.database);
    let mut three = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        scfg(3),
    )
    .unwrap();
    // Dirty the state so the snapshot covers delta + tombstones too.
    let novel = dataset.query[0].clone();
    assert_eq!(three.insert(novel.clone()), oracle.insert(&model, novel));
    for id in [5u64, 41] {
        three.remove(id).unwrap();
        assert!(oracle.remove(id));
    }
    // 3-shard bytes → 6-shard engine → 1-shard engine → 3-shard engine:
    // the layout is not serialized, so every hop holds the same rows and
    // gives the same answers.
    let reload = |from: &ShardedEngine, shards: usize| {
        ShardedEngine::from_snapshot_bytes(&from.snapshot_bytes().unwrap(), scfg(shards)).unwrap()
    };
    let six = reload(&three, 6);
    let one = reload(&six, 1);
    let back = reload(&one, 3);
    assert_eq!(back.snapshot_bytes().unwrap(), three.snapshot_bytes().unwrap());
    for (engine, what) in [(&three, "writer"), (&six, "3→6"), (&one, "6→1"), (&back, "1→3")] {
        assert_engine_matches(engine, &oracle, &model, &dataset.query, &[12], what);
    }
}

/// The largest op kind [`run_model_test`] understands, plus one.
const OP_KINDS: usize = 13;

/// A shard count in 1..=8 that differs from `from`.
fn other_count(from: usize, pick: usize) -> usize {
    (from + pick % 7) % 8 + 1
}

/// Applies one `(kind, pick)` op stream to a `ShardedEngine` and mirrors
/// it into the oracle, checking the engine (writer and reader) against
/// the contract after every op and exhaustively at the end.
fn run_model_test(shards: usize, ops: &[(usize, usize)]) {
    let (dataset, model_a) = world();
    let model_b = other_model(&dataset);
    let models = [&model_a, &model_b];
    let mut current = 0usize;
    // Tiny slack so the op stream crosses per-shard rebuild thresholds.
    let cfg = EngineConfig { rebuild_slack: 4, ..EngineConfig::default() };
    let initial = &dataset.database[..12];
    let mut engine =
        ShardedEngine::build_from(models[current], initial.to_vec(), cfg, scfg(shards)).unwrap();
    let mut reader = engine.reader().into_reader();
    let mut oracle = Oracle::build(models[current], initial);
    let mut pool = dataset.database[12..].iter().cloned().cycle();
    let queries: Vec<Trajectory> = dataset.query.iter().take(3).cloned().collect();

    for (step, &(kind, pick)) in ops.iter().enumerate() {
        match kind {
            0..=4 => {
                let t = pool.next().unwrap();
                assert_eq!(engine.insert(t.clone()), oracle.insert(models[current], t));
            }
            5..=7 => {
                let ids = oracle.ids();
                if !ids.is_empty() {
                    let id = ids[pick % ids.len()];
                    engine.remove(id).unwrap();
                    assert!(oracle.remove(id));
                }
            }
            8 => engine.compact(),
            9 => engine.force_degrade(),
            10 => assert!(engine.recover()),
            11 => {
                let to = other_count(engine.shard_config().shards, pick);
                engine =
                    ShardedEngine::from_snapshot_bytes(&engine.snapshot_bytes().unwrap(), scfg(to))
                        .unwrap();
                reader = engine.reader().into_reader();
            }
            12 => {
                current = 1 - current;
                let mut replacement = engine.refreshed(replica(models[current])).unwrap();
                if pick % 2 == 1 {
                    // Validate the replacement through the snapshot
                    // container, into a different shard count: the swap
                    // must redistribute it under this engine's mapping.
                    let to = other_count(engine.shard_config().shards, pick);
                    replacement = ShardedEngine::from_snapshot_bytes(
                        &replacement.snapshot_bytes().unwrap(),
                        scfg(to),
                    )
                    .unwrap();
                }
                let count = engine.shard_config().shards;
                engine.hot_swap(replacement);
                assert_eq!(engine.shard_config().shards, count);
                oracle.reencode(models[current]);
            }
            _ => unreachable!("op kinds are drawn from 0..{OP_KINDS}"),
        }
        engine.pin().check_consistent().unwrap();
        let what = format!("after op {step} {:?}", (kind, pick));
        let q = &queries[step % queries.len()];
        let model = models[current];
        assert_engine_matches(&engine, &oracle, model, std::slice::from_ref(q), &[7], &what);
        let strategy = Strategy::ALL[step % 5];
        assert_eq!(
            reader.query(q, 7, strategy).unwrap(),
            oracle.top_k(strategy, &embed(model, q), 7),
            "{what}: reader {}",
            strategy.name()
        );
    }

    let model = models[current];
    assert_engine_matches(&engine, &oracle, model, &queries, &[1, 7, 40], "end of stream");
    for strategy in Strategy::ALL {
        let batched = engine.query_many(&queries, 7, strategy).unwrap();
        for (q, got) in queries.iter().zip(&batched) {
            let want = oracle.top_k(strategy, &embed(model, q), 7);
            assert_eq!(*got, want, "query_many {}", strategy.name());
            assert_eq!(reader.query(q, 7, strategy).unwrap(), want, "reader {}", strategy.name());
        }
    }
}

/// Every op kind at least once, with enough inserts and removes between
/// them to cross the rebuild thresholds of every shard count below.
#[test]
fn model_test_fixed_stream_at_one_shard_and_four_other_counts() {
    let ops: Vec<(usize, usize)> = vec![
        (0, 0), (1, 0), (5, 3), (2, 0), (3, 0), (6, 0), (4, 0), (0, 0), (1, 0),
        (9, 0), (2, 0), (7, 11), (3, 0), (10, 0), (8, 0), (5, 2), (6, 9),
        (12, 0), (0, 0), (5, 1), (1, 0), (11, 2), (2, 0), (3, 0), (4, 0), (7, 30),
        (12, 5), (0, 0), (6, 4), (9, 0), (11, 6), (1, 0), (5, 0), (10, 0), (8, 0),
    ];
    assert!((0..OP_KINDS).all(|kind| ops.iter().any(|&(k, _)| k == kind)));
    for shards in [1usize, 2, 3, 5, 8] {
        run_model_test(shards, &ops);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn model_test_random_streams_at_random_shard_counts(
        shards in 1usize..8,
        ops in proptest::collection::vec((0usize..OP_KINDS, 0usize..64), 0..20),
    ) {
        run_model_test(shards, &ops);
    }
}
