//! Engine correctness suite, run at one shard and at three.
//!
//! Three families of guarantees:
//!
//! 1. **Parity** — a freshly built [`ShardedEngine`] answers every
//!    strategy bit-identically to the direct path over the `traj-index`
//!    primitives (`embed_all` → `pack` → `euclidean_top_k` /
//!    `hamming_top_k` / table / MIH / hybrid), ids and distances both.
//! 2. **Lifecycle** — removals vanish, ids are never recycled,
//!    compaction changes nothing a caller can see, degraded serving
//!    stays exact and is counted, a hot swap adopts the replacement's
//!    config, an empty or non-finite trajectory is a typed error at every
//!    query entry point and at `try_insert`, and any interleaving of insert/remove (with compactions
//!    forced by a tiny rebuild threshold) answers exactly like an engine
//!    built from scratch over the surviving trajectories
//!    (property-based).
//! 3. **Snapshots** — save → load → query roundtrips exactly, and
//!    corrupted/truncated/wrong-magic snapshots are rejected with typed
//!    errors, never a panic or a silently wrong engine; and each of the
//!    four on-disk formats' loaders refuses the other three by magic.
//!
//! The stateful model test against the scan oracle lives in
//! `shard_parity`.

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

use oracle::{assert_engine_matches, narrow_model, world, Oracle};
use proptest::prelude::*;
use traj_data::{CityParams, Dataset, SplitSizes, Trajectory};
use traj_engine::{EngineConfig, EngineError, ShardConfig, ShardedEngine, Strategy};
use traj_index::search::Hit as SlotHit;
use traj_index::{
    euclidean_top_k, hamming_top_k, top_k_hits, BinaryCode, HammingTable, MultiIndexHashing,
};
use traj2hash::{CheckpointError, ModelConfig, ModelContext, Traj2Hash};

/// Every test below runs on a one-shard engine and on a three-shard one.
const SHARDS: [usize; 2] = [1, 3];

fn scfg(shards: usize) -> ShardConfig {
    ShardConfig { shards, fan_out_threads: 0 }
}

fn build(
    model: &Traj2Hash,
    corpus: &[Trajectory],
    cfg: EngineConfig,
    shards: usize,
) -> ShardedEngine {
    ShardedEngine::build_from(model, corpus.to_vec(), cfg, scfg(shards)).unwrap()
}

fn build_default(model: &Traj2Hash, corpus: &[Trajectory], shards: usize) -> ShardedEngine {
    build(model, corpus, EngineConfig::default(), shards)
}

/// One strategy straight over the `traj-index` primitives, on a frozen
/// corpus.
fn direct_path(
    embs: &[Vec<f32>],
    codes: &[BinaryCode],
    q_emb: &[f32],
    k: usize,
    strategy: Strategy,
) -> Vec<SlotHit> {
    let qc = BinaryCode::from_floats(q_emb);
    match strategy {
        Strategy::EuclideanBf => euclidean_top_k(embs, q_emb, k),
        Strategy::HammingBf => hamming_top_k(codes, &qc, k),
        Strategy::Table => {
            let table = HammingTable::try_build(codes.to_vec()).unwrap();
            let ball: Vec<SlotHit> = table
                .lookup_within(&qc, 2)
                .unwrap()
                .into_iter()
                .flat_map(|(d, slots)| {
                    slots.into_iter().map(move |s| SlotHit { index: s, distance: d as f64 })
                })
                .collect();
            top_k_hits(ball, k)
        }
        Strategy::Mih => {
            MultiIndexHashing::try_build(codes.to_vec(), 4).unwrap().top_k(&qc, k).unwrap()
        }
        Strategy::Hybrid => {
            HammingTable::try_build(codes.to_vec()).unwrap().hybrid_top_k(&qc, k).unwrap()
        }
    }
}

#[test]
fn fresh_engine_matches_direct_path_bit_for_bit_on_every_strategy() {
    let (dataset, model) = world();
    let corpus = dataset.database.clone();
    let embs = model.embed_all(&corpus);
    let codes: Vec<BinaryCode> = embs.iter().map(|e| BinaryCode::from_floats(e)).collect();
    for shards in SHARDS {
        let engine = build_default(&model, &corpus, shards);
        for q in &dataset.query {
            let q_emb = model.embed(q).data().to_vec();
            for k in [1usize, 5, 10, 37] {
                for strategy in Strategy::ALL {
                    let want = direct_path(&embs, &codes, &q_emb, k, strategy);
                    let got = engine.query(q, k, strategy).unwrap();
                    // Fresh build assigns ids 0..n in corpus order, so the
                    // engine's stable ids ARE the direct path's indices.
                    let got: Vec<SlotHit> = got
                        .into_iter()
                        .map(|h| SlotHit { index: h.id as usize, distance: h.distance })
                        .collect();
                    assert_eq!(
                        got,
                        want,
                        "{} diverged from the direct path at shards={shards} k={k}",
                        strategy.name()
                    );
                }
            }
        }
    }
}

/// Every shard answers `EuclideanBf` from its VP-tree; a degraded
/// engine answers it by scanning every row. Both give the same ids and
/// distances.
#[test]
fn vptree_backend_agrees_with_brute_force() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        let tree: Vec<_> = dataset
            .query
            .iter()
            .map(|q| engine.query(q, 10, Strategy::EuclideanBf).unwrap())
            .collect();
        engine.force_degrade();
        for (q, want) in dataset.query.iter().zip(&tree) {
            let (scan, info) = engine.query_with_info(q, 10, Strategy::EuclideanBf).unwrap();
            assert!(info.linear_fallback && info.candidates == dataset.database.len());
            assert_eq!(&scan, want, "shards={shards}");
        }
    }
}

#[test]
fn k_zero_and_empty_engine_answer_with_nothing() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let engine = build_default(&model, &dataset.database, shards);
        let empty = build_default(&model, &[], shards);
        assert!(empty.is_empty());
        for strategy in Strategy::ALL {
            assert!(engine.query(&dataset.query[0], 0, strategy).unwrap().is_empty());
            assert!(empty.query(&dataset.query[0], 5, strategy).unwrap().is_empty());
        }
    }
}

#[test]
fn hostile_queries_are_typed_errors_at_every_entry_point() {
    let (dataset, model) = world();
    let good = &dataset.query[0];
    let with_first_x = |x: f64| {
        let mut t = good.clone();
        t.points[0].x = x;
        t
    };
    let hostile = [
        ("empty", Trajectory::new(Vec::new())),
        ("NaN", with_first_x(f64::NAN)),
        ("infinite", with_first_x(f64::INFINITY)),
    ];
    let invalid = |r: Result<(), EngineError>, what: &str| {
        assert!(matches!(r, Err(EngineError::InvalidInput(_))), "{what}: got {r:?}");
    };
    for shards in SHARDS {
        let engine = build_default(&model, &dataset.database, shards);
        let mut reader = engine.reader().into_reader();
        for (name, bad) in &hostile {
            for strategy in Strategy::ALL {
                let what = format!("{name} query, {} at shards={shards}", strategy.name());
                invalid(engine.query(bad, 5, strategy).map(drop), &what);
                invalid(engine.query_with_info(bad, 5, strategy).map(drop), &what);
                invalid(engine.query_traced(bad, 5, strategy).map(drop), &what);
                // Validation comes before the k == 0 early return.
                invalid(engine.query(bad, 0, strategy).map(drop), &what);
                invalid(reader.query(bad, 5, strategy).map(drop), &what);
                invalid(reader.query_with_info(bad, 5, strategy).map(drop), &what);
                invalid(reader.query_traced(bad, 5, strategy).map(drop), &what);

                // One bad member fails the batch before any work is done.
                let batch = [good.clone(), bad.clone(), good.clone()];
                let before = engine.telemetry().strategy(strategy).queries;
                invalid(engine.query_many(&batch, 5, strategy).map(drop), &what);
                assert_eq!(engine.telemetry().strategy(strategy).queries, before, "{what}");
            }
        }
        let oracle = Oracle::build(&model, &dataset.database);
        assert_engine_matches(&engine, &oracle, &model, &dataset.query, &[5], "after hostile input");
        assert_eq!(
            reader.query(good, 5, Strategy::Hybrid).unwrap(),
            engine.query(good, 5, Strategy::Hybrid).unwrap()
        );
    }
}

/// A refused insert stores nothing: at the parent a NaN trajectory was
/// encoded to a NaN embedding, stored, and ranked by NaN distances.
#[test]
fn hostile_inserts_are_typed_errors_and_store_nothing() {
    let (dataset, model) = world();
    let mut nan = dataset.query[0].clone();
    nan.points[1].y = f64::NAN;
    let mut infinite = dataset.query[0].clone();
    infinite.points[0].x = f64::NEG_INFINITY;
    let hostile = [("empty", Trajectory::new(Vec::new())), ("NaN", nan), ("infinite", infinite)];
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        let (len, seqs) = (engine.len(), engine.pin().publish_seqs());
        for (name, bad) in &hostile {
            let what = format!("{name} insert at shards={shards}");
            let r = engine.try_insert(bad.clone());
            assert!(matches!(r, Err(EngineError::InvalidInput(_))), "{what}: got {r:?}");
            // `insert` cannot return the error, so it panics with it.
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                engine.insert(bad.clone())
            }));
            assert!(panicked.is_err(), "{what}: insert must panic");
            assert_eq!(engine.len(), len, "{what}");
            assert_eq!(engine.telemetry().inserts, 0, "{what}");
            assert_eq!(engine.pin().publish_seqs(), seqs, "{what}");
        }
        let oracle = Oracle::build(&model, &dataset.database);
        assert_engine_matches(&engine, &oracle, &model, &dataset.query, &[5], "after refused inserts");
        // The next id is the one a refused insert would have taken.
        assert_eq!(engine.try_insert(dataset.query[0].clone()).unwrap(), len as u64);
    }
}

#[test]
fn remove_rejects_unknown_and_double_removal() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        assert!(matches!(engine.remove(999_999), Err(EngineError::UnknownId(999_999))));
        engine.remove(3).unwrap();
        assert!(matches!(engine.remove(3), Err(EngineError::UnknownId(3))));
        assert!(!engine.contains(3));
        assert!(engine.get(3).is_none());
    }
}

#[test]
fn removed_trajectories_vanish_from_every_strategy() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        let q = &dataset.query[0];
        // Remove the entire Euclidean top-5, then confirm none of the
        // five ever reappears under any strategy.
        let victims: Vec<u64> =
            engine.query(q, 5, Strategy::EuclideanBf).unwrap().iter().map(|h| h.id).collect();
        for &id in &victims {
            engine.remove(id).unwrap();
        }
        for strategy in Strategy::ALL {
            let hits = engine.query(q, 20, strategy).unwrap();
            for h in &hits {
                assert!(!victims.contains(&h.id), "{} resurfaced a tombstone", strategy.name());
            }
        }
        assert_eq!(engine.len(), dataset.database.len() - victims.len());
    }
}

#[test]
fn compaction_preserves_ids_and_answers() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        for id in [0u64, 7, 13, 44, 80] {
            engine.remove(id).unwrap();
        }
        let q = &dataset.query[1];
        let before: Vec<_> =
            Strategy::ALL.iter().map(|&s| engine.query(q, 15, s).unwrap()).collect();
        let ids_before = engine.ids();
        let gens_before = engine.pin().generations();

        engine.compact();

        let after: Vec<_> =
            Strategy::ALL.iter().map(|&s| engine.query(q, 15, s).unwrap()).collect();
        let stats = engine.stats();
        assert_eq!(before, after, "compaction changed query answers");
        assert_eq!(ids_before, engine.ids(), "compaction changed live ids");
        assert_eq!(stats.dead, 0);
        assert_eq!(stats.delta, 0);
        for (after, before) in engine.pin().generations().iter().zip(&gens_before) {
            assert!(after > before, "every shard rebuilds on compact");
        }
    }
}

#[test]
fn inserts_are_searchable_immediately_and_get_fresh_ids() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        let novel = dataset.query[2].clone();
        let id = engine.insert(novel.clone());
        assert_eq!(id, dataset.database.len() as u64);
        assert!(engine.contains(id));
        // A self-query must find the fresh entry at distance 0 under
        // every strategy — it lives in the delta region, proving the
        // linear merge actually runs. In Euclidean space it is also rank
        // 1 outright; in Hamming space the untrained model's codes
        // collide, so it may tie at distance 0 with older entries (which
        // win the id tie-break).
        let top = engine.query(&novel, 1, Strategy::EuclideanBf).unwrap();
        assert_eq!(top[0].id, id);
        assert_eq!(top[0].distance, 0.0);
        for strategy in Strategy::ALL {
            let hits = engine.query(&novel, engine.len(), strategy).unwrap();
            let me = hits
                .iter()
                .find(|h| h.id == id)
                .unwrap_or_else(|| panic!("{} cannot see the fresh insert", strategy.name()));
            assert_eq!(me.distance, 0.0, "{}", strategy.name());
        }
        // Its id is never recycled, even after removal + compaction.
        engine.remove(id).unwrap();
        engine.compact();
        let id2 = engine.insert(novel);
        assert!(id2 > id);
    }
}

#[test]
fn degraded_mode_tags_queries_counts_fallbacks_and_recovers() {
    for shards in SHARDS {
        check_degrade_drill(shards);
    }
}

fn check_degrade_drill(shards: usize) {
    let (dataset, model) = world();
    let mut engine = build_default(&model, &dataset.database, shards);
    let q = &dataset.query[0];

    // Healthy baseline: indexed strategies are neither degraded nor
    // fallbacks, and the over-fetch margin is visible per query.
    let (_, info) = engine.query_with_info(q, 5, Strategy::Mih).unwrap();
    assert!(!info.degraded && !info.linear_fallback);
    assert_eq!(info.strategy, Strategy::Mih);
    assert_eq!(info.shards, shards);
    assert!(info.seconds >= 0.0 && info.candidates > 0);
    let healthy: Vec<_> =
        Strategy::ALL.iter().map(|&s| engine.query(q, 10, s).unwrap()).collect();
    let base = engine.telemetry();
    assert_eq!(base.total_linear_fallbacks(), 0);
    assert_eq!(base.rebuilds, shards as u64, "construction is each shard's first rebuild");

    // Chaos drill: drop the indexes. Every strategy must still answer
    // exactly what it answered healthy (Table keeps its radius-2,
    // may-return-fewer contract by filtering the scan), tag its
    // QueryInfo as degraded, and the index-backed strategies must count
    // linear fallbacks, both in engine telemetry and in the obs mirror.
    let rec = std::sync::Arc::new(traj_obs::InMemoryRecorder::default());
    traj_obs::with_local_recorder(rec.clone(), || {
        engine.force_degrade();
        assert!(engine.stats().degraded);
        for (strategy, want) in Strategy::ALL.into_iter().zip(&healthy) {
            let (hits, info) = engine.query_with_info(q, 10, strategy).unwrap();
            assert!(info.degraded, "{} not tagged degraded", strategy.name());
            assert_eq!(info.overfetch, 0, "no indexed region, no over-fetch margin");
            let expect_fallback = strategy != Strategy::HammingBf;
            assert_eq!(
                info.linear_fallback,
                expect_fallback,
                "{}: by-design scans are not fallbacks, index paths are",
                strategy.name()
            );
            assert_eq!(hits, *want, "{} changed its answer when degraded", strategy.name());
        }
    });
    let tele = engine.telemetry();
    assert_eq!(tele.degraded_entries, base.degraded_entries + 1);
    assert_eq!(tele.total_linear_fallbacks(), 4, "every strategy but HammingBf fell back");
    assert_eq!(tele.strategy(Strategy::HammingBf).linear_fallbacks, 0);
    assert_eq!(tele.strategy(Strategy::Table).degraded_queries, 1);

    let agg = rec.aggregates();
    assert_eq!(agg.counter_value("engine.degraded_entries"), 1);
    assert_eq!(agg.counter_value("engine.degraded_queries"), 5);
    assert_eq!(agg.counter_value("engine.linear_fallbacks"), 4);
    assert_eq!(agg.events_named("engine.degraded").count(), 1);
    for strategy in Strategy::ALL {
        assert_eq!(
            agg.histograms.get(strategy.metric_name()).map(|h| h.count()),
            Some(1),
            "{} latency histogram missing from the obs mirror",
            strategy.name()
        );
    }

    // Compaction rebuilds the indexes: the engine leaves degraded mode
    // and the fallback counters stop moving.
    engine.compact();
    let (hits, info) = engine.query_with_info(q, 10, Strategy::Mih).unwrap();
    assert!(!info.degraded && !info.linear_fallback);
    assert_eq!(hits, healthy[Strategy::Mih.index()]);
    assert_eq!(engine.telemetry().total_linear_fallbacks(), 4);

    // `recover` is the drill's other way out, and it is counted.
    engine.force_degrade();
    assert!(engine.recover());
    assert!(!engine.stats().degraded);
    assert_eq!(engine.telemetry().recoveries, 1);
    assert_eq!(
        engine.query(q, 10, Strategy::EuclideanBf).unwrap(),
        healthy[Strategy::EuclideanBf.index()]
    );

    // The same drill over every region a shard can hold: indexed base
    // rows, delta rows, and tombstones in both. One scan loop serves the
    // healthy delta and the whole degraded shard, so the answers must
    // be the same hits, bit for bit, for every strategy.
    let fresh: Vec<u64> = dataset.query[1..5].iter().map(|t| engine.insert(t.clone())).collect();
    for id in [2u64, 9, 40, fresh[1]] {
        engine.remove(id).unwrap();
    }
    let stats = engine.stats();
    assert_eq!((stats.delta, stats.dead, stats.degraded), (4, 4, false), "no rebuild fired");
    let answers = |engine: &ShardedEngine| -> Vec<_> {
        let per_k = |k| Strategy::ALL.map(|s| engine.query(q, k, s).unwrap());
        [1usize, 10, 60].map(per_k).to_vec()
    };
    let healthy = answers(&engine);
    engine.force_degrade();
    assert!(engine.stats().degraded);
    assert_eq!(answers(&engine), healthy, "degraded shards answer differently");
    assert!(engine.recover());
    assert_eq!(answers(&engine), healthy, "recovery changed the answers");
}

/// `QueryInfo::overfetch` is the tombstone margin a path actually added
/// to the `k` it asked of an exact index: `Mih`, and `EuclideanBf`'s
/// VP-tree. Scans and radius-2 balls filter instead, and report 0.
#[test]
fn overfetch_is_charged_only_to_the_paths_that_over_fetch() {
    let (dataset, model) = world();
    let removed = [0u64, 7, 13, 44, 80];
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        for id in removed {
            engine.remove(id).unwrap();
        }
        assert_eq!(engine.stats().dead, removed.len(), "no rebuild fired");
        let mut charged = 0;
        let rec = std::sync::Arc::new(traj_obs::InMemoryRecorder::default());
        traj_obs::with_local_recorder(rec.clone(), || {
            for strategy in Strategy::ALL {
                let (_, info) = engine.query_with_info(&dataset.query[0], 5, strategy).unwrap();
                let over_fetches = matches!(strategy, Strategy::Mih | Strategy::EuclideanBf);
                let want = if over_fetches { removed.len() } else { 0 };
                assert_eq!(info.overfetch, want, "{} at shards={shards}", strategy.name());
                charged += want;
            }
        });
        // The obs mirror's histogram inherits the per-query figure.
        let agg = rec.aggregates();
        let overfetch = agg.histogram("engine.query.overfetch").unwrap();
        assert_eq!((overfetch.count(), overfetch.sum()), (5, charged as f64));
    }
}

/// `hot_swap` must adopt the replacement's config: the swapped-in shard
/// states were built under it, so an engine that kept its own would
/// rebuild each shard under the old thresholds and table count, report
/// the wrong `config()`, and persist the stale config in its next
/// snapshot.
#[test]
fn hot_swap_adopts_the_replacement_config() {
    let (dataset, model) = world();
    let corpus = &dataset.database[..12];
    let replacement = EngineConfig { rebuild_slack: 4, mih_tables: 2, ..EngineConfig::default() };
    let adopted = |cfg: &EngineConfig| (cfg.rebuild_slack, cfg.mih_tables) == (4, 2);
    // Same shard count (states are republished as they are) and a
    // different one (entries are redistributed and re-indexed).
    for replacement_shards in [3usize, 2] {
        let mut engine = build_default(&model, corpus, 3);
        engine.hot_swap(build(&model, corpus, replacement.clone(), replacement_shards));
        assert!(adopted(engine.config()));

        // Push every shard past the replacement's rebuild threshold (4
        // base rows per shard, slack 4: the fifth delta row of a shard
        // rebuilds it). The default slack of 64 would rebuild none.
        let rebuilds = engine.telemetry().rebuilds;
        for t in &dataset.database[12..27] {
            engine.insert(t.clone());
        }
        assert_eq!(engine.telemetry().rebuilds, rebuilds + 3, "each shard rebuilt once");
        assert!(adopted(engine.config()));

        let rec = std::sync::Arc::new(traj_obs::InMemoryRecorder::default());
        traj_obs::with_local_recorder(rec, || {
            let (_, trace) = engine.query_traced(&dataset.query[0], 5, Strategy::Mih).unwrap();
            assert_eq!(trace.shards.len(), 3);
            for row in &trace.shards {
                assert_eq!(row.path, "indexed", "shard {} lost its index", row.shard);
            }
        });
        let reloaded =
            ShardedEngine::from_snapshot_bytes(&engine.snapshot_bytes().unwrap(), scfg(3)).unwrap();
        assert!(adopted(reloaded.config()));
    }
}

/// Applies one op stream to an incrementally maintained engine and to a
/// shadow list, then checks the engine agrees with a from-scratch build
/// over exactly the shadow's survivors.
fn check_incremental_matches_rebuilt(shards: usize, ops: &[(bool, usize)]) {
    let (dataset, model) = world();
    // Tiny slack so the op stream actually crosses rebuild thresholds.
    let cfg = EngineConfig { rebuild_slack: 4, ..EngineConfig::default() };
    let initial: Vec<Trajectory> = dataset.database[..12].to_vec();
    let mut engine = build(&model, &initial, cfg.clone(), shards);
    let mut shadow: Vec<(u64, Trajectory)> =
        initial.into_iter().enumerate().map(|(i, t)| (i as u64, t)).collect();

    let mut pool = dataset.database[12..].iter().cloned().cycle();
    for &(insert, pick) in ops {
        if insert {
            let t = pool.next().unwrap();
            let id = engine.insert(t.clone());
            shadow.push((id, t));
        } else if !shadow.is_empty() {
            let (id, _) = shadow.remove(pick % shadow.len());
            engine.remove(id).unwrap();
        }
    }

    assert_eq!(engine.len(), shadow.len());
    let shadow_ids: Vec<u64> = shadow.iter().map(|(id, _)| *id).collect();
    assert_eq!(engine.ids(), shadow_ids);

    // Reference: built from scratch over the survivors, in id order
    // (which is the shadow's order — removals keep it sorted). Its id i
    // therefore corresponds to shadow id shadow_ids[i].
    let survivors: Vec<Trajectory> = shadow.iter().map(|(_, t)| t.clone()).collect();
    let reference = build(&model, &survivors, cfg, shards);
    for q in dataset.query.iter().take(3) {
        for k in [1usize, 7] {
            for strategy in Strategy::ALL {
                let got = engine.query(q, k, strategy).unwrap();
                let want: Vec<(u64, f64)> = reference
                    .query(q, k, strategy)
                    .unwrap()
                    .into_iter()
                    .map(|h| (shadow_ids[h.id as usize], h.distance))
                    .collect();
                let got: Vec<(u64, f64)> =
                    got.into_iter().map(|h| (h.id, h.distance)).collect();
                assert_eq!(
                    got,
                    want,
                    "{} diverged after {} ops at shards={shards} k={k}",
                    strategy.name(),
                    ops.len(),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn incremental_engine_matches_from_scratch_rebuild(
        ops in proptest::collection::vec((proptest::bool::ANY, 0usize..64), 0..24),
    ) {
        for shards in SHARDS {
            check_incremental_matches_rebuilt(shards, &ops);
        }
    }
}

#[test]
fn snapshot_roundtrips_bit_for_bit() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let mut engine = build_default(&model, &dataset.database, shards);
        // Dirty the state so the snapshot covers delta + tombstones too.
        engine.insert(dataset.query[0].clone());
        engine.remove(5).unwrap();
        engine.remove(41).unwrap();

        let bytes = engine.snapshot_bytes().unwrap();
        let loaded = ShardedEngine::from_snapshot_bytes(&bytes, scfg(shards)).unwrap();

        assert_eq!(loaded.len(), engine.len());
        assert_eq!(loaded.ids(), engine.ids());
        for q in &dataset.query {
            for strategy in Strategy::ALL {
                assert_eq!(
                    loaded.query(q, 12, strategy).unwrap(),
                    engine.query(q, 12, strategy).unwrap(),
                    "{} diverged after snapshot reload",
                    strategy.name()
                );
            }
        }
        // next_id survives: a post-reload insert gets a fresh id, not a
        // recycled one.
        let mut loaded = loaded;
        let fresh = loaded.insert(dataset.query[1].clone());
        assert!(fresh > dataset.database.len() as u64);
    }
}

#[test]
fn snapshot_roundtrips_without_grid_channel() {
    let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 150, query: 8, database: 40 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 17);
    let mcfg = ModelConfig::tiny().without_grids();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 17);
    let model = Traj2Hash::new(mcfg, &ctx, 19);
    for shards in SHARDS {
        let engine = build_default(&model, &dataset.database, shards);
        let loaded =
            ShardedEngine::from_snapshot_bytes(&engine.snapshot_bytes().unwrap(), scfg(shards))
                .unwrap();
        for q in &dataset.query {
            assert_eq!(
                loaded.query(q, 8, Strategy::EuclideanBf).unwrap(),
                engine.query(q, 8, Strategy::EuclideanBf).unwrap(),
            );
        }
    }
}

#[test]
fn snapshot_survives_the_filesystem() {
    let (dataset, model) = world();
    for shards in SHARDS {
        let engine = build_default(&model, &dataset.database, shards);
        let path = std::env::temp_dir()
            .join(format!("t2h-engine-{}-{shards}.snap", std::process::id()));
        engine.save_snapshot(&path).unwrap();
        let loaded = ShardedEngine::load_snapshot(&path, scfg(shards)).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(
            loaded.query(&dataset.query[0], 10, Strategy::Mih).unwrap(),
            engine.query(&dataset.query[0], 10, Strategy::Mih).unwrap(),
        );
        assert_eq!(engine.telemetry().snapshot_saves, 1);
    }
}

/// `T2HSNAP1` did not change with the row store. The fixture was written
/// by the parent of that change (PR 16, `e55bb4a`): the tiny model of
/// [`world`], `database[..20]` built at two shards, `query[0]` inserted
/// (id 20) and id 7 removed. It must load into `Rows`, answer every
/// strategy like the scan oracle over the rows it holds, and serialise
/// back to the same bytes.
#[test]
fn snapshot_written_before_the_row_store_loads_and_reserialises_identically() {
    let bytes: &[u8] = include_bytes!("fixtures/pr16_tiny_20rows.t2hsnap");
    for shards in SHARDS {
        let engine = ShardedEngine::from_snapshot_bytes(bytes, scfg(shards)).unwrap();
        let ids: Vec<u64> = (0..=20).filter(|&id| id != 7).collect();
        assert_eq!(engine.ids(), ids);
        assert_eq!(engine.snapshot_bytes().unwrap(), bytes, "re-serialised at shards={shards}");
        engine.pin().check_consistent().unwrap();

        // The stored rows were computed by `e55bb4a`'s kernels; today's
        // must reproduce every bit of them from the snapshot's own model.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        for &id in &ids {
            let stored = engine.embedding(id).unwrap();
            let fresh = engine.model().embed(&engine.get(id).unwrap());
            assert_eq!(bits(fresh.data()), bits(&stored), "row {id} re-embeds differently");
        }

        // The oracle numbers its rows 0..n, so it gets a stand-in for
        // the row the fixture no longer holds and removes it again.
        let row = |id: u64| engine.get(id).unwrap_or_else(|| engine.get(0).unwrap());
        let corpus: Vec<Trajectory> = (0..=20).map(row).collect();
        let mut oracle = Oracle::build(engine.model(), &corpus);
        assert!(oracle.remove(7));
        let queries = [row(3), row(12), row(20)];
        assert_engine_matches(&engine, &oracle, engine.model(), &queries, &[1, 5, 30], "fixture");
    }
}

/// The engine section's `u8` once named the Euclidean backend (0 = scan,
/// 1 = VP-tree) and is now reserved: written 0, read as 0 or 1. An image
/// written under the VP-tree backend loads, answers like the oracle and
/// re-serialises with 0; any other value is a typed malformed error.
#[test]
fn snapshot_reserved_backend_byte_reads_zero_or_one_and_writes_zero() {
    use traj2hash::checkpoint::{decode_container, encode_container};
    use traj_engine::snapshot::{MAGIC, VERSION};
    let (dataset, model) = world();
    let corpus = &dataset.database[..20];
    let payload = |engine: &ShardedEngine| {
        decode_container(&engine.snapshot_bytes().unwrap(), MAGIC, VERSION).unwrap().1.to_vec()
    };
    let engine = build_default(&model, corpus, 2);
    let bytes = engine.snapshot_bytes().unwrap();
    // The engine section ends the head: the reserved byte, then
    // encode_threads, rebuild_slack, two fractions and next_id (5 x 8 B),
    // then the corpus, whose empty form is its 8-byte row count.
    let head = payload(&build_default(&model, &[], 2)).len() - 8;
    let at = head - 41;
    let mut image = payload(&engine);
    assert_eq!(image[at], 0, "the reserved byte is written as 0");

    let load = |image: &[u8]| {
        ShardedEngine::from_snapshot_bytes(&encode_container(MAGIC, VERSION, image), scfg(2))
    };
    image[at] = 1;
    let loaded = load(&image).unwrap();
    let oracle = Oracle::build(&model, corpus);
    assert_engine_matches(&loaded, &oracle, &model, &dataset.query[..3], &[1, 5, 30], "byte 1");
    assert_eq!(loaded.snapshot_bytes().unwrap(), bytes, "re-serialised with 0");

    image[at] = 2;
    match load(&image) {
        Err(EngineError::Snapshot(CheckpointError::Malformed(m))) => assert!(m.contains("reserved")),
        other => panic!("byte 2 must be a malformed snapshot: {:?}", other.err()),
    }
}

#[test]
fn corrupted_snapshots_are_rejected_not_loaded() {
    let (dataset, model) = world();
    for shards in SHARDS {
        check_corrupted_snapshots(&build_default(&model, &dataset.database[..30], shards));
    }
}

/// A well-formed, checksummed snapshot whose rows were encoded by a
/// model of another width than the one it carries — one model's header
/// spliced onto another's corpus — is refused with a typed error, never
/// loaded into an engine that would rank 8-wide rows with 16-wide
/// queries.
#[test]
fn a_snapshot_pairing_a_model_with_rows_it_did_not_encode_is_refused() {
    use traj2hash::checkpoint::{decode_container, encode_container};
    use traj_engine::snapshot::{MAGIC, VERSION};
    let (dataset, wide) = world();
    let narrow = narrow_model(&dataset);
    // A payload is `model + engine sections | corpus`, and the corpus of
    // an empty engine is its 8-byte row count: that locates the split.
    let payload = |model: &Traj2Hash, corpus: &[Trajectory]| {
        let bytes = build_default(model, corpus, 1).snapshot_bytes().unwrap();
        decode_container(&bytes, MAGIC, VERSION).unwrap().1.to_vec()
    };
    let corpus = &dataset.database[..10];
    let head = |model: &Traj2Hash| payload(model, &[]).len() - 8;
    let mut spliced = payload(&wide, corpus)[..head(&wide)].to_vec();
    spliced.extend_from_slice(&payload(&narrow, corpus)[head(&narrow)..]);
    for shards in SHARDS {
        let loaded =
            ShardedEngine::from_snapshot_bytes(&encode_container(MAGIC, VERSION, &spliced), scfg(shards));
        let err = loaded.err().expect("a mixed-width snapshot must not load").to_string();
        assert!(err.contains("width") || err.contains("dimensions"), "shards={shards}: {err}");
    }
}

/// The workspace's four on-disk formats carry four distinct headers, so
/// each loader refuses the other three formats' bytes as foreign, with
/// its own typed error, before reading anything else.
#[test]
fn every_loader_refuses_the_other_formats_by_magic() {
    let (dataset, model) = world();
    let tnn1 = model.save_bytes();
    let tns1 = model.params.save_state_bytes();
    let ckpt = traj2hash::Checkpoint {
        epoch: 1,
        adam_steps: 3,
        triplet_cursor: 0,
        lr: 0.1,
        best_epoch: 0,
        best_val: None,
        params_state: tns1.clone(),
        best_params: tnn1.clone(),
        epoch_losses: vec![0.5],
        val_hr10: Vec::new(),
        recoveries: Vec::new(),
    }
    .encode();
    let snap = build_default(&model, &dataset.database[..10], 1).snapshot_bytes().unwrap();
    let formats = [("TNN1", &tnn1), ("TNS1", &tns1), ("T2HCKPT1", &ckpt), ("T2HSNAP1", &snap)];
    for (magic, bytes) in formats {
        assert!(bytes.starts_with(magic.as_bytes()), "{magic} bytes open with their magic");
    }
    // Each loader accepts its own format: the refusals below are about
    // the header, not a loader that refuses everything.
    model.load_bytes(&tnn1).unwrap();
    model.params.load_state_bytes(&tns1).unwrap();
    traj2hash::Checkpoint::decode(&ckpt).unwrap();
    ShardedEngine::from_snapshot_bytes(&snap, scfg(1)).unwrap();

    for (magic, bytes) in formats {
        if magic != "TNN1" {
            assert_eq!(model.load_bytes(bytes), Err("bad magic in parameter blob".into()), "{magic}");
        }
        if magic != "TNS1" {
            let err = model.params.load_state_bytes(bytes);
            assert_eq!(err, Err("bad magic in parameter blob".into()), "{magic}");
        }
        if magic != "T2HCKPT1" {
            let err = traj2hash::Checkpoint::decode(bytes).err();
            assert!(matches!(err, Some(CheckpointError::BadMagic)), "{magic}: {err:?}");
        }
        if magic != "T2HSNAP1" {
            let err = ShardedEngine::from_snapshot_bytes(bytes, scfg(1)).err();
            assert!(
                matches!(err, Some(EngineError::Snapshot(CheckpointError::BadMagic))),
                "{magic}: {err:?}"
            );
        }
    }
}

fn check_corrupted_snapshots(engine: &ShardedEngine) {
    let bytes = engine.snapshot_bytes().unwrap();
    let scfg_same = engine.shard_config().clone();
    let load = |bytes: &[u8]| ShardedEngine::from_snapshot_bytes(bytes, scfg_same.clone());

    // Bit flips anywhere in the payload trip the checksum.
    for pos in [24usize, bytes.len() / 2, bytes.len() - 1] {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x40;
        match load(&bad) {
            Err(EngineError::Snapshot(CheckpointError::ChecksumMismatch { .. })) => {}
            Err(e) => panic!("corruption at byte {pos} surfaced the wrong error: {e}"),
            Ok(_) => panic!("corruption at byte {pos} was not caught"),
        }
    }

    // A flipped magic byte is a different file format, not corruption.
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(matches!(
        load(&wrong_magic),
        Err(EngineError::Snapshot(CheckpointError::BadMagic))
    ));

    // Truncation at any prefix must error, never panic or mis-load.
    for cut in [0usize, 7, 15, bytes.len() - 9] {
        assert!(load(&bytes[..cut]).is_err(), "truncation to {cut} bytes was accepted");
    }

    // A model checkpoint is not an engine snapshot.
    let ckpt = traj2hash::Checkpoint {
        epoch: 0,
        adam_steps: 0,
        triplet_cursor: 0,
        lr: 0.1,
        best_epoch: 0,
        best_val: None,
        params_state: Vec::new(),
        best_params: Vec::new(),
        epoch_losses: Vec::new(),
        val_hr10: Vec::new(),
        recoveries: Vec::new(),
    }
    .encode();
    assert!(matches!(load(&ckpt), Err(EngineError::Snapshot(CheckpointError::BadMagic))));

    // Zero shards is a config error, not a panic in the partitioner.
    assert!(matches!(
        ShardedEngine::from_snapshot_bytes(&bytes, scfg(0)),
        Err(EngineError::InvalidConfig(_))
    ));
}
