//! Concurrent serving under writer churn.
//!
//! N reader threads query continuously through [`ShardReader`] replicas
//! while the writer thread inserts, removes, compacts, hot-swaps,
//! force-degrades, and recovers. The generation-pinning protocol must
//! guarantee, at every instant:
//!
//! * **no torn reads** — every pinned [`PinnedView`] passes the full
//!   structural consistency check (array lengths, tombstone counts,
//!   ascending-id slot order, index coverage), even while the writer is
//!   mid-publish on some shard;
//! * **monotone publishes** — per-shard publish sequence numbers never
//!   move backwards between two pins by the same reader;
//! * **well-formed answers** — every query returns at most k hits,
//!   sorted under the `(distance, id)` total order, with no duplicate
//!   ids and no non-finite distances;
//! * **pinned views are frozen** — a view pinned before a burst of
//!   writes describes the same corpus afterwards;
//! * and once the writer goes quiet, readers and writer agree with a
//!   fresh single-shard engine over the surviving corpus, bit for bit.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use traj_data::{CityParams, Dataset, SplitSizes, Trajectory};
use traj_engine::{EngineConfig, Hit, ShardConfig, ShardedEngine, Strategy};
use traj2hash::{ModelConfig, ModelContext, Traj2Hash};

fn world() -> (Dataset, Traj2Hash) {
    let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 150, query: 8, database: 90 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 11);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
    let model = Traj2Hash::new(mcfg, &ctx, 13);
    (dataset, model)
}

fn assert_well_formed(hits: &[Hit], k: usize, what: &str) {
    assert!(hits.len() <= k, "{what}: more than k hits");
    for w in hits.windows(2) {
        assert!(
            (w[0].distance, w[0].id) < (w[1].distance, w[1].id),
            "{what}: hits not strictly sorted under (distance, id)"
        );
    }
    for h in hits {
        assert!(h.distance.is_finite(), "{what}: non-finite distance");
    }
}

#[test]
fn readers_never_observe_torn_or_regressing_state_under_writer_churn() {
    let (dataset, model) = world();
    // Tiny slack so writer ops constantly trigger per-shard rebuilds —
    // the worst case for readers.
    let cfg = EngineConfig { rebuild_slack: 4, ..EngineConfig::default() };
    let scfg = ShardConfig { shards: 4, fan_out_threads: 0 };
    let mut engine =
        ShardedEngine::build_from(&model, dataset.database.clone(), cfg, scfg).unwrap();

    const READERS: usize = 3;
    let stop = AtomicBool::new(false);
    let queries_done = AtomicUsize::new(0);
    let specs: Vec<_> = (0..READERS).map(|_| engine.reader()).collect();
    let query_pool: Vec<Trajectory> = dataset.query.clone();

    std::thread::scope(|scope| {
        for (ri, spec) in specs.into_iter().enumerate() {
            let stop = &stop;
            let queries_done = &queries_done;
            let query_pool = &query_pool;
            scope.spawn(move || {
                let mut reader = spec.into_reader();
                let mut last_seqs: Vec<u64> = reader.pin().publish_seqs();
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    let view = reader.pin();
                    view.check_consistent()
                        .unwrap_or_else(|e| panic!("reader {ri} pinned a torn view: {e}"));
                    let seqs = view.publish_seqs();
                    for (s, (now, before)) in seqs.iter().zip(&last_seqs).enumerate() {
                        assert!(
                            now >= before,
                            "reader {ri}: shard {s} publish seq went backwards ({before} -> {now})"
                        );
                    }
                    last_seqs = seqs;

                    let q = &query_pool[i % query_pool.len()];
                    let strategy = Strategy::ALL[i % Strategy::ALL.len()];
                    let (hits, info) = reader
                        .query_with_info(q, 10, strategy)
                        .unwrap_or_else(|e| panic!("reader {ri} query failed: {e}"));
                    assert_well_formed(&hits, 10, strategy.name());
                    assert_eq!(info.shards, 4);
                    queries_done.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // The writer churns on the scope's own thread: inserts, random
        // removals, compactions, degrade drills, recoveries, and one
        // hot swap — every lifecycle transition the soak loop exercises.
        let mut live: Vec<u64> = engine.ids();
        let mut pool = dataset.database.iter().cloned().cycle();
        let frozen = engine.pin();
        let frozen_live = frozen.live();
        for step in 0..150usize {
            match step % 7 {
                0..=2 => {
                    live.push(engine.insert(pool.next().unwrap()));
                }
                3..=4 => {
                    if live.len() > 10 {
                        let id = live.remove((step * 31) % live.len());
                        engine.remove(id).unwrap();
                    }
                }
                5 => {
                    if step % 21 == 5 {
                        engine.force_degrade();
                    } else {
                        engine.compact();
                    }
                }
                _ => {
                    assert!(engine.recover());
                }
            }
            if step == 75 {
                let replica =
                    Traj2Hash::from_spec(&engine.model().spec(), &engine.model().params.clone_values());
                let replacement = engine.refreshed(replica).unwrap();
                engine.hot_swap(replacement);
            }
        }
        // The view pinned before the churn still describes the same
        // frozen corpus and is still internally consistent.
        assert_eq!(frozen.live(), frozen_live);
        frozen.check_consistent().unwrap();
        stop.store(true, Ordering::Relaxed);
    });

    assert!(
        queries_done.load(Ordering::Relaxed) >= READERS,
        "readers never got a query through"
    );

    // Quiesced: writer, a fresh reader, and a from-scratch single-shard
    // engine over the survivors all agree exactly.
    let reference = ShardedEngine::from_snapshot_bytes(
        &engine.snapshot_bytes().unwrap(),
        ShardConfig { shards: 1, fan_out_threads: 0 },
    )
    .unwrap();
    let mut reader = engine.reader().into_reader();
    for q in dataset.query.iter().take(4) {
        for strategy in Strategy::ALL {
            let want = reference.query(q, 10, strategy).unwrap();
            assert_eq!(
                engine.query(q, 10, strategy).unwrap(),
                want,
                "{} writer diverged post-churn",
                strategy.name()
            );
            assert_eq!(
                reader.query(q, 10, strategy).unwrap(),
                want,
                "{} reader diverged post-churn",
                strategy.name()
            );
        }
    }
}
