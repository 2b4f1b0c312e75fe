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
//!   fresh single-shard engine over the surviving corpus, bit for bit;
//! * **swaps are atomic** — while the writer alternates between two
//!   models, every answer is the old engine's or the new engine's, never
//!   a query encoded by one model ranked against rows encoded by the
//!   other.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use traj_data::{Dataset, Trajectory};
use traj_engine::{EngineConfig, Hit, ShardConfig, ShardedEngine, Strategy};
use traj2hash::Traj2Hash;

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

use oracle::{narrow_model, other_model, replica, world};

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
    let (mut inserts, mut removes) = (0u64, 0u64);

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
                    inserts += 1;
                }
                3..=4 => {
                    if live.len() > 10 {
                        let id = live.remove((step * 31) % live.len());
                        engine.remove(id).unwrap();
                        removes += 1;
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
                let replacement = engine.refreshed(other_model(&dataset)).unwrap();
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
    // The lock-free counters lost no increment: every reader query,
    // insert, remove and the one hot swap is counted exactly once.
    let tele = engine.telemetry();
    assert_eq!(tele.total_queries(), queries_done.load(Ordering::Relaxed) as u64);
    assert_eq!((tele.inserts, tele.removes), (inserts, removes));
    assert_eq!(tele.hot_swaps, 1);

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

/// Every `(query, strategy)` answer of a fresh engine over `corpus`.
fn answers(model: &Traj2Hash, corpus: &[Trajectory], queries: &[Trajectory]) -> Vec<Vec<Hit>> {
    let engine = ShardedEngine::build_from(
        model,
        corpus.to_vec(),
        EngineConfig::default(),
        ShardConfig { shards: 1, fan_out_threads: 0 },
    )
    .unwrap();
    queries
        .iter()
        .flat_map(|q| Strategy::ALL.map(|s| engine.query(q, 5, s).unwrap()))
        .collect()
}

/// Two readers query a fixed corpus while the writer runs 200
/// `refreshed` + `hot_swap` cycles alternating between `a` and `b`;
/// every answer must be engine-A's or engine-B's.
fn check_swaps_are_atomic(dataset: &Dataset, a: &Traj2Hash, b: &Traj2Hash) {
    let corpus = &dataset.database[..30];
    let queries = &dataset.query[..4];
    let (want_a, want_b) = (answers(a, corpus, queries), answers(b, corpus, queries));
    assert_ne!(want_a, want_b, "the two models must answer differently");
    let scfg = ShardConfig { shards: 3, fan_out_threads: 0 };
    let mut engine =
        ShardedEngine::build_from(a, corpus.to_vec(), EngineConfig::default(), scfg).unwrap();

    let stop = AtomicBool::new(false);
    let specs = [engine.reader(), engine.reader()];
    let answered: usize = std::thread::scope(|scope| {
        let readers: Vec<_> = specs
            .into_iter()
            .map(|spec| {
                let (stop, want_a, want_b) = (&stop, &want_a, &want_b);
                scope.spawn(move || {
                    let mut reader = spec.into_reader();
                    let mut n = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let case = n % want_a.len();
                        let (q, strategy) = (&queries[case / 5], Strategy::ALL[case % 5]);
                        let got = reader.query(q, 5, strategy).unwrap();
                        assert!(
                            got == want_a[case] || got == want_b[case],
                            "{} answer is neither the old engine's nor the new one's",
                            strategy.name()
                        );
                        n += 1;
                    }
                    n
                })
            })
            .collect();
        for cycle in 0..200 {
            let next = if cycle % 2 == 0 { b } else { a };
            let replacement = engine.refreshed(replica(next)).unwrap();
            engine.hot_swap(replacement);
        }
        stop.store(true, Ordering::Relaxed);
        readers.into_iter().map(|r| r.join().expect("a reader saw a torn swap")).sum()
    });
    assert!(answered >= 2, "readers never got a query through");
}

#[test]
fn hot_swaps_are_atomic_between_models_of_one_width() {
    let (dataset, a) = world();
    check_swaps_are_atomic(&dataset, &a, &other_model(&dataset));
}

#[test]
fn hot_swaps_are_atomic_between_models_of_different_widths() {
    let (dataset, a) = world();
    check_swaps_are_atomic(&dataset, &a, &narrow_model(&dataset));
}
