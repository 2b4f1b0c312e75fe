//! Quickstart: train a small Traj2Hash model, stand up the serving
//! engine, and search in both Euclidean and Hamming space — then keep
//! the corpus live with inserts/removals, survive a restart via a
//! snapshot, and serve from other threads.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Instant;
use traj_data::{CityParams, Dataset, SplitSizes};
use traj_dist::Measure;
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};
use traj_eval::{ground_truth_top_k, hr_at_k};
use traj2hash::{train, ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData};

fn main() {
    // 0. Telemetry is opt-in: with OBS_JSONL=path in the environment,
    //    every epoch span, query-latency histogram, and engine event
    //    below is exported as JSON lines (see DESIGN.md §11).
    if std::env::var_os("OBS_JSONL").is_some() {
        traj_obs::init_from_env().expect("OBS_JSONL path must be writable");
    }

    // 1. A deterministic synthetic city (stand-in for the Porto taxi
    //    corpus; see DESIGN.md).
    let sizes = SplitSizes { seeds: 60, validation: 80, corpus: 800, query: 20, database: 400 };
    let dataset = Dataset::generate(CityParams::porto_like(), sizes, 42);
    println!(
        "dataset: {} seeds / {} validation / {} corpus / {} queries / {} database",
        dataset.seeds.len(),
        dataset.validation.len(),
        dataset.corpus.len(),
        dataset.query.len(),
        dataset.database.len()
    );

    // 2. Prepare the model context (normalization stats, fine grid, NCE
    //    pre-trained decomposed grid embeddings) and train.
    let mcfg = ModelConfig { dim: 32, blocks: 1, heads: 2, grid_dim: 32, ..ModelConfig::default() };
    let tcfg = TrainConfig {
        epochs: 6,
        coarse_cell_m: 2000.0,
        triplets_per_epoch: 256,
        ..TrainConfig::default()
    };
    let measure = Measure::Frechet;
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 42);
    println!("grid pre-training took {:.2}s", ctx.pretrain_secs);
    let mut model = Traj2Hash::new(mcfg, &ctx, 42);
    let data = TrainData::prepare(&dataset, measure, &tcfg).expect("failed to prepare training supervision");
    println!("supervision ready: {} generated triplets", data.triplets.len());
    let report = train(&mut model, &data, &tcfg).expect("training failed");
    println!(
        "trained {} epochs in {:.1}s; validation HR@10 per epoch: {:?}",
        report.epoch_losses.len(),
        report.seconds,
        report.val_hr10.iter().map(|x| (x * 100.0).round() / 100.0).collect::<Vec<_>>()
    );

    // 3. Stand up the serving engine: one call encodes the database,
    //    packs the binary codes, partitions the corpus across shards by
    //    stable id, and builds every shard's indexes. The trainer keeps
    //    the original model; the engine owns a byte-identical replica.
    let shards = ShardConfig { shards: 4, fan_out_threads: 0 };
    let mut engine = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        shards.clone(),
    )
    .expect("engine build");
    let stats = engine.stats();
    println!(
        "\nengine: {} trajectories indexed over {} shards, degraded: {}",
        stats.live, shards.shards, stats.degraded
    );

    // 4. One `query` call per strategy — no per-strategy plumbing.
    let truth = ground_truth_top_k(&dataset.query, &dataset.database, measure, 10)
        .expect("ground truth computation failed");
    println!("top-10 search vs exact {measure:?}:");
    for strategy in Strategy::ALL {
        let mut hr = 0.0;
        for (qi, q) in dataset.query.iter().enumerate() {
            let ids: Vec<usize> = engine
                .query(q, 10, strategy)
                .expect("query")
                .iter()
                .map(|h| h.id as usize)
                .collect();
            hr += hr_at_k(&ids, &truth[qi], 10);
        }
        println!("  {:<16} HR@10 = {:.3}", strategy.name(), hr / dataset.query.len() as f64);
    }

    // 5. Show one query's results (ids on a fresh build are database
    //    positions, so we can pull the exact distance for context).
    let q = &dataset.query[0];
    println!("\nquery 0 ({} points): nearest database trajectories:", q.len());
    for hit in engine.query(q, 3, Strategy::EuclideanBf).expect("query") {
        let exact = measure.distance(q, &engine.get(hit.id).expect("live id"));
        println!(
            "  #{:<4} embedding distance {:.3}, exact Frechet {:.1} m",
            hit.id, hit.distance, exact
        );
    }

    // 6. The corpus is live: new trajectories are searchable the moment
    //    `insert` returns, removals vanish immediately, and each shard
    //    compacts itself past the configured thresholds.
    let novel = dataset.corpus[0].clone();
    let id = engine.insert(novel.clone());
    let top = engine.query(&novel, 1, Strategy::EuclideanBf).expect("query");
    println!(
        "\ninserted trajectory got id {id}; self-query returns id {} at distance {:.1}",
        top[0].id, top[0].distance
    );
    engine.remove(id).expect("id is live");
    println!("removed it again; live corpus back to {}", engine.len());

    // 7. Snapshots make restarts instant: model parameters, corpus,
    //    embeddings, and codes all reload without re-encoding anything.
    let path = std::env::temp_dir().join("traj2hash-quickstart.snap");
    engine.save_snapshot(&path).expect("save snapshot");
    let t = Instant::now();
    let restored = ShardedEngine::load_snapshot(&path, shards).expect("load snapshot");
    let reload_ms = t.elapsed().as_secs_f64() * 1e3;
    let same = restored.query(q, 3, Strategy::EuclideanBf).expect("query")
        == engine.query(q, 3, Strategy::EuclideanBf).expect("query");
    println!(
        "snapshot reload: {} trajectories in {reload_ms:.1} ms, answers identical: {same}",
        restored.len()
    );
    std::fs::remove_file(&path).ok();

    // 8. Serving from other threads: each shard publishes immutable
    //    generations behind an Arc swap, so any number of reader
    //    threads query lock-free (pin → search → drop) while the writer
    //    inserts, removes, and compacts. `query_many` amortizes query
    //    encoding over a batch; readers and batches answer exactly like
    //    `query`.
    let batch: Vec<_> = dataset.query.iter().take(4).cloned().collect();
    let batched = engine.query_many(&batch, 3, Strategy::Hybrid).expect("batched query");
    let agree = batch
        .iter()
        .zip(&batched)
        .all(|(q, hits)| *hits == engine.query(q, 3, Strategy::Hybrid).expect("query"));
    let from_reader = std::thread::scope(|scope| {
        let spec = engine.reader(); // Send; the model replica is built on the reader thread
        scope
            .spawn(move || {
                let mut reader = spec.into_reader();
                reader.query(&batch[0], 3, Strategy::Hybrid).expect("reader query")
            })
            .join()
            .expect("reader thread")
    });
    println!(
        "batched answers match per-query answers: {agree}; reader-thread answer matches: {}",
        from_reader == batched[0],
    );

    // Write the final counter/gauge/histogram snapshots to the JSONL
    // export (inert when no recorder was installed).
    traj_obs::flush();
}
