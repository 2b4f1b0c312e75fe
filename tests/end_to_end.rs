//! End-to-end integration tests: the full pipeline from synthetic data
//! through training to top-k search, spanning every crate.

use traj_data::{CityParams, Dataset, SplitSizes};
use traj_dist::Measure;
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};
use traj_eval::{ground_truth_top_k, pack_codes, rank_hamming, Metrics};
use traj2hash::{train, ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData};

fn tiny_world() -> (Dataset, ModelContext, TrainConfig) {
    let sizes = SplitSizes { seeds: 24, validation: 30, corpus: 250, query: 12, database: 120 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 5);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 5);
    let tcfg = TrainConfig {
        epochs: 4,
        coarse_cell_m: 500.0,
        triplets_per_epoch: 64,
        triplet_batch: 32,
        validate: false,
        ..TrainConfig::default()
    };
    (dataset, ctx, tcfg)
}

/// Ranks every query through the serving engine (the trainer keeps the
/// model; ids on a fresh build are database positions).
fn strategy_metrics(
    model: &Traj2Hash,
    dataset: &Dataset,
    truth: &[Vec<usize>],
    strategy: Strategy,
) -> Metrics {
    let engine = ShardedEngine::build_from(
        model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig::default(),
    )
    .expect("engine build");
    let ranked: Vec<Vec<usize>> = dataset
        .query
        .iter()
        .map(|q| {
            engine
                .query(q, 50, strategy)
                .expect("engine query")
                .into_iter()
                .map(|h| h.id as usize)
                .collect()
        })
        .collect();
    Metrics::evaluate(&ranked, truth)
}

fn euclidean_metrics(model: &Traj2Hash, dataset: &Dataset, truth: &[Vec<usize>]) -> Metrics {
    strategy_metrics(model, dataset, truth, Strategy::EuclideanBf)
}

fn hamming_metrics(model: &Traj2Hash, dataset: &Dataset, truth: &[Vec<usize>]) -> Metrics {
    strategy_metrics(model, dataset, truth, Strategy::HammingBf)
}

#[test]
fn training_improves_over_untrained_in_both_spaces() {
    let (dataset, ctx, tcfg) = tiny_world();
    let measure = Measure::Frechet;
    let truth = ground_truth_top_k(&dataset.query, &dataset.database, measure, 50)
        .expect("ground truth computation failed");
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 6);

    let before_e = euclidean_metrics(&model, &dataset, &truth);
    let before_h = hamming_metrics(&model, &dataset, &truth);

    let data = TrainData::prepare(&dataset, measure, &tcfg).expect("failed to prepare training supervision");
    assert!(!data.triplets.is_empty(), "triplet generation found no clusters");
    train(&mut model, &data, &tcfg).expect("training failed");

    let after_e = euclidean_metrics(&model, &dataset, &truth);
    let after_h = hamming_metrics(&model, &dataset, &truth);

    // The untrained model already scores well in Euclidean space on this
    // tiny world (the frozen pre-trained grid embeddings alone encode
    // location), so we require no material regression there and a strict
    // improvement where training matters most: the Hamming codes, which
    // are uninformative until the ranking objectives structure them.
    assert!(
        after_e.hr10 >= before_e.hr10 - 0.05,
        "Euclidean HR@10 regressed materially: {} -> {}",
        before_e.hr10,
        after_e.hr10
    );
    assert!(
        after_h.hr10 > before_h.hr10,
        "Hamming HR@10 did not improve: {} -> {}",
        before_h.hr10,
        after_h.hr10
    );
    assert!(
        after_h.r10_50 > before_h.r10_50,
        "Hamming R10@50 did not improve: {} -> {}",
        before_h.r10_50,
        after_h.r10_50
    );
}

#[test]
fn trained_model_keeps_reverse_symmetry() {
    let (dataset, ctx, tcfg) = tiny_world();
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 7);
    let data = TrainData::prepare(&dataset, Measure::Dtw, &tcfg).expect("failed to prepare training supervision");
    train(&mut model, &data, &tcfg).expect("training failed");
    // Lemma 3 is structural: it must survive training.
    for i in 0..4 {
        let a = &dataset.query[i];
        let b = &dataset.query[i + 1];
        let fwd = model.approx_distance(a, b);
        let rev = model.approx_distance(&a.reversed(), &b.reversed());
        assert!(
            (fwd - rev).abs() < 1e-3,
            "reverse symmetry broken after training: {fwd} vs {rev}"
        );
    }
}

#[test]
fn model_roundtrips_through_save_load() {
    let (dataset, ctx, tcfg) = tiny_world();
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 8);
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).expect("failed to prepare training supervision");
    train(&mut model, &data, &tcfg).expect("training failed");
    let blob = model.save_bytes();

    let clone = Traj2Hash::new(ModelConfig::tiny(), &ctx, 12345);
    clone.load_bytes(&blob).expect("load must succeed for identical architecture");
    for t in dataset.query.iter().take(3) {
        assert_eq!(model.hash_signs(t), clone.hash_signs(t));
        assert!(model.embed(t).max_abs_diff(&clone.embed(t)) < 1e-6);
    }
}

#[test]
fn hash_codes_beat_random_codes() {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let (dataset, ctx, tcfg) = tiny_world();
    let measure = Measure::Frechet;
    let truth = ground_truth_top_k(&dataset.query, &dataset.database, measure, 50)
        .expect("ground truth computation failed");
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 9);
    let data = TrainData::prepare(&dataset, measure, &tcfg).expect("failed to prepare training supervision");
    train(&mut model, &data, &tcfg).expect("training failed");
    let trained = hamming_metrics(&model, &dataset, &truth);

    let mut rng = StdRng::seed_from_u64(1);
    let bits = model.embedding_dim();
    let mut random_code = |_: usize| -> Vec<i8> {
        (0..bits).map(|_| if rng.random::<bool>() { 1 } else { -1 }).collect()
    };
    let db: Vec<Vec<i8>> = (0..dataset.database.len()).map(&mut random_code).collect();
    let q: Vec<Vec<i8>> = (0..dataset.query.len()).map(&mut random_code).collect();
    let random = Metrics::evaluate(
        &rank_hamming(&pack_codes(&db), &pack_codes(&q), 50),
        &truth,
    );
    assert!(
        trained.hr10 > random.hr10 + 0.05,
        "trained codes ({}) should clearly beat random codes ({})",
        trained.hr10,
        random.hr10
    );
}

#[test]
fn validation_model_selection_restores_best_epoch() {
    let (dataset, ctx, mut tcfg) = tiny_world();
    tcfg.validate = true;
    tcfg.epochs = 3;
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 10);
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).expect("failed to prepare training supervision");
    let report = train(&mut model, &data, &tcfg).expect("training failed");
    assert_eq!(report.val_hr10.len(), 3);
    let best = report.val_hr10[report.best_epoch];
    for &v in &report.val_hr10 {
        assert!(best >= v, "best epoch is not the max: {:?}", report.val_hr10);
    }
    // restored parameters reproduce the recorded best HR@10
    let recomputed = traj2hash::validation_hr10(&model, &data);
    assert!((recomputed - best).abs() < 1e-9);
}

/// The figure program (`fig5` / `fig6` / `ext_indexes`) at `tiny`: every
/// strategy answers at every size, the exact strategies agree query by
/// query, and the candidates column counts work done, not answer size.
#[test]
fn search_bed_rows_agree_across_strategies_and_count_work() {
    use traj_bench::{Pass, Scale, SearchBed};
    use traj_engine::EuclideanBackend;

    fn distances(pass: &Pass) -> Vec<Vec<f64>> {
        pass.answers.iter().map(|(hits, _)| hits.iter().map(|h| h.distance).collect()).collect()
    }
    fn candidates(pass: &Pass) -> Vec<usize> {
        pass.answers.iter().map(|(_, info)| info.candidates).collect()
    }

    let k = 10;
    let mut bed = SearchBed::train(&Scale::tiny(), 42);
    for paper_rows in [20_000, 100_000] {
        let engine = bed.engine(paper_rows, EuclideanBackend::BruteForce);
        let rows = engine.len();
        assert_eq!(rows, paper_rows / 100);
        let [euclid, scan, table, mih, hybrid] =
            Strategy::ALL.map(|strategy| bed.measure(&engine, strategy, k));
        for pass in [&euclid, &scan, &table, &mih, &hybrid] {
            assert_eq!(pass.answers.len(), traj_bench::searchbed::QUERIES);
            assert_eq!(pass.cells().len(), Pass::COLUMNS.len());
            assert_eq!(pass.fallbacks(), 0);
        }
        assert_eq!(distances(&mih), distances(&scan), "MIH is exact");
        // a spilled Hybrid is the scan; an un-spilled one holds >= k rows
        // within radius 2, which are the scan's top-k
        assert_eq!(distances(&hybrid), distances(&scan), "Hybrid is exact");
        assert_eq!((scan.short(), mih.short(), hybrid.short()), (0, 0, 0));
        // spills are summed from the answers: only Hybrid has any, and
        // the engine counted them twice, warm-up and measured pass
        assert_eq!([&euclid, &scan, &table, &mih].map(Pass::spills), [0; 4]);
        assert_eq!(engine.telemetry().hybrid_spills, 2 * hybrid.spills() as u64);

        assert!(candidates(&scan).iter().all(|&c| c == rows));
        assert!(candidates(&table).iter().all(|&c| c <= rows));
        // evaluations spent, not the size of the answer
        assert!(candidates(&mih).iter().all(|&c| (k..=rows).contains(&c)));
        assert!(candidates(&mih).iter().any(|&c| c > k), "MIH never probes exactly k rows");

        let vp_engine = bed.engine(paper_rows, EuclideanBackend::VpTree);
        let vp = bed.measure(&vp_engine, Strategy::EuclideanBf, k);
        assert_eq!(distances(&vp), distances(&euclid), "the VP-tree is exact");
        assert!(candidates(&euclid).iter().all(|&c| c == rows));
        assert!(candidates(&vp).iter().all(|&c| (k..rows).contains(&c)), "the VP-tree prunes");
    }
}
