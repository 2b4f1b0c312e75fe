//! Integration tests of the baseline methods against the shared protocol
//! and the search stack.

use traj_baselines::{
    train_wmse, Fresh, FreshConfig, GruMetricEncoder, HashHead, HashHeadConfig, TrajEncoder,
    TransformerEncoder, WmseConfig,
};
use traj_data::{CityParams, Dataset, NormStats, SplitSizes};
use traj_dist::{
    auto_theta_sparse, pruned_self_top_k, sparse_similarity, Measure, PrunedTopK, SparseSimilarity,
};
use traj_eval::{ground_truth_top_k, pack_codes, rank_euclidean, rank_hamming, Metrics};
use traj_index::HammingTable;

/// The seeds' similarity supervision with every pair stored, the form
/// `TrainData::prepare` hands the trainers on a corpus this small.
fn seed_similarity(dataset: &Dataset, measure: Measure) -> SparseSimilarity {
    let all_pairs = PrunedTopK::new(dataset.seeds.len()).keeping_distances();
    let sweep = pruned_self_top_k(&dataset.seeds, measure, &all_pairs).expect("seed self-join");
    let d = sweep.distances.expect("keeping_distances() retains them");
    sparse_similarity(&d, auto_theta_sparse(&d, 0.5))
}

fn world() -> Dataset {
    let sizes = SplitSizes { seeds: 24, validation: 10, corpus: 100, query: 10, database: 100 };
    Dataset::generate(CityParams::test_city(), sizes, 17)
}

#[test]
fn wmse_trained_gru_beats_untrained_on_search() {
    let dataset = world();
    let measure = Measure::Dtw;
    let truth = ground_truth_top_k(&dataset.query, &dataset.database, measure, 50)
        .expect("ground truth computation failed");
    let norm = NormStats::fit(&dataset.training_visible());
    let sim = seed_similarity(&dataset, measure);

    let eval = |enc: &dyn TrajEncoder| -> Metrics {
        let db = enc.embed_all(&dataset.database);
        let q = enc.embed_all(&dataset.query);
        Metrics::evaluate(&rank_euclidean(&db, &q, 50), &truth)
    };

    let enc = GruMetricEncoder::plain(16, norm, 3);
    let before = eval(&enc);
    train_wmse(&enc, &dataset.seeds, &sim, &WmseConfig { epochs: 6, ..WmseConfig::default() });
    let after = eval(&enc);
    assert!(
        after.hr10 >= before.hr10,
        "training hurt the GRU baseline: {} -> {}",
        before.hr10,
        after.hr10
    );
    assert!(after.hr10 > 0.0, "trained baseline found nothing");
}

#[test]
fn hash_head_gives_baseline_a_working_hamming_representation() {
    let dataset = world();
    let measure = Measure::Frechet;
    let truth = ground_truth_top_k(&dataset.query, &dataset.database, measure, 50)
        .expect("ground truth computation failed");
    let norm = NormStats::fit(&dataset.training_visible());
    let sim = seed_similarity(&dataset, measure);

    let enc = TransformerEncoder::new(16, 1, 2, norm, 4);
    train_wmse(&enc, &dataset.seeds, &sim, &WmseConfig { epochs: 5, ..WmseConfig::default() });
    let (head, losses) = HashHead::train(
        &enc.embed_all(&dataset.seeds),
        &sim,
        &HashHeadConfig { bits: 16, epochs: 10, ..HashHeadConfig::default() },
    );
    assert!(losses.iter().all(|l| l.is_finite()));

    let db = pack_codes(&head.hash_all(&enc.embed_all(&dataset.database)));
    let q = pack_codes(&head.hash_all(&enc.embed_all(&dataset.query)));
    let m = Metrics::evaluate(&rank_hamming(&db, &q, 50), &truth);
    assert!(m.hr10 > 0.0 && m.hr50 > 0.0, "hash head produced useless codes: {m}");
}

#[test]
fn fresh_codes_work_with_the_hamming_table() {
    let dataset = world();
    let fresh = Fresh::new(FreshConfig {
        resolution: 400.0,
        bits_per_rep: 8,
        ..FreshConfig::default()
    });
    let db_codes = pack_codes(&fresh.hash_all(&dataset.database));
    let table = HammingTable::build(db_codes.clone());
    assert_eq!(table.len(), dataset.database.len());
    // hybrid search returns k results and agrees with brute force
    for q in dataset.query.iter().take(5) {
        let code = traj_index::BinaryCode::from_signs(&fresh.hash_signs(q));
        let hybrid = table.hybrid_top_k(&code, 5).unwrap();
        let bf = traj_index::hamming_top_k(&db_codes, &code, 5);
        assert_eq!(hybrid.len(), 5);
        let hd: Vec<f64> = hybrid.iter().map(|h| h.distance).collect();
        let bd: Vec<f64> = bf.iter().map(|h| h.distance).collect();
        assert_eq!(hd, bd);
    }
}

#[test]
fn fresh_is_deterministic_and_respects_bit_budget() {
    let dataset = world();
    let cfg = FreshConfig { resolution: 500.0, bits_per_rep: 16, repetitions: 4, seed: 5 };
    let a = Fresh::new(cfg.clone());
    let b = Fresh::new(cfg);
    for t in dataset.query.iter().take(5) {
        assert_eq!(a.hash_signs(t), b.hash_signs(t));
        assert_eq!(a.hash_signs(t).len(), 64);
    }
}
