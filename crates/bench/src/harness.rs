//! Evaluation glue shared by the table/figure binaries.

use std::time::Instant;
use traj_data::Trajectory;
use traj_dist::Measure;
use traj_eval::{ground_truth_top_k, pack_codes, rank_euclidean, rank_hamming, Metrics};
use traj_index::{euclidean_top_k, hamming_top_k, BinaryCode, HammingTable};

/// Exact ground truth for the test protocol: each query's true top-50 in
/// the database, via the bucket-pruned exact driver.
pub fn test_ground_truth(
    queries: &[Trajectory],
    database: &[Trajectory],
    measure: Measure,
) -> Vec<Vec<usize>> {
    ground_truth_top_k(queries, database, measure, 50)
        .expect("ground truth computation failed")
}

/// Euclidean-space metrics of a method given its embeddings.
pub fn eval_euclidean(
    db_embeddings: &[Vec<f32>],
    query_embeddings: &[Vec<f32>],
    truth: &[Vec<usize>],
) -> Metrics {
    let predicted = rank_euclidean(db_embeddings, query_embeddings, 50);
    Metrics::evaluate(&predicted, truth)
}

/// Hamming-space metrics of a method given its `+-1` sign codes.
pub fn eval_hamming(
    db_signs: &[Vec<i8>],
    query_signs: &[Vec<i8>],
    truth: &[Vec<usize>],
) -> Metrics {
    let db = pack_codes(db_signs);
    let q = pack_codes(query_signs);
    let predicted = rank_hamming(&db, &q, 50);
    Metrics::evaluate(&predicted, truth)
}

/// Mean seconds per query of the three searching strategies of
/// Section V-E over the given database/queries.
#[derive(Debug, Clone, Copy)]
pub struct SearchTimings {
    /// Euclidean brute force.
    pub euclidean_bf: f64,
    /// Hamming brute force.
    pub hamming_bf: f64,
    /// Hamming table-lookup hybrid.
    pub hamming_hybrid: f64,
}

/// Mean seconds per call of `search` over `queries`.
pub fn mean_query_secs<Q, R>(queries: &[Q], mut search: impl FnMut(&Q) -> R) -> f64 {
    let t = Instant::now();
    for q in queries {
        std::hint::black_box(search(q));
    }
    t.elapsed().as_secs_f64() / queries.len() as f64
}

/// Times the three strategies (Fig. 5 / Fig. 6 measurement core).
/// `k` is the number of results requested.
///
/// Each strategy is timed on the `traj-index` entry point the engine's
/// shards call for it, so these numbers time the real search routines,
/// not a bench-only re-implementation.
pub fn time_search_strategies(
    db_embeddings: &[Vec<f32>],
    db_codes: &[BinaryCode],
    query_embeddings: &[Vec<f32>],
    query_codes: &[BinaryCode],
    k: usize,
) -> SearchTimings {
    assert_eq!(db_embeddings.len(), db_codes.len());
    assert_eq!(query_embeddings.len(), query_codes.len());
    let table = HammingTable::build(db_codes.to_vec());
    SearchTimings {
        euclidean_bf: mean_query_secs(query_embeddings, |q| euclidean_top_k(db_embeddings, q, k)),
        hamming_bf: mean_query_secs(query_codes, |q| hamming_top_k(db_codes, q, k)),
        hamming_hybrid: mean_query_secs(query_codes, |q| {
            table.hybrid_top_k(q, k).expect("query and database codes share a width")
        }),
    }
}

/// Synthetic clustered embeddings/codes for the timing experiments
/// (Fig. 5 and Fig. 6).
///
/// Search latency depends only on the database size, code width, and how
/// clustered the codes are (clustering controls how often the hybrid
/// strategy resolves a query by table lookup) — not on which encoder
/// produced them. To time 20K–100K databases without encoding 100K
/// trajectories through the neural model, we draw codes around cluster
/// centers with a small number of bit flips, mimicking the bucket
/// structure a trained Traj2Hash produces (similar trajectories share
/// most bits). EXPERIMENTS.md documents this substitution next to the
/// figure.
pub struct ClusteredWorkload {
    /// Dense embeddings of the database.
    pub db_embeddings: Vec<Vec<f32>>,
    /// Binary codes of the database.
    pub db_codes: Vec<BinaryCode>,
    /// Dense embeddings of the queries.
    pub query_embeddings: Vec<Vec<f32>>,
    /// Binary codes of the queries.
    pub query_codes: Vec<BinaryCode>,
}

/// Generates a clustered workload.
pub fn clustered_workload(
    n_db: usize,
    n_query: usize,
    bits: usize,
    clusters: usize,
    max_flips: usize,
    seed: u64,
) -> ClusteredWorkload {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<(Vec<i8>, Vec<f32>)> = (0..clusters.max(1))
        .map(|_| {
            let signs: Vec<i8> =
                (0..bits).map(|_| if rng.random::<bool>() { 1 } else { -1 }).collect();
            let emb: Vec<f32> = signs.iter().map(|&s| s as f32 * (0.5 + rng.random::<f32>())).collect();
            (signs, emb)
        })
        .collect();
    let draw = |rng: &mut StdRng| -> (Vec<f32>, BinaryCode) {
        let (signs, emb) = &centers[rng.random_range(0..centers.len())];
        let mut s = signs.clone();
        let flips = rng.random_range(0..=max_flips);
        for _ in 0..flips {
            let i = rng.random_range(0..bits);
            s[i] = -s[i];
        }
        let e: Vec<f32> = emb
            .iter()
            .zip(&s)
            .map(|(&c, &sg)| {
                let base = if (c > 0.0) == (sg > 0) { c } else { -c };
                base + 0.1 * (rng.random::<f32>() - 0.5)
            })
            .collect();
        (e, BinaryCode::from_signs(&s))
    };
    let mut db_embeddings = Vec::with_capacity(n_db);
    let mut db_codes = Vec::with_capacity(n_db);
    for _ in 0..n_db {
        let (e, c) = draw(&mut rng);
        db_embeddings.push(e);
        db_codes.push(c);
    }
    let mut query_embeddings = Vec::with_capacity(n_query);
    let mut query_codes = Vec::with_capacity(n_query);
    for _ in 0..n_query {
        let (e, c) = draw(&mut rng);
        query_embeddings.push(e);
        query_codes.push(c);
    }
    ClusteredWorkload { db_embeddings, db_codes, query_embeddings, query_codes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_workload_shapes_and_determinism() {
        let a = clustered_workload(200, 10, 32, 5, 2, 9);
        assert_eq!(a.db_codes.len(), 200);
        assert_eq!(a.query_codes.len(), 10);
        assert_eq!(a.db_embeddings[0].len(), 32);
        assert_eq!(a.db_codes[0].len(), 32);
        let b = clustered_workload(200, 10, 32, 5, 2, 9);
        assert_eq!(a.db_codes, b.db_codes);
    }

    #[test]
    fn clustered_workload_is_actually_clustered() {
        // With few centers and <=2 flips, many codes collide or nearly
        // collide — the property that makes the hybrid strategy resolve
        // queries by table lookup.
        let w = clustered_workload(500, 1, 32, 5, 1, 4);
        let within_2 = w
            .db_codes
            .iter()
            .filter(|c| c.hamming(&w.query_codes[0]) <= 2)
            .count();
        assert!(within_2 >= 20, "only {within_2} codes near the query");
    }

    #[test]
    fn timing_helper_returns_positive_times() {
        let w = clustered_workload(500, 4, 16, 3, 2, 5);
        let t = time_search_strategies(
            &w.db_embeddings,
            &w.db_codes,
            &w.query_embeddings,
            &w.query_codes,
            5,
        );
        assert!(t.euclidean_bf > 0.0 && t.hamming_bf > 0.0 && t.hamming_hybrid > 0.0);
    }

    #[test]
    fn eval_helpers_score_perfect_self_retrieval() {
        let w = clustered_workload(60, 0, 16, 60, 0, 6);
        // use db as its own query set: truth is identity at rank 0
        let truth: Vec<Vec<usize>> = (0..10).map(|i| vec![i]).collect();
        let signs: Vec<Vec<i8>> = w.db_codes[..10].iter().map(|c| c.to_signs()).collect();
        let db_signs: Vec<Vec<i8>> = w.db_codes.iter().map(|c| c.to_signs()).collect();
        let m = eval_hamming(&db_signs, &signs, &truth);
        // each query's nearest code is itself (distance 0), so recall of
        // the single-truth item within top-50 must be perfect
        assert!(m.r10_50 > 0.99, "{m}");
    }
}
