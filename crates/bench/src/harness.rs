//! Evaluation glue shared by the table/figure binaries.

use traj2hash::Traj2Hash;
use traj_data::{Dataset, Trajectory};
use traj_dist::Measure;
use traj_eval::{
    ground_truth_top_k, pack_codes, pack_codes_from_floats, rank_euclidean, rank_hamming, Metrics,
};

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

/// `(Euclidean, Hamming)` metrics of a Traj2Hash model over the test
/// split from one forward per trajectory: its codes are the signs of
/// the embeddings in hand (Eq. 16), packed by the `x > 0` rule
/// `hash_signs` applies.
pub fn eval_traj2hash(
    model: &Traj2Hash,
    dataset: &Dataset,
    truth: &[Vec<usize>],
) -> (Metrics, Metrics) {
    let db = model.embed_all(&dataset.database);
    let q = model.embed_all(&dataset.query);
    let predicted = rank_hamming(&pack_codes_from_floats(&db), &pack_codes_from_floats(&q), 50);
    (eval_euclidean(&db, &q, truth), Metrics::evaluate(&predicted, truth))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_helpers_score_perfect_self_retrieval() {
        // 60 distinct 16-bit codes; the first 10 are their own queries
        let db_signs: Vec<Vec<i8>> = (0..60u32)
            .map(|i| (0..16).map(|b| if ((i * 37 + 11) >> b) & 1 == 1 { 1 } else { -1 }).collect())
            .collect();
        let truth: Vec<Vec<usize>> = (0..10).map(|i| vec![i]).collect();
        let m = eval_hamming(&db_signs, &db_signs[..10], &truth);
        // each query's nearest code is itself (distance 0), so recall of
        // the single-truth item within top-50 must be perfect
        assert!(m.r10_50 > 0.99, "{m}");
    }
}
