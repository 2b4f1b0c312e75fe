//! Training objectives (Section IV-F): the weighted mean squared error on
//! seed similarities (Eq. 17) and the ranking-based hashing objective
//! (Eq. 18–20).

use rand::rngs::StdRng;
use rand::RngExt;
use tinynn::{Tape, Var};
use traj_dist::SparseSimilarity;

/// The model's similarity approximation
/// `g(T_i, T_j) = exp(-Euclidean(h_f^i, h_f^j))` as a tape variable.
pub fn approx_similarity(e_i: &Var, e_j: &Var) -> Var {
    e_i.distance(e_j).neg().exp()
}

/// One WMSE term `r_j * (g - s)^2` (summand of Eq. 17).
pub fn wmse_term(tape: &Tape, g: &Var, s: f64, weight: f32) -> Var {
    #[expect(clippy::cast_possible_truncation, reason = "the model computes in f32")]
    let target = tape.constant(tinynn::Tensor::scalar(s as f32));
    g.sub(&target).square().scale(weight).sum_all()
}

/// Ranking weights `r_j` by sample rank (NeuTraj-style): the j-th most
/// similar sample gets weight proportional to `m - rank`, normalized to
/// sum to 1. More similar samples therefore dominate the loss, matching
/// the "sample weight computed according to the ranking order" of Eq. 17.
pub fn rank_weights(m: usize) -> Vec<f32> {
    if m == 0 {
        return Vec::new();
    }
    let total: f32 = (1..=m).map(|k| k as f32).sum();
    (0..m).map(|rank| (m - rank) as f32 / total).collect()
}

/// The ranking hinge on relaxed codes, inner-product form (Eq. 19–20):
/// `[ -z_a . z_p + z_a . z_n + alpha ]_+`.
pub fn ranking_hash_loss(z_a: &Var, z_p: &Var, z_n: &Var, alpha: f32) -> Var {
    let pos = z_a.dot(z_p);
    let neg = z_a.dot(z_n);
    neg.sub(&pos).add_scalar(alpha).relu()
}

/// Samples `m` companion indices for anchor `i` out of `n` candidates:
/// the `m/2` most similar (by the supervision row `sim_row`) plus `m/2`
/// uniform random others — NeuTraj's sampling scheme, which the paper
/// follows. Returns indices sorted by descending similarity so that
/// [`rank_weights`] and the pairing of Eq. 18 can be applied directly.
pub fn sample_companions(
    i: usize,
    sim_row: &[f64],
    m: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    let n = sim_row.len();
    assert!(n >= 2, "need at least two trajectories to sample companions");
    let m = m.min(n - 1);
    let mut order: Vec<usize> = (0..n).filter(|&j| j != i).collect();
    order.sort_by(by_similarity_desc(sim_row));
    let nearest = m / 2;
    let mut chosen: Vec<usize> = order[..nearest].to_vec();
    // random fill from the remainder
    let rest = &order[nearest..];
    let mut picked = std::collections::HashSet::new();
    while chosen.len() < m && picked.len() < rest.len() {
        let r = rng.random_range(0..rest.len());
        if picked.insert(r) {
            chosen.push(rest[r]);
        }
    }
    chosen.sort_by(by_similarity_desc(sim_row));
    chosen
}

/// [`sample_companions`] over the sparse supervision structure: the
/// anchor's row is materialized — exact stored similarities plus the
/// per-row pruning floor for every unstored pair — and fed through the
/// same sampling logic. The anchor's true `k` nearest neighbours are
/// always stored with similarity at least the floor, so the "most
/// similar" half of the sample is exact whenever `supervision_k`
/// covers it; and a fully-stored row draws the bit-identical companion
/// sequence the dense path would.
pub fn sample_companions_sparse(
    i: usize,
    sim: &SparseSimilarity,
    m: usize,
    rng: &mut StdRng,
) -> Vec<usize> {
    sample_companions(i, &sim.dense_row(i), m, rng)
}

/// Descending-similarity comparator with explicit NaN policy: a NaN
/// similarity sorts *last* (least similar) instead of wherever a failed
/// `partial_cmp` happened to leave it — a naive `total_cmp` descending
/// sort would rank positive NaN as the *most* similar companion. Ties
/// break on ascending index so companion order is deterministic.
fn by_similarity_desc(sim_row: &[f64]) -> impl Fn(&usize, &usize) -> std::cmp::Ordering + '_ {
    move |&a, &b| match (sim_row[a].is_nan(), sim_row[b].is_nan()) {
        (true, true) => a.cmp(&b),
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => sim_row[b].total_cmp(&sim_row[a]).then(a.cmp(&b)),
    }
}

/// Groups a similarity-sorted companion list into `(positive, negative)`
/// pairs for the ranking objective of Eq. 18: the k-th most similar is
/// paired with the k-th least similar.
pub fn rank_pairs(sorted: &[usize]) -> Vec<(usize, usize)> {
    let m = sorted.len();
    (0..m / 2).map(|k| (sorted[k], sorted[m - 1 - k])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tinynn::Tensor;

    #[test]
    fn approx_similarity_is_one_for_identical() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::row_vector(&[1.0, 2.0]));
        let s = approx_similarity(&a, &a);
        assert!((s.item() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn approx_similarity_decreases_with_distance() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::row_vector(&[0.0, 0.0]));
        let near = tape.constant(Tensor::row_vector(&[0.1, 0.0]));
        let far = tape.constant(Tensor::row_vector(&[5.0, 0.0]));
        assert!(approx_similarity(&a, &near).item() > approx_similarity(&a, &far).item());
    }

    #[test]
    fn rank_weights_sum_to_one_and_decrease() {
        let w = rank_weights(10);
        assert_eq!(w.len(), 10);
        assert!((w.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        for k in 1..10 {
            assert!(w[k - 1] > w[k]);
        }
        assert!(rank_weights(0).is_empty());
    }

    #[test]
    fn ranking_loss_zero_when_margin_satisfied() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::row_vector(&[1.0, 1.0, 1.0, 1.0]));
        let p = tape.constant(Tensor::row_vector(&[1.0, 1.0, 1.0, 1.0]));
        let n = tape.constant(Tensor::row_vector(&[-1.0, -1.0, -1.0, -1.0]));
        // -4 + (-4) + alpha with alpha = 5 => -3 => clamped to 0
        let l = ranking_hash_loss(&a, &p, &n, 5.0);
        assert_eq!(l.item(), 0.0);
        // with alpha = 9 the hinge activates: -4 - 4 + 9 = 1
        let l2 = ranking_hash_loss(&a, &p, &n, 9.0);
        assert!((l2.item() - 1.0).abs() < 1e-5);
    }

    #[test]
    fn ranking_loss_penalizes_wrong_order() {
        let tape = Tape::new();
        let a = tape.constant(Tensor::row_vector(&[1.0, 1.0]));
        let p = tape.constant(Tensor::row_vector(&[-1.0, -1.0]));
        let n = tape.constant(Tensor::row_vector(&[1.0, 1.0]));
        // -(-2) + 2 + 0 = 4
        let l = ranking_hash_loss(&a, &p, &n, 0.0);
        assert!((l.item() - 4.0).abs() < 1e-5);
    }

    #[test]
    fn sample_companions_includes_nearest() {
        let mut rng = StdRng::seed_from_u64(1);
        // anchor 0; candidate 3 is the most similar
        let sim = vec![1.0, 0.2, 0.5, 0.9, 0.1, 0.3];
        let c = sample_companions(0, &sim, 4, &mut rng);
        assert_eq!(c.len(), 4);
        assert!(c.contains(&3), "nearest neighbour must be sampled");
        assert!(c.contains(&2), "second nearest must be sampled (m/2 = 2)");
        assert!(!c.contains(&0), "anchor must not sample itself");
        // sorted by descending similarity
        for w in c.windows(2) {
            assert!(sim[w[0]] >= sim[w[1]]);
        }
    }

    #[test]
    fn sparse_sampling_matches_dense_when_fully_stored() {
        use traj_data::{CityGenerator, CityParams};
        use traj_dist::{pruned_self_top_k, sparse_similarity, Measure, PrunedTopK};
        let trajs = CityGenerator::new(CityParams::test_city(), 11).generate(12);
        let n = trajs.len();
        let cfg = PrunedTopK::new(n - 1).keeping_distances();
        let sd = pruned_self_top_k(&trajs, Measure::Dtw, &cfg).unwrap().distances.unwrap();
        // Dense reference: every distance (upper triangle, mirrored),
        // theta from their median, similarity exp(-theta * d).
        let mut dense_d = vec![vec![0.0f64; n]; n];
        let mut upper = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                dense_d[i][j] = Measure::Dtw.distance(&trajs[i], &trajs[j]);
                dense_d[j][i] = dense_d[i][j];
                upper.push(dense_d[i][j]);
            }
        }
        upper.sort_by(f64::total_cmp);
        let theta = -0.5f64.ln() / upper[upper.len() / 2].max(1e-9);
        let sparse = sparse_similarity(&sd, theta);
        for (i, row) in dense_d.iter().enumerate() {
            let dense: Vec<f64> = row.iter().map(|&d| (-theta * d).exp()).collect();
            let mut r1 = StdRng::seed_from_u64(9 + i as u64);
            let mut r2 = StdRng::seed_from_u64(9 + i as u64);
            assert_eq!(
                sample_companions_sparse(i, &sparse, 6, &mut r1),
                sample_companions(i, &dense, 6, &mut r2),
                "anchor {i} sampled differently through the sparse row"
            );
        }
    }

    #[test]
    fn sparse_sampling_takes_nearest_half_from_stored_pairs() {
        use traj_data::{CityGenerator, CityParams};
        use traj_dist::{
            auto_theta_sparse, pruned_self_top_k, sparse_similarity, Measure, PrunedTopK,
        };
        let trajs = CityGenerator::new(CityParams::test_city(), 13).generate(60);
        let cfg = PrunedTopK::new(8).keeping_distances();
        let sd = pruned_self_top_k(&trajs, Measure::Hausdorff, &cfg).unwrap().distances.unwrap();
        let sparse = sparse_similarity(&sd, auto_theta_sparse(&sd, 0.5));
        let mut rng = StdRng::seed_from_u64(3);
        for i in 0..trajs.len() {
            let c = sample_companions_sparse(i, &sparse, 6, &mut rng);
            assert_eq!(c.len(), 6);
            let (cols, _) = sparse.row(i);
            // the 8 true nearest neighbours are all stored, so the exact
            // half of the sample (m/2 = 3 most similar) must come from
            // the stored row, never from a floor-valued pruned pair
            for &j in &c[..3] {
                assert!(cols.contains(&j), "anchor {i}: near companion {j} is not stored");
            }
        }
    }

    #[test]
    fn rank_pairs_pair_extremes() {
        let sorted = vec![10, 11, 12, 13];
        let pairs = rank_pairs(&sorted);
        assert_eq!(pairs, vec![(10, 13), (11, 12)]);
    }

    #[test]
    fn wmse_term_value() {
        let tape = Tape::new();
        let g = tape.constant(Tensor::scalar(0.8));
        let l = wmse_term(&tape, &g, 0.5, 2.0);
        assert!((l.item() - 2.0 * 0.09).abs() < 1e-5);
    }
}
