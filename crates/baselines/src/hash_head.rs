//! The trainable linear hash head the paper bolts onto every dense
//! baseline for the Hamming-space comparison (Section V-A3): "we leverage
//! the proposed ranking-based hashing objective with an extra trainable
//! linear layer to convert the dense vectors from baselines into hash
//! codes".

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tinynn::{clip_grad_norm, Adam, Linear, ParamSet, Tape, Tensor, Var};
use traj_dist::SparseSimilarity;
use traj2hash::loss::{rank_pairs, ranking_hash_loss, sample_companions_sparse};

/// Configuration of the hash-head training.
#[derive(Debug, Clone)]
pub struct HashHeadConfig {
    /// Output bits.
    pub bits: usize,
    /// Ranking margin `alpha` (same as Eq. 18).
    pub alpha: f32,
    /// Companions per anchor.
    pub samples_per_anchor: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Anchor batch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Initial tanh relaxation scale, annealed like the main model.
    pub beta0: f32,
    /// Additive beta increase per epoch.
    pub beta_step: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for HashHeadConfig {
    fn default() -> Self {
        HashHeadConfig {
            bits: 64,
            alpha: 5.0,
            samples_per_anchor: 10,
            epochs: 15,
            batch_size: 20,
            lr: 1e-2,
            beta0: 1.0,
            beta_step: 0.5,
            seed: 9,
        }
    }
}

/// A trained linear layer mapping dense embeddings to hash codes.
pub struct HashHead {
    params: ParamSet,
    linear: Linear,
}

impl HashHead {
    /// Trains a head on seed embeddings against the similarity
    /// supervision matrix; returns the head and its per-epoch losses.
    pub fn train(
        seed_embeddings: &[Vec<f32>],
        sim: &SparseSimilarity,
        cfg: &HashHeadConfig,
    ) -> (HashHead, Vec<f32>) {
        assert_eq!(seed_embeddings.len(), sim.n());
        assert!(!seed_embeddings.is_empty());
        let in_dim = seed_embeddings[0].len();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut params = ParamSet::new();
        let linear = Linear::new(&mut rng, &mut params, in_dim, cfg.bits);
        let mut opt = Adam::new(cfg.lr);
        let n = seed_embeddings.len();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for epoch in 0..cfg.epochs {
            let beta = cfg.beta0 + cfg.beta_step * epoch as f32;
            let mut order: Vec<usize> = (0..n).collect();
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for batch in order.chunks(cfg.batch_size) {
                let tape = Tape::new();
                let code = |idx: usize| -> Var {
                    let v = tape.constant(Tensor::row_vector(&seed_embeddings[idx]));
                    linear.forward(&tape, &v).scale(beta).tanh()
                };
                let mut loss: Option<Var> = None;
                for &i in batch {
                    let companions =
                        sample_companions_sparse(i, sim, cfg.samples_per_anchor, &mut rng);
                    if companions.len() < 2 {
                        continue;
                    }
                    let z_i = code(i);
                    for (p, q) in rank_pairs(&companions) {
                        let term = ranking_hash_loss(&z_i, &code(p), &code(q), cfg.alpha);
                        loss = Some(match loss {
                            None => term,
                            Some(acc) => acc.add(&term),
                        });
                    }
                }
                if let Some(loss) = loss {
                    let loss = loss.scale(1.0 / batch.len() as f32);
                    epoch_loss += loss.item();
                    batches += 1;
                    params.zero_grad();
                    loss.backward();
                    clip_grad_norm(&params, 5.0);
                    opt.step(&params);
                }
            }
            epoch_losses.push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
        }
        (HashHead { params, linear }, epoch_losses)
    }

    /// Hashes a dense embedding to a `+-1` sign vector.
    pub fn hash_signs(&self, embedding: &[f32]) -> Vec<i8> {
        let tape = Tape::new();
        let v = tape.constant(Tensor::row_vector(embedding));
        self.linear
            .forward(&tape, &v)
            .value()
            .data()
            .iter()
            .map(|&x| if x > 0.0 { 1 } else { -1 })
            .collect()
    }

    /// Batch hashing.
    pub fn hash_all(&self, embeddings: &[Vec<f32>]) -> Vec<Vec<i8>> {
        embeddings.iter().map(|e| self.hash_signs(e)).collect()
    }

    /// The head's parameters (exposed for tests).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::Trajectory;
    use traj_dist::{pruned_self_top_k, sparse_similarity, Measure, PrunedTopK};

    /// A toy setting: embeddings on a line; similarity = closeness.
    fn toy() -> (Vec<Vec<f32>>, SparseSimilarity) {
        let n = 30;
        let embeddings: Vec<Vec<f32>> =
            (0..n).map(|i| vec![i as f32 / n as f32, 1.0 - i as f32 / n as f32]).collect();
        // Parallel segments 100 m apart: the Hausdorff distance of i and
        // j is 100·|i − j|, which θ maps to exp(−3·|i − j| / n).
        let trajs: Vec<Trajectory> = (0..n)
            .map(|i| Trajectory::from_xy(&[(100.0 * i as f64, 0.0), (100.0 * i as f64, 50.0)]))
            .collect();
        let all_pairs = PrunedTopK::new(n).keeping_distances();
        let d = pruned_self_top_k(&trajs, Measure::Hausdorff, &all_pairs).unwrap().distances.unwrap();
        (embeddings, sparse_similarity(&d, 3.0 / (100.0 * n as f64)))
    }

    #[test]
    fn training_reduces_ranking_loss() {
        let (embeddings, sim) = toy();
        let cfg = HashHeadConfig { bits: 16, epochs: 10, ..Default::default() };
        let (_, losses) = HashHead::train(&embeddings, &sim, &cfg);
        assert!(
            losses.last().unwrap() <= losses.first().unwrap(),
            "loss did not decrease: {losses:?}"
        );
    }

    #[test]
    fn trained_head_preserves_neighbourhoods_in_hamming_space() {
        let (embeddings, sim) = toy();
        let cfg = HashHeadConfig { bits: 16, epochs: 20, ..Default::default() };
        let (head, _) = HashHead::train(&embeddings, &sim, &cfg);
        let codes = head.hash_all(&embeddings);
        let hamming = |a: &[i8], b: &[i8]| -> usize {
            a.iter().zip(b).filter(|(x, y)| x != y).count()
        };
        // neighbours (i, i+1) should on average be closer in Hamming
        // space than far pairs (i, i+15)
        let mut near = 0usize;
        let mut far = 0usize;
        for i in 0..14 {
            near += hamming(&codes[i], &codes[i + 1]);
            far += hamming(&codes[i], &codes[i + 15]);
        }
        assert!(near < far, "near {near} vs far {far}");
    }

    #[test]
    fn codes_have_requested_width() {
        let (embeddings, sim) = toy();
        let cfg = HashHeadConfig { bits: 24, epochs: 2, ..Default::default() };
        let (head, _) = HashHead::train(&embeddings, &sim, &cfg);
        assert_eq!(head.hash_signs(&embeddings[0]).len(), 24);
    }
}
