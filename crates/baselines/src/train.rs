//! Shared metric-learning trainer for dense baselines: the same WMSE
//! objective (Eq. 17) Traj2Hash uses, without the hashing losses — this
//! is how NeuTraj, NT-No-SAM, Transformer, and TrajGAT are trained in the
//! paper's protocol (all share the seed supervision for fairness).

use crate::encoders::TrajEncoder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use tinynn::{clip_grad_norm, Adam, Tape, Var};
use traj_data::Trajectory;
use traj_dist::SparseSimilarity;
use traj2hash::loss::{approx_similarity, rank_weights, sample_companions_sparse, wmse_term};

/// Configuration of the baseline WMSE training loop.
#[derive(Debug, Clone)]
pub struct WmseConfig {
    /// Training epochs.
    pub epochs: usize,
    /// Anchor batch size.
    pub batch_size: usize,
    /// Companions per anchor `M`.
    pub samples_per_anchor: usize,
    /// Adam learning rate.
    pub lr: f32,
    /// Gradient clipping threshold.
    pub clip_norm: f32,
    /// Sampling seed.
    pub seed: u64,
}

impl Default for WmseConfig {
    fn default() -> Self {
        WmseConfig {
            epochs: 12,
            batch_size: 20,
            samples_per_anchor: 10,
            lr: 1e-3,
            clip_norm: 5.0,
            seed: 3,
        }
    }
}

/// Trains any dense encoder with the WMSE objective against the seed
/// similarity matrix. Returns the mean loss per epoch.
pub fn train_wmse(
    encoder: &dyn TrajEncoder,
    seeds: &[Trajectory],
    sim: &SparseSimilarity,
    cfg: &WmseConfig,
) -> Vec<f32> {
    assert_eq!(seeds.len(), sim.n(), "similarity matrix must cover the seeds");
    assert!(seeds.len() >= 2, "need at least two seeds");
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut opt = Adam::new(cfg.lr);
    let mut epoch_losses = Vec::with_capacity(cfg.epochs);
    for _ in 0..cfg.epochs {
        let mut anchors: Vec<usize> = (0..seeds.len()).collect();
        for i in (1..anchors.len()).rev() {
            let j = rng.random_range(0..=i);
            anchors.swap(i, j);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0;
        for batch in anchors.chunks(cfg.batch_size) {
            let tape = Tape::new();
            let mut cache: HashMap<usize, Var> = HashMap::new();
            let embed = |idx: usize, cache: &mut HashMap<usize, Var>| -> Var {
                cache
                    .entry(idx)
                    .or_insert_with(|| encoder.embed_var(&tape, &seeds[idx]))
                    .clone()
            };
            let mut loss: Option<Var> = None;
            for &i in batch {
                let companions =
                    sample_companions_sparse(i, sim, cfg.samples_per_anchor, &mut rng);
                if companions.is_empty() {
                    continue;
                }
                let weights = rank_weights(companions.len());
                let e_i = embed(i, &mut cache);
                for (rank, &j) in companions.iter().enumerate() {
                    let e_j = embed(j, &mut cache);
                    let g = approx_similarity(&e_i, &e_j);
                    let term = wmse_term(&tape, &g, sim.get(i, j), weights[rank]);
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
                encoder.params().zero_grad();
                loss.backward();
                clip_grad_norm(encoder.params(), cfg.clip_norm);
                opt.step(encoder.params());
            }
        }
        epoch_losses.push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
    }
    epoch_losses
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoders::GruMetricEncoder;
    use traj_data::{CityGenerator, CityParams, NormStats};
    use traj_dist::{auto_theta_sparse, pruned_self_top_k, sparse_similarity, Measure, PrunedTopK};

    #[test]
    fn wmse_training_reduces_loss() {
        let seeds = CityGenerator::new(CityParams::test_city(), 11).generate(16);
        let norm = NormStats::fit(&seeds);
        let enc = GruMetricEncoder::plain(8, norm, 1);
        let all_pairs = PrunedTopK::new(seeds.len()).keeping_distances();
        let d = pruned_self_top_k(&seeds, Measure::Dtw, &all_pairs).unwrap().distances.unwrap();
        let s = sparse_similarity(&d, auto_theta_sparse(&d, 0.5));
        let losses = train_wmse(&enc, &seeds, &s, &WmseConfig { epochs: 5, ..Default::default() });
        assert_eq!(losses.len(), 5);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not decrease: {losses:?}"
        );
    }
}
