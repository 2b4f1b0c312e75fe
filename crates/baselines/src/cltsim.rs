//! CL-TSim-style baseline: contrastive trajectory representation
//! learning with distort/drop augmentations and an NT-Xent objective.
//!
//! Like t2vec, this method is distance-agnostic: it learns a robust
//! similarity of its own rather than approximating DTW/Fréchet/Hausdorff,
//! which is why the paper finds both at the bottom of Table I.

use crate::encoders::TrajEncoder;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use tinynn::{clip_grad_norm, Adam, GruCell, Linear, ParamSet, Tape, Tensor, Var};
use traj_data::{augment, NormStats, Trajectory};

/// The CL-TSim-style contrastive encoder.
pub struct ClTsimEncoder {
    params: ParamSet,
    input: Linear,
    cell: GruCell,
    norm: NormStats,
    dim: usize,
}

/// Contrastive training configuration (the paper tunes distort/drop rates
/// in `[0, 0.2, 0.4, 0.6]`).
#[derive(Debug, Clone)]
pub struct ClTsimConfig {
    /// Training epochs over the corpus sample.
    pub epochs: usize,
    /// Trajectories per contrastive batch (positives = 1, negatives =
    /// rest of batch).
    pub batch_size: usize,
    /// Distortion rate of each view.
    pub distort_rate: f64,
    /// Distortion noise sigma, meters.
    pub noise_sigma: f64,
    /// Point dropping rate of each view.
    pub drop_rate: f64,
    /// NT-Xent temperature.
    pub temperature: f32,
    /// Adam learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ClTsimConfig {
    fn default() -> Self {
        ClTsimConfig {
            epochs: 5,
            batch_size: 8,
            distort_rate: 0.4,
            noise_sigma: 20.0,
            drop_rate: 0.2,
            temperature: 0.5,
            lr: 1e-3,
            seed: 6,
        }
    }
}

impl ClTsimEncoder {
    /// Builds the encoder.
    pub fn new(dim: usize, norm: NormStats, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let input = Linear::new(&mut rng, &mut params, 2, dim);
        let cell = GruCell::new(&mut rng, &mut params, dim, dim);
        ClTsimEncoder { params, input, cell, norm, dim }
    }

    fn augmented_view(&self, t: &Trajectory, rng: &mut StdRng, cfg: &ClTsimConfig) -> Trajectory {
        let dropped = augment::downsample(t, rng, cfg.drop_rate);
        augment::distort(&dropped, rng, cfg.distort_rate, cfg.noise_sigma)
    }

    /// NT-Xent loss over a batch: two views per trajectory; each view's
    /// positive is its sibling, negatives are all other views in the
    /// batch.
    fn contrastive_loss(&self, _tape: &Tape, views: &[Var], temperature: f32) -> Var {
        let n = views.len();
        debug_assert!(n.is_multiple_of(2) && n >= 4, "need at least two trajectories (four views)");
        // cosine similarities scaled by temperature
        let normalize = |v: &Var| -> Var {
            let norm = v.square().sum_all().add_scalar(1e-8).sqrt();
            // divide row by scalar: multiply by reciprocal via div on
            // broadcast is unavailable; use scale trick through mul of
            // constant is not differentiable w.r.t. norm — so build it
            // with the div op on a widened denominator.
            let (r, c) = v.shape();
            debug_assert_eq!(r, 1);
            let mut wide = norm.clone();
            for _ in 1..c {
                wide = wide.concat_cols(&norm);
            }
            v.div(&wide)
        };
        let normed: Vec<Var> = views.iter().map(normalize).collect();
        let mut loss: Option<Var> = None;
        for i in 0..n {
            let pos = i ^ 1; // sibling view
            let pos_sim = normed[i].dot(&normed[pos]).scale(1.0 / temperature);
            // log-sum-exp over all other views
            let mut exps: Option<Var> = None;
            for (j, nj) in normed.iter().enumerate() {
                if j == i {
                    continue;
                }
                let s = normed[i].dot(nj).scale(1.0 / temperature).exp();
                exps = Some(match exps {
                    None => s,
                    Some(acc) => acc.add(&s),
                });
            }
            #[expect(clippy::unwrap_used, reason = "the j != i loop runs for n >= 2 views")]
            let term = exps.unwrap().ln().sub(&pos_sim);
            loss = Some(match loss {
                None => term,
                Some(acc) => acc.add(&term),
            });
        }
        #[expect(clippy::unwrap_used, reason = "the outer loop pushed one term per view")]
        loss.unwrap().scale(1.0 / n as f32)
    }

    /// Trains on a corpus; returns the mean loss per epoch.
    pub fn train(&self, corpus: &[Trajectory], cfg: &ClTsimConfig) -> Vec<f32> {
        assert!(corpus.len() >= 2, "contrastive training needs at least two trajectories");
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut opt = Adam::new(cfg.lr);
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            let mut order: Vec<usize> = (0..corpus.len()).collect();
            for i in (1..order.len()).rev() {
                let j = rng.random_range(0..=i);
                order.swap(i, j);
            }
            let mut epoch_loss = 0.0;
            let mut batches = 0;
            for batch in order.chunks(cfg.batch_size) {
                if batch.len() < 2 {
                    continue;
                }
                let tape = Tape::new();
                let mut views = Vec::with_capacity(batch.len() * 2);
                for &i in batch {
                    for _ in 0..2 {
                        let view = self.augmented_view(&corpus[i], &mut rng, cfg);
                        views.push(self.embed_var(&tape, &view));
                    }
                }
                let loss = self.contrastive_loss(&tape, &views, cfg.temperature);
                epoch_loss += loss.item();
                batches += 1;
                self.params.zero_grad();
                loss.backward();
                clip_grad_norm(&self.params, 5.0);
                opt.step(&self.params);
            }
            epoch_losses.push(if batches > 0 { epoch_loss / batches as f32 } else { 0.0 });
        }
        epoch_losses
    }
}

impl TrajEncoder for ClTsimEncoder {
    fn embed_var(&self, tape: &Tape, t: &Trajectory) -> Var {
        assert!(!t.is_empty(), "cannot encode an empty trajectory");
        let feats = self.norm.apply(t);
        let x = tape.constant(Tensor::from_vec(t.len(), 2, feats));
        let seq = self.input.forward(tape, &x).relu();
        self.cell.run_final(tape, &seq)
    }

    fn params(&self) -> &ParamSet {
        &self.params
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn name(&self) -> &'static str {
        "CL-TSim"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{CityGenerator, CityParams};

    #[test]
    fn contrastive_training_reduces_loss() {
        let corpus = CityGenerator::new(CityParams::test_city(), 15).generate(24);
        let norm = NormStats::fit(&corpus);
        let enc = ClTsimEncoder::new(8, norm, 1);
        let losses =
            enc.train(&corpus, &ClTsimConfig { epochs: 4, batch_size: 6, ..Default::default() });
        assert_eq!(losses.len(), 4);
        assert!(
            losses.last().unwrap() < losses.first().unwrap(),
            "loss did not decrease: {losses:?}"
        );
    }

    #[test]
    fn views_of_same_trajectory_become_closer_than_random_pairs() {
        let corpus = CityGenerator::new(CityParams::test_city(), 16).generate(20);
        let norm = NormStats::fit(&corpus);
        let enc = ClTsimEncoder::new(8, norm, 2);
        let cfg = ClTsimConfig { epochs: 5, batch_size: 6, ..Default::default() };
        enc.train(&corpus, &cfg);

        let mut rng = StdRng::seed_from_u64(99);
        let cos = |a: &[f32], b: &[f32]| -> f32 {
            let dot: f32 = a.iter().zip(b).map(|(&x, &y)| x * y).sum();
            let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
            let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
            dot / (na * nb + 1e-9)
        };
        let mut view_sim = 0.0;
        let mut cross_sim = 0.0;
        for i in 0..10 {
            let v = enc.embed(&enc.augmented_view(&corpus[i], &mut rng, &cfg));
            let o = enc.embed(&corpus[i]);
            view_sim += cos(&v, &o);
            let other = enc.embed(&corpus[(i + 7) % corpus.len()]);
            cross_sim += cos(&o, &other);
        }
        assert!(
            view_sim > cross_sim,
            "augmented views ({view_sim}) should be closer than random pairs ({cross_sim})"
        );
    }
}
