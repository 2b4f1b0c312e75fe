//! Method registry: construct and train each comparison method under the
//! shared protocol (same seeds, same supervision, same latent width).

use crate::scale::Scale;
use traj_baselines::{
    train_wmse, ClTsimConfig, ClTsimEncoder, GruMetricEncoder, T2vecConfig, T2vecEncoder,
    TrajEncoder, TrajGatEncoder, TransformerEncoder, WmseConfig,
};
use traj_data::Dataset;
use traj2hash::{ModelContext, Traj2Hash, TrainData, TrainReport};

/// The dense baselines of Table I (in the paper's row order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DenseMethod {
    /// t2vec sequential autoencoder.
    T2vec,
    /// CL-TSim contrastive encoder.
    ClTsim,
    /// NeuTraj without the spatial module.
    NtNoSam,
    /// NeuTraj with the spatial module.
    NeuTraj,
    /// Plain Transformer with CLS read-out.
    Transformer,
    /// TrajGAT-lite (quadtree-tagged transformer, mean read-out).
    TrajGat,
}

impl DenseMethod {
    /// All six, in Table I order.
    pub fn all() -> [DenseMethod; 6] {
        [
            DenseMethod::T2vec,
            DenseMethod::ClTsim,
            DenseMethod::NtNoSam,
            DenseMethod::NeuTraj,
            DenseMethod::Transformer,
            DenseMethod::TrajGat,
        ]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DenseMethod::T2vec => "t2vec",
            DenseMethod::ClTsim => "CL-TSim",
            DenseMethod::NtNoSam => "NT-No-SAM",
            DenseMethod::NeuTraj => "NeuTraj",
            DenseMethod::Transformer => "Transformer",
            DenseMethod::TrajGat => "TrajGAT",
        }
    }
}

/// Trains one dense baseline under the shared protocol and returns the
/// ready-to-embed encoder.
///
/// * metric-learning methods (NT-No-SAM, NeuTraj, Transformer, TrajGAT)
///   train with WMSE on the seed similarity matrix;
/// * self-supervised methods (t2vec, CL-TSim) train on a corpus sample —
///   they never see the distance supervision, matching their
///   distance-agnostic design.
pub fn train_dense(
    method: DenseMethod,
    dataset: &Dataset,
    ctx: &ModelContext,
    data: &TrainData,
    scale: &Scale,
    seed: u64,
) -> Box<dyn TrajEncoder> {
    let dim = scale.model.dim;
    let norm = ctx.norm;
    let wmse = WmseConfig {
        epochs: scale.baseline_epochs,
        lr: scale.train.lr,
        batch_size: scale.train.batch_size,
        samples_per_anchor: scale.train.samples_per_anchor,
        seed,
        ..WmseConfig::default()
    };
    // self-supervised corpora are capped so CPU baselines stay tractable
    let corpus_cap = (dataset.corpus.len()).min(64 * scale.baseline_epochs.max(1));
    let corpus_sample = &dataset.corpus[..corpus_cap];
    match method {
        DenseMethod::T2vec => {
            let enc = T2vecEncoder::new(dim, norm, seed);
            enc.train(
                corpus_sample,
                &T2vecConfig { epochs: scale.baseline_epochs, ..T2vecConfig::default() },
            );
            Box::new(enc)
        }
        DenseMethod::ClTsim => {
            let enc = ClTsimEncoder::new(dim, norm, seed);
            enc.train(
                corpus_sample,
                &ClTsimConfig { epochs: scale.baseline_epochs, ..ClTsimConfig::default() },
            );
            Box::new(enc)
        }
        DenseMethod::NtNoSam => {
            let enc = GruMetricEncoder::plain(dim, norm, seed);
            train_wmse(&enc, &dataset.seeds, &data.sim, &wmse);
            Box::new(enc)
        }
        DenseMethod::NeuTraj => {
            let enc = GruMetricEncoder::spatial(
                dim,
                norm,
                ctx.fine_spec.clone(),
                ctx.grid_emb.clone(),
                seed,
            );
            train_wmse(&enc, &dataset.seeds, &data.sim, &wmse);
            Box::new(enc)
        }
        DenseMethod::Transformer => {
            let enc =
                TransformerEncoder::new(dim, scale.model.blocks, scale.model.heads, norm, seed);
            train_wmse(&enc, &dataset.seeds, &data.sim, &wmse);
            Box::new(enc)
        }
        DenseMethod::TrajGat => {
            let enc = TrajGatEncoder::new(
                dim,
                scale.model.blocks,
                scale.model.heads,
                norm,
                &dataset.seeds,
                seed,
            );
            train_wmse(&enc, &dataset.seeds, &data.sim, &wmse);
            Box::new(enc)
        }
    }
}

/// Trains a Traj2Hash model (optionally with ablated configurations).
pub fn train_traj2hash(
    dataset: &Dataset,
    ctx: &ModelContext,
    data: &TrainData,
    scale: &Scale,
    seed: u64,
) -> (Traj2Hash, TrainReport) {
    let _ = dataset;
    let mut model = Traj2Hash::new(scale.model.clone(), ctx, seed);
    let report = traj2hash::train(&mut model, data, &scale.train)
        .unwrap_or_else(|e| panic!("traj2hash training failed: {e}"));
    if !report.recoveries.is_empty() {
        traj_obs::event(
            "bench.train.divergence_guard",
            &[
                ("recoveries", (report.recoveries.len() as u64).into()),
                ("final_lr", report.final_lr.into()),
            ],
        );
    }
    (model, report)
}
