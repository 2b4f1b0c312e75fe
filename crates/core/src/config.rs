//! Model and training configuration.

/// The read-out layer applied after the stacked attention blocks
/// (Section V-D, Fig. 4 compares these three).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readout {
    /// Use the first token's embedding (Eq. 13) — justified by the
    /// endpoint lower bound of Lemma 1. The paper's choice for DTW and
    /// Fréchet; combined with reverse augmentation it covers both the
    /// first- and last-point bounds.
    LowerBound,
    /// Mean-pool all positions (TrajGAT's read-out; best for Hausdorff).
    Mean,
    /// Prepend a learned CLS token and use its output (BERT-style).
    Cls,
}

impl Readout {
    /// Short name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            Readout::LowerBound => "LowerBound",
            Readout::Mean => "Mean",
            Readout::Cls => "CLS",
        }
    }
}

/// Hyper-parameters of the Traj2Hash model (defaults follow Section V-A5,
/// scaled where noted).
#[derive(Debug, Clone)]
pub struct ModelConfig {
    /// Latent dimensionality `d`; also the number of hash bits `d_h`
    /// (the paper sets both to 64).
    pub dim: usize,
    /// Number of stacked Attention–MLP blocks `m` (paper: 2).
    pub blocks: usize,
    /// Attention heads (paper: 4).
    pub heads: usize,
    /// Grid-channel embedding dimensionality.
    pub grid_dim: usize,
    /// Read-out layer of the GPS channel.
    pub readout: Readout,
    /// Include the light-weight grid channel (ablation `-Grids` disables).
    pub use_grids: bool,
    /// Apply reverse augmentation / concatenation (ablation `-RevAug`
    /// disables).
    pub use_rev_aug: bool,
    /// Fine grid cell size in meters (paper: 50 m).
    pub fine_cell_m: f64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            dim: 64,
            blocks: 2,
            heads: 4,
            grid_dim: 64,
            readout: Readout::LowerBound,
            use_grids: true,
            use_rev_aug: true,
            fine_cell_m: 50.0,
        }
    }
}

impl ModelConfig {
    /// A small configuration for CPU-scale experiments and tests.
    pub fn small() -> Self {
        ModelConfig { dim: 32, blocks: 2, heads: 2, grid_dim: 32, ..Default::default() }
    }

    /// A minimal configuration for unit tests.
    pub fn tiny() -> Self {
        ModelConfig {
            dim: 16,
            blocks: 1,
            heads: 2,
            grid_dim: 16,
            fine_cell_m: 100.0,
            ..Default::default()
        }
    }

    /// The `-Grids` ablation (Section V-D).
    pub fn without_grids(mut self) -> Self {
        self.use_grids = false;
        self
    }

    /// The `-RevAug` ablation (cumulative: also drops grids, matching the
    /// paper's "the ablated component in the former variant is also
    /// eliminated in the latter").
    pub fn without_rev_aug(mut self) -> Self {
        self.use_grids = false;
        self.use_rev_aug = false;
        self
    }
}

/// Hyper-parameters of the training run (Section V-A5).
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Margin `alpha` of the ranking-based hashing objective (paper
    /// default: 5).
    pub alpha: f32,
    /// Balance weight `gamma` between WMSE and the hashing objectives
    /// (paper default: 6).
    pub gamma: f32,
    /// Samples per anchor `M` for the WMSE loss (paper: 10).
    pub samples_per_anchor: usize,
    /// Anchor batch size for the WMSE objective (paper: 20).
    pub batch_size: usize,
    /// Batch size over generated triplets (paper: 500; scaled here).
    pub triplet_batch: usize,
    /// Number of generated triplets to use per epoch.
    pub triplets_per_epoch: usize,
    /// Training epochs (paper max: 100; scaled here).
    pub epochs: usize,
    /// Adam learning rate (paper: 1e-3).
    pub lr: f32,
    /// Initial HashNet relaxation scale `beta` (paper: 1, increased each
    /// iteration).
    pub beta0: f32,
    /// Additive increase of `beta` per epoch.
    pub beta_step: f32,
    /// Coarse cell size for fast triplet generation, meters (paper: 500).
    /// Also the bucket grid of the sparse supervision sweep.
    pub coarse_cell_m: f64,
    /// Stored neighbours per seed in the sparse similarity supervision:
    /// the pruned self-join keeps each anchor's `supervision_k` nearest
    /// exact distances and upper-bounds the rest by the pruning
    /// threshold. When `supervision_k >= seeds - 1` every pair is stored
    /// and the supervision is bit-identical to the dense matrix.
    pub supervision_k: usize,
    /// Similarity temperature target for `auto_theta_sparse` (median similarity).
    pub theta_target: f64,
    /// Disable the generated-triplet loss `L_t` (ablation `-Triplets`).
    pub use_triplets: bool,
    /// Gradient clipping threshold.
    pub clip_norm: f32,
    /// RNG seed for sampling and initialization.
    pub seed: u64,
    /// Compute validation HR@10 each epoch and keep the best parameters.
    pub validate: bool,
    /// Where to write the checkpoint after every accepted epoch; `None`
    /// disables checkpointing.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// When true and `checkpoint_path` names a valid checkpoint,
    /// training restores it and continues from the saved epoch instead
    /// of starting over.
    pub resume: bool,
    /// Worker threads for batch-gradient computation and corpus
    /// encoding. `0` means "use the available parallelism"; `1` stays
    /// single-threaded. Results are bit-identical for every setting —
    /// the batch is partitioned into thread-count-independent shards
    /// whose gradients are reduced in a fixed order.
    pub num_threads: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            alpha: 5.0,
            gamma: 6.0,
            samples_per_anchor: 10,
            batch_size: 20,
            triplet_batch: 64,
            triplets_per_epoch: 256,
            epochs: 12,
            lr: 1e-3,
            beta0: 1.0,
            beta_step: 0.5,
            coarse_cell_m: 500.0,
            supervision_k: 50,
            theta_target: 0.5,
            use_triplets: true,
            clip_norm: 5.0,
            seed: 7,
            validate: true,
            checkpoint_path: None,
            resume: false,
            num_threads: 1,
        }
    }
}

impl TrainConfig {
    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        TrainConfig {
            epochs: 3,
            triplets_per_epoch: 64,
            triplet_batch: 32,
            validate: false,
            ..Default::default()
        }
    }

    /// Resolves [`TrainConfig::num_threads`] to a concrete worker count:
    /// `0` maps to the machine's available parallelism (at least 1).
    pub fn resolved_threads(&self) -> usize {
        match self.num_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }

    /// The `-Triplets` ablation (Section V-D): `L_t` eliminated. Combined
    /// with [`ModelConfig::without_rev_aug`] this reduces the model to a
    /// Transformer with the lower-bound read-out, as the paper states.
    pub fn without_triplets(mut self) -> Self {
        self.use_triplets = false;
        self
    }

    /// Checks every field is in its valid range, so a bad config is a
    /// typed error at the call site instead of an assert (or a silent
    /// NaN) deep inside the training loop.
    pub fn validate(&self) -> Result<(), crate::TrainError> {
        let fail = |msg: String| Err(crate::TrainError::InvalidConfig(msg));
        if self.epochs == 0 {
            return fail("epochs must be positive".into());
        }
        if !(self.lr.is_finite() && self.lr > 0.0) {
            return fail(format!("lr must be positive and finite, got {}", self.lr));
        }
        if self.batch_size == 0 {
            return fail("batch_size must be positive".into());
        }
        if self.samples_per_anchor == 0 {
            return fail("samples_per_anchor must be positive".into());
        }
        if !(self.beta0.is_finite() && self.beta0 > 0.0) {
            return fail(format!("beta0 must be positive and finite, got {}", self.beta0));
        }
        if !(self.beta_step.is_finite() && self.beta_step >= 0.0) {
            return fail(format!("beta_step must be non-negative, got {}", self.beta_step));
        }
        if !(self.alpha.is_finite() && self.alpha >= 0.0) {
            return fail(format!("alpha must be non-negative, got {}", self.alpha));
        }
        if !(self.gamma.is_finite() && self.gamma >= 0.0) {
            return fail(format!("gamma must be non-negative, got {}", self.gamma));
        }
        if !(self.clip_norm.is_finite() && self.clip_norm > 0.0) {
            return fail(format!("clip_norm must be positive, got {}", self.clip_norm));
        }
        if !(self.coarse_cell_m.is_finite() && self.coarse_cell_m > 0.0) {
            return fail(format!("coarse_cell_m must be positive, got {}", self.coarse_cell_m));
        }
        if self.supervision_k < self.samples_per_anchor {
            return fail(format!(
                "supervision_k must be at least samples_per_anchor ({}), got {}",
                self.samples_per_anchor, self.supervision_k
            ));
        }
        if !(self.theta_target.is_finite() && 0.0 < self.theta_target && self.theta_target < 1.0) {
            return fail(format!("theta_target must lie in (0, 1), got {}", self.theta_target));
        }
        if self.use_triplets && self.triplet_batch == 0 {
            return fail("triplet_batch must be positive when triplets are enabled".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let m = ModelConfig::default();
        assert_eq!(m.dim, 64);
        assert_eq!(m.blocks, 2);
        assert_eq!(m.heads, 4);
        assert_eq!(m.fine_cell_m, 50.0);
        let t = TrainConfig::default();
        assert_eq!(t.alpha, 5.0);
        assert_eq!(t.gamma, 6.0);
        assert_eq!(t.samples_per_anchor, 10);
        assert_eq!(t.batch_size, 20);
        assert_eq!(t.coarse_cell_m, 500.0);
        assert_eq!(t.lr, 1e-3);
    }

    #[test]
    fn default_config_validates() {
        assert!(TrainConfig::default().validate().is_ok());
        assert!(TrainConfig::tiny().validate().is_ok());
    }

    /// Every out-of-range field is rejected with a message naming it.
    #[test]
    fn validate_rejects_each_bad_field() {
        let ok = TrainConfig::default;
        let cases: Vec<(TrainConfig, &str)> = vec![
            (TrainConfig { epochs: 0, ..ok() }, "epochs"),
            (TrainConfig { lr: 0.0, ..ok() }, "lr"),
            (TrainConfig { lr: -1e-3, ..ok() }, "lr"),
            (TrainConfig { lr: f32::NAN, ..ok() }, "lr"),
            (TrainConfig { batch_size: 0, ..ok() }, "batch_size"),
            (TrainConfig { samples_per_anchor: 0, ..ok() }, "samples_per_anchor"),
            (TrainConfig { beta0: 0.0, ..ok() }, "beta0"),
            (TrainConfig { beta0: f32::INFINITY, ..ok() }, "beta0"),
            (TrainConfig { beta_step: -0.1, ..ok() }, "beta_step"),
            (TrainConfig { alpha: -1.0, ..ok() }, "alpha"),
            (TrainConfig { gamma: f32::NAN, ..ok() }, "gamma"),
            (TrainConfig { clip_norm: 0.0, ..ok() }, "clip_norm"),
            (TrainConfig { coarse_cell_m: 0.0, ..ok() }, "coarse_cell_m"),
            (TrainConfig { supervision_k: 0, ..ok() }, "supervision_k"),
            (TrainConfig { theta_target: 0.0, ..ok() }, "theta_target"),
            (TrainConfig { theta_target: 1.0, ..ok() }, "theta_target"),
            (TrainConfig { triplet_batch: 0, ..ok() }, "triplet_batch"),
        ];
        for (cfg, field) in cases {
            match cfg.validate() {
                Err(crate::TrainError::InvalidConfig(msg)) => assert!(
                    msg.contains(field),
                    "rejection for {field} should name the field, got: {msg}"
                ),
                other => panic!("expected InvalidConfig({field}), got {other:?}"),
            }
        }
    }

    #[test]
    fn triplet_batch_zero_is_fine_when_triplets_disabled() {
        let cfg = TrainConfig { triplet_batch: 0, ..TrainConfig::default() }.without_triplets();
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn ablations_are_cumulative() {
        let a = ModelConfig::default().without_grids();
        assert!(!a.use_grids && a.use_rev_aug);
        let b = ModelConfig::default().without_rev_aug();
        assert!(!b.use_grids && !b.use_rev_aug);
    }
}
