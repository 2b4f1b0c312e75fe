//! The Traj2Hash model: two-channel encoder + hash layer (Section IV).
//!
//! One set of parameters, two forwards. [`Traj2Hash::embed_var`] /
//! [`Traj2Hash::hash_var`] record onto an autograd [`Tape`] and are the
//! training path. [`Traj2Hash::embed`] and everything built on it
//! (`embed_all*`, `hash_*`, `approx_distance`, and through them the
//! serving engine) run the forward-only evaluator in `infer.rs`, which
//! creates no tape and is bit-identical to the training forward.

use crate::config::ModelConfig;
use crate::encoder::{GpsChannelEncoder, GridChannelEncoder};
use crate::error::EmbedError;
use crate::infer::{self, Scratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use tinynn::{Mlp, Param, ParamSet, Tape, Tensor, Var};
use traj_data::{NormStats, Trajectory};
use traj_grid::{DecomposedGridEmbedding, GridEmbedding, GridSpec, NceConfig};

/// Everything the model needs to know about the dataset before training:
/// normalization statistics, the fine grid, and the pre-trained frozen
/// grid embeddings.
pub struct ModelContext {
    /// Gaussian normalization statistics fitted on training-visible data.
    pub norm: NormStats,
    /// Fine grid (50 m cells by default).
    pub fine_spec: GridSpec,
    /// Pre-trained decomposed grid embedding.
    pub grid_emb: DecomposedGridEmbedding,
    /// Wall-clock seconds spent pre-training the grid embedding.
    pub pretrain_secs: f64,
}

impl ModelContext {
    /// Fits normalization statistics, builds the fine grid over the
    /// dataset's bounding box, and pre-trains the decomposed grid
    /// embedding with NCE.
    pub fn prepare(training_visible: &[Trajectory], cfg: &ModelConfig, seed: u64) -> Self {
        let norm = NormStats::fit(training_visible);
        let bbox = traj_data::BoundingBox::of_dataset(training_visible)
            .expect("cannot prepare a model context from an empty dataset");
        let fine_spec = GridSpec::new(bbox, cfg.fine_cell_m);
        let mut grid_emb = DecomposedGridEmbedding::init(&fine_spec, cfg.grid_dim, seed);
        let nce = NceConfig { dim: cfg.grid_dim, seed, ..NceConfig::default() };
        let pretrain_secs = grid_emb.pretrain(&fine_spec, &nce);
        ModelContext { norm, fine_spec, grid_emb, pretrain_secs }
    }
}

/// The Traj2Hash model.
///
/// `embed` produces the Euclidean representation `h_f^T` (Eq. 15) whose
/// pairwise Euclidean distances approximate the trajectory measure;
/// `hash` binarizes it with `sign` (Eq. 16) for Hamming-space search.
pub struct Traj2Hash {
    cfg: ModelConfig,
    /// All trainable parameters.
    pub params: ParamSet,
    pub(crate) gps: GpsChannelEncoder,
    pub(crate) grid: Option<GridChannelEncoder>,
    pub(crate) fuse: Mlp,
    pub(crate) projector: Param,
    /// Working memory of the forward-only evaluator (the model is
    /// `!Sync`: one replica per thread, so one scratch per replica).
    pub(crate) scratch: RefCell<Scratch>,
    /// Relaxation scale `beta` of `tanh(beta x)`; annealed during
    /// training, effectively infinite (hard sign) at inference.
    pub beta: f32,
}

/// A `Send + Sync` description of a model from which worker threads can
/// rebuild byte-identical replicas: configuration, normalization stats,
/// the frozen grid channel (spec + embedding), and the current
/// relaxation scale. Parameter *values* travel separately as
/// the snapshot from [`tinynn::ParamSet::clone_values`].
#[derive(Clone)]
pub struct ModelSpec {
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Normalization statistics.
    pub norm: NormStats,
    /// Grid channel pieces when `cfg.use_grids`: spec and frozen
    /// embedding.
    pub grid: Option<(GridSpec, Arc<dyn GridEmbedding + Send + Sync>)>,
    /// Current `tanh(beta x)` relaxation scale.
    pub beta: f32,
}

impl Traj2Hash {
    /// Builds a model with freshly initialized parameters, using the
    /// context's decomposed grid embedding for the grid channel.
    pub fn new(cfg: ModelConfig, ctx: &ModelContext, seed: u64) -> Self {
        let emb: Arc<dyn GridEmbedding + Send + Sync> = Arc::new(ctx.grid_emb.clone());
        Self::with_grid_embedding(cfg, ctx, emb, seed)
    }

    /// Builds a model with an explicit grid embedding provider — used by
    /// the Fig. 7 comparison to plug in Node2vec instead of the
    /// decomposed representation.
    pub fn with_grid_embedding(
        cfg: ModelConfig,
        ctx: &ModelContext,
        grid_embedding: Arc<dyn GridEmbedding + Send + Sync>,
        seed: u64,
    ) -> Self {
        let grid = cfg.use_grids.then(|| (ctx.fine_spec.clone(), grid_embedding));
        Self::build(cfg, ctx.norm, grid, 1.0, seed)
    }

    /// Rebuilds a replica from a [`ModelSpec`] plus a parameter-value
    /// snapshot. The replica has the same architecture and the same
    /// values, and shares nothing mutable with the original.
    pub fn from_spec(spec: &ModelSpec, values: &[Tensor]) -> Self {
        let model = Self::build(spec.cfg.clone(), spec.norm, spec.grid.clone(), spec.beta, 0);
        model.params.load_values(values);
        model
    }

    /// Rebuilds a model from a [`ModelSpec`] plus a serialized parameter
    /// blob as produced by [`Traj2Hash::save_bytes`] — the cold-start
    /// path of engine snapshots, where parameter values arrive from disk
    /// rather than from a live `ParamSet`.
    pub fn from_spec_bytes(spec: &ModelSpec, params_blob: &[u8]) -> Result<Self, String> {
        let model = Self::build(spec.cfg.clone(), spec.norm, spec.grid.clone(), spec.beta, 0);
        model.load_bytes(params_blob)?;
        Ok(model)
    }

    /// The `Send + Sync` replication spec for this model (see
    /// [`Traj2Hash::from_spec`]).
    pub fn spec(&self) -> ModelSpec {
        ModelSpec {
            cfg: self.cfg.clone(),
            norm: *self.gps.norm(),
            grid: self.grid.as_ref().map(|g| (g.spec().clone(), g.embedding())),
            beta: self.beta,
        }
    }

    fn build(
        cfg: ModelConfig,
        norm: NormStats,
        grid_parts: Option<(GridSpec, Arc<dyn GridEmbedding + Send + Sync>)>,
        beta: f32,
        seed: u64,
    ) -> Self {
        assert_eq!(
            cfg.use_grids,
            grid_parts.is_some(),
            "grid channel pieces must match cfg.use_grids"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = ParamSet::new();
        let gps = GpsChannelEncoder::new(&mut rng, &mut params, &cfg, norm);
        let grid = grid_parts
            .map(|(spec, emb)| GridChannelEncoder::new(&mut rng, &mut params, spec, emb, cfg.dim));
        let fuse_in = if cfg.use_grids { 2 * cfg.dim } else { cfg.dim };
        let fuse = Mlp::new(&mut rng, &mut params, &[fuse_in, cfg.dim]);
        // W_p in R^{d/2 x d} when reverse augmentation doubles the width
        // back to d (Eq. 15); a square projection otherwise, so the final
        // embedding width is d in both cases and ablations are comparable.
        let proj_out = if cfg.use_rev_aug { cfg.dim / 2 } else { cfg.dim };
        let projector = params.register(Param::new(tinynn::init::xavier_uniform(
            &mut rng,
            cfg.dim,
            proj_out,
        )));
        let scratch = RefCell::default();
        Traj2Hash { cfg, params, gps, grid, fuse, projector, scratch, beta }
    }

    /// Model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// Width of the final embedding (= number of hash bits).
    pub fn embedding_dim(&self) -> usize {
        self.cfg.dim
    }

    /// Encodes one direction of a trajectory: two channels fused
    /// (Eq. 14) then projected.
    fn encode_direction(&self, tape: &Tape, t: &Trajectory) -> Var {
        let h_l = self.gps.forward(tape, t);
        let fused_in = match &self.grid {
            Some(grid_enc) => h_l.concat_cols(&grid_enc.forward(tape, t)),
            None => h_l,
        };
        let h = self.fuse.forward(tape, &fused_in);
        let w_p = tape.param(&self.projector);
        h.matmul(&w_p)
    }

    /// The Euclidean-space embedding `h_f^T` as a tape variable
    /// (training entry point). With reverse augmentation this is
    /// `[W_p h, W_p h_r]` (Eq. 15), which satisfies the reverse symmetric
    /// property by Lemma 3.
    pub fn embed_var(&self, tape: &Tape, t: &Trajectory) -> Var {
        if self.cfg.use_rev_aug {
            let fwd = self.encode_direction(tape, t);
            let rev = self.encode_direction(tape, &t.reversed());
            fwd.concat_cols(&rev)
        } else {
            self.encode_direction(tape, t)
        }
    }

    /// The relaxed hash code `tanh(beta * h_f)` used during training
    /// (HashNet continuation, Section IV-F).
    pub fn hash_var(&self, tape: &Tape, t: &Trajectory) -> Var {
        self.embed_var(tape, t).scale(self.beta).tanh()
    }

    /// Relaxed hash code from an existing embedding variable.
    pub fn hash_of(&self, embedding: &Var) -> Var {
        embedding.scale(self.beta).tanh()
    }

    /// Inference: the Euclidean embedding as a plain tensor — the value
    /// of [`Traj2Hash::embed_var`], bit for bit, computed without a tape.
    /// An empty trajectory or a non-finite coordinate is an
    /// [`EmbedError`], not a panic and not a NaN embedding.
    pub fn try_embed(&self, t: &Trajectory) -> Result<Tensor, EmbedError> {
        infer::try_embed(self, t)
    }

    /// [`Traj2Hash::try_embed`] for trajectories the caller knows to be
    /// well-formed.
    ///
    /// # Panics
    /// Panics on an empty trajectory or a non-finite coordinate.
    pub fn embed(&self, t: &Trajectory) -> Tensor {
        match self.try_embed(t) {
            Ok(embedding) => embedding,
            Err(EmbedError::Empty) => panic!("cannot encode an empty trajectory"),
            Err(e) => panic!("cannot encode the trajectory: {e}"),
        }
    }

    /// Inference: the hard binary code as `+-1` signs (Eq. 16).
    pub fn hash_signs(&self, t: &Trajectory) -> Vec<i8> {
        self.embed(t)
            .data()
            .iter()
            .map(|&x| if x > 0.0 { 1 } else { -1 })
            .collect()
    }

    /// Batch embedding of many trajectories into row vectors.
    pub fn embed_all(&self, ts: &[Trajectory]) -> Vec<Vec<f32>> {
        ts.iter().map(|t| self.embed(t).data().to_vec()).collect()
    }

    /// Batch embedding on `threads` threads: this one and `threads - 1`
    /// scoped workers, each worker on a replica rebuilt from
    /// [`Traj2Hash::spec`]. Every thread claims the next unclaimed
    /// trajectory until none is left, so a thread that starts late or
    /// runs on a slower core takes fewer of them instead of holding the
    /// call up with a fixed share. Results keep input order and are
    /// bit-identical to [`Traj2Hash::embed_all`] (every embed is an
    /// independent forward pass). `threads <= 1` stays on this thread.
    pub fn embed_all_with_threads(&self, ts: &[Trajectory], threads: usize) -> Vec<Vec<f32>> {
        let threads = threads.max(1).min(ts.len().max(1));
        if threads == 1 {
            return self.embed_all(ts);
        }
        let spec = self.spec();
        let values = self.params.clone_values();
        // Claim cursor. `Relaxed`: a claim needs atomicity only; the
        // trajectories are read-only and results come back through joins.
        let next = AtomicUsize::new(0);
        let claim = |model: &Traj2Hash| -> Vec<(usize, Vec<f32>)> {
            let mut mine = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(t) = ts.get(i) else { return mine };
                mine.push((i, model.embed(t).data().to_vec()));
            }
        };
        let mut out = vec![Vec::new(); ts.len()];
        std::thread::scope(|scope| {
            let (claim, spec, values) = (&claim, &spec, &values);
            let workers: Vec<_> = (1..threads)
                .map(|_| scope.spawn(move || claim(&Traj2Hash::from_spec(spec, values))))
                .collect();
            let mut done = claim(self);
            for w in workers {
                done.extend(w.join().expect("encoder worker panicked"));
            }
            for (i, embedding) in done {
                out[i] = embedding;
            }
        });
        out
    }

    /// [`Traj2Hash::embed_all`] under the name the benchmark calls.
    /// Every trajectory is an independent forward; batching the dense
    /// layers across trajectories measured 0.88–1.03x and was removed.
    pub fn embed_batch(&self, ts: &[Trajectory]) -> Vec<Vec<f32>> {
        self.embed_all(ts)
    }

    /// Batch hashing of many trajectories.
    pub fn hash_all(&self, ts: &[Trajectory]) -> Vec<Vec<i8>> {
        ts.iter().map(|t| self.hash_signs(t)).collect()
    }

    /// The model's distance approximation `Euclidean(h_f^1, h_f^2)`.
    pub fn approx_distance(&self, a: &Trajectory, b: &Trajectory) -> f32 {
        self.embed(a).distance(&self.embed(b))
    }

    /// Serializes all parameters.
    pub fn save_bytes(&self) -> Vec<u8> {
        self.params.save_bytes()
    }

    /// Restores parameters saved by [`Traj2Hash::save_bytes`].
    pub fn load_bytes(&self, bytes: &[u8]) -> Result<(), String> {
        self.params.load_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{CityGenerator, CityParams};

    fn setup(cfg: ModelConfig) -> (Traj2Hash, Vec<Trajectory>) {
        let trajs = CityGenerator::new(CityParams::test_city(), 1).generate(12);
        let ctx = ModelContext::prepare(&trajs, &cfg, 5);
        (Traj2Hash::new(cfg, &ctx, 6), trajs)
    }

    #[test]
    fn embedding_has_configured_width() {
        let (model, trajs) = setup(ModelConfig::tiny());
        let e = model.embed(&trajs[0]);
        assert_eq!(e.shape(), (1, model.embedding_dim()));
        assert!(e.is_finite());
    }

    #[test]
    fn try_embed_refuses_what_embed_panics_on() {
        let (model, trajs) = setup(ModelConfig::tiny());
        assert_eq!(model.try_embed(&trajs[0]).unwrap(), model.embed(&trajs[0]));
        assert_eq!(model.try_embed(&Trajectory::new(Vec::new())), Err(EmbedError::Empty));
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut t = trajs[0].clone();
            t.points[2].y = bad;
            assert_eq!(model.try_embed(&t), Err(EmbedError::NonFinite { point: 2 }));
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| model.embed(&t)));
            assert!(panicked.is_err(), "embed must not hand back a NaN embedding");
        }
        // A refusal leaves the scratch buffers usable.
        assert!(model.embed(&trajs[1]).is_finite());
    }

    #[test]
    fn reverse_symmetric_property_holds() {
        // Lemma 3: E(h(T1), h(T2)) == E(h(T1^r), h(T2^r)) for an
        // *untrained* network already — it is a structural property.
        let (model, trajs) = setup(ModelConfig::tiny());
        let (a, b) = (&trajs[0], &trajs[1]);
        let d_fwd = model.approx_distance(a, b);
        let d_rev = model.approx_distance(&a.reversed(), &b.reversed());
        assert!(
            (d_fwd - d_rev).abs() < 1e-4,
            "reverse symmetry violated: {d_fwd} vs {d_rev}"
        );
    }

    #[test]
    fn without_rev_aug_property_breaks() {
        let (model, trajs) = setup(ModelConfig::tiny().without_rev_aug());
        let (a, b) = (&trajs[0], &trajs[1]);
        let d_fwd = model.approx_distance(a, b);
        let d_rev = model.approx_distance(&a.reversed(), &b.reversed());
        assert!(
            (d_fwd - d_rev).abs() > 1e-4,
            "-RevAug should not satisfy reverse symmetry ({d_fwd} vs {d_rev})"
        );
    }

    #[test]
    fn hash_signs_are_binary_and_match_embedding_sign() {
        let (model, trajs) = setup(ModelConfig::tiny());
        let e = model.embed(&trajs[0]);
        let h = model.hash_signs(&trajs[0]);
        assert_eq!(h.len(), e.len());
        for (&s, &x) in h.iter().zip(e.data()) {
            assert!(s == 1 || s == -1);
            assert_eq!(s == 1, x > 0.0);
        }
    }

    #[test]
    fn relaxed_hash_approaches_hard_sign_as_beta_grows() {
        let (mut model, trajs) = setup(ModelConfig::tiny());
        model.beta = 50.0;
        let tape = Tape::new();
        let relaxed = model.hash_var(&tape, &trajs[0]).value();
        let hard = model.hash_signs(&trajs[0]);
        for (&r, &s) in relaxed.data().iter().zip(&hard) {
            assert!((r - s as f32).abs() < 0.2, "relaxed {r} vs hard {s}");
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_embeddings() {
        let (model, trajs) = setup(ModelConfig::tiny());
        let before = model.embed(&trajs[0]);
        let blob = model.save_bytes();

        let ctx = ModelContext::prepare(&trajs, &ModelConfig::tiny(), 5);
        let other = Traj2Hash::new(ModelConfig::tiny(), &ctx, 999);
        assert!(other.embed(&trajs[0]).max_abs_diff(&before) > 1e-6);
        other.load_bytes(&blob).unwrap();
        assert!(other.embed(&trajs[0]).max_abs_diff(&before) < 1e-6);
    }

    #[test]
    fn grids_ablation_still_works() {
        let (model, trajs) = setup(ModelConfig::tiny().without_grids());
        let e = model.embed(&trajs[0]);
        assert_eq!(e.cols(), model.embedding_dim());
        assert!(e.is_finite());
    }
}
