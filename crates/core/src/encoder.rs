//! The two-channel trajectory encoder (Sections IV-C and IV-D): the
//! layers, their parameters, and the *training* forward over an
//! autograd [`Tape`]. Inference reads the same parameters through the
//! forward-only evaluator in `infer.rs`; the `forward` methods here are
//! what it is tested against, bit for bit.

use crate::config::{ModelConfig, Readout};
use std::cell::{Ref, RefCell};
use std::sync::Arc;
use tinynn::{positional_encoding, Linear, Mlp, Param, ParamSet, Tape, Tensor, Var};
use traj_data::{NormStats, Trajectory};
use traj_grid::{GridEmbedding, GridSpec};
use rand::Rng;

/// The sinusoidal positional rows (Eq. 8) of one channel's width, which
/// the training forward and the evaluator in `infer.rs` both read. Row
/// `i` of [`positional_encoding`] depends on `i` and the width only, so
/// the table grows to the longest length seen and a prefix serves every
/// shorter one.
pub(crate) struct PositionalTable {
    width: usize,
    rows: RefCell<Vec<f32>>,
}

impl PositionalTable {
    fn new(width: usize) -> Self {
        PositionalTable { width, rows: RefCell::default() }
    }

    /// The first `n` rows, row-major.
    pub(crate) fn rows(&self, n: usize) -> Ref<'_, [f32]> {
        let d = self.width;
        {
            let mut table = self.rows.borrow_mut();
            if table.len() < n * d {
                *table = positional_encoding(n.max(2 * table.len() / d), d).data().to_vec();
            }
        }
        Ref::map(self.rows.borrow(), |table| &table[..n * d])
    }
}

/// The light-weight grid channel (Section IV-C): frozen pre-trained grid
/// embeddings + positional encoding + two-layer MLP + mean pooling
/// (Eq. 9). The embedding provider is pluggable so the decomposed
/// representation can be compared against Node2vec (Fig. 7).
pub struct GridChannelEncoder {
    pub(crate) spec: GridSpec,
    pub(crate) emb: Arc<dyn GridEmbedding + Send + Sync>,
    pub(crate) mlp: Mlp,
    pub(crate) pe: PositionalTable,
}

impl GridChannelEncoder {
    /// Builds the channel from a pre-trained (frozen) grid embedding.
    pub fn new<R: Rng>(
        rng: &mut R,
        params: &mut ParamSet,
        spec: GridSpec,
        emb: Arc<dyn GridEmbedding + Send + Sync>,
        out_dim: usize,
    ) -> Self {
        let gd = emb.dim();
        let mlp = Mlp::new(rng, params, &[gd, gd, out_dim]);
        GridChannelEncoder { spec, emb, mlp, pe: PositionalTable::new(gd) }
    }

    /// The frozen pre-MLP input sequence for `t`: per cell the grid
    /// embedding `e_x + e_y` (Eq. 5) plus the positional encoding.
    pub fn grid_input(&self, t: &Trajectory) -> Tensor {
        let cells = self.spec.grid_trajectory(t);
        let gd = self.emb.dim();
        let n = cells.len();
        let mut data = vec![0.0f32; n * gd];
        for (i, &(gx, gy)) in cells.iter().enumerate() {
            self.emb.embed_into(gx, gy, &mut data[i * gd..(i + 1) * gd]);
        }
        for (x, &p) in data.iter_mut().zip(self.pe.rows(n).iter()) {
            *x += p;
        }
        Tensor::from_vec(n, gd, data)
    }

    /// Encodes a trajectory's grid channel into a `1 x d` vector.
    ///
    /// The grid embeddings are pre-trained and frozen (the paper freezes
    /// them "since the spatial information may be poisoned after
    /// updating"), so they enter the tape as constants; only the MLP is
    /// trainable.
    pub fn forward(&self, tape: &Tape, t: &Trajectory) -> Var {
        let seq = tape.constant(self.grid_input(t));
        self.mlp.forward(tape, &seq).mean_rows()
    }

    /// The underlying fine grid specification.
    pub fn spec(&self) -> &GridSpec {
        &self.spec
    }

    /// The frozen embedding provider (shared with replicas).
    pub fn embedding(&self) -> Arc<dyn GridEmbedding + Send + Sync> {
        Arc::clone(&self.emb)
    }
}

/// The attention-based GPS channel (Section IV-D): point feature MLP
/// (Eq. 10) + positional encoding + `m` Attention–MLP residual blocks
/// (Eq. 11–12) + a configurable read-out (Eq. 13 / Fig. 4).
pub struct GpsChannelEncoder {
    pub(crate) point_mlp: Linear,
    pub(crate) blocks: Vec<tinynn::EncoderBlock>,
    pub(crate) readout: Readout,
    pub(crate) cls: Option<Param>,
    pub(crate) norm: NormStats,
    pub(crate) dim: usize,
    pub(crate) pe: PositionalTable,
}

impl GpsChannelEncoder {
    /// Builds the channel.
    pub fn new<R: Rng>(
        rng: &mut R,
        params: &mut ParamSet,
        cfg: &ModelConfig,
        norm: NormStats,
    ) -> Self {
        let dim = cfg.dim;
        let point_mlp = Linear::new(rng, params, 2, dim);
        let blocks = (0..cfg.blocks)
            .map(|_| tinynn::EncoderBlock::new(rng, params, dim, 2 * dim, cfg.heads))
            .collect();
        let cls = match cfg.readout {
            Readout::Cls => Some(params.register(Param::new(tinynn::init::normal(
                rng,
                1,
                dim,
                0.1,
            )))),
            _ => None,
        };
        let pe = PositionalTable::new(dim);
        GpsChannelEncoder { point_mlp, blocks, readout: cfg.readout, cls, norm, dim, pe }
    }

    /// Encodes a trajectory into a `1 x d` vector. Under the lower-bound
    /// and CLS read-outs the last block runs on token 0 alone
    /// ([`tinynn::EncoderBlock::forward_first_row`]), as the evaluator in
    /// `infer.rs` does; `Mean` runs it over every row.
    pub fn forward(&self, tape: &Tape, t: &Trajectory) -> Var {
        assert!(!t.is_empty(), "cannot encode an empty trajectory");
        let feats = self.norm.apply(t);
        let x = tape.constant(Tensor::from_vec(t.len(), 2, feats));
        let mut seq = self.point_mlp.forward(tape, &x);
        // positional encoding: e_l_i <- e_l_i + p_i (Eq. 10 text)
        let pe = Tensor::from_vec(t.len(), self.dim, self.pe.rows(t.len()).to_vec());
        seq = seq.add(&tape.constant(pe));
        if let Some(cls) = &self.cls {
            let token = tape.param(cls);
            seq = token.concat_rows(&seq);
        }
        for (i, block) in self.blocks.iter().enumerate() {
            let last = i + 1 == self.blocks.len();
            seq = if last && self.readout != Readout::Mean {
                block.forward_first_row(tape, &seq)
            } else {
                block.forward(tape, &seq)
            };
        }
        match self.readout {
            // Eq. 13: the first point is the anchor that aggregated
            // information from every other point through attention.
            Readout::LowerBound | Readout::Cls => seq.select_row(0),
            Readout::Mean => seq.mean_rows(),
        }
    }

    /// Model dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Normalization statistics in use.
    pub fn norm(&self) -> &NormStats {
        &self.norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use traj_data::{BoundingBox, CityGenerator, CityParams};
    use traj_grid::{DecomposedGridEmbedding, NceConfig};

    fn setup() -> (Vec<Trajectory>, NormStats, GridSpec, DecomposedGridEmbedding) {
        let params = CityParams::test_city();
        let trajs = CityGenerator::new(params.clone(), 1).generate(10);
        let norm = NormStats::fit(&trajs);
        let spec = GridSpec::new(BoundingBox::from_extent(params.width, params.height), 100.0);
        let mut emb = DecomposedGridEmbedding::init(&spec, 16, 2);
        emb.pretrain(&spec, &NceConfig { dim: 16, epochs: 1, ..NceConfig::default() });
        (trajs, norm, spec, emb)
    }

    #[test]
    fn grid_channel_outputs_row_vector() {
        let (trajs, _, spec, emb) = setup();
        let mut rng = StdRng::seed_from_u64(3);
        let mut ps = ParamSet::new();
        let enc = GridChannelEncoder::new(
            &mut rng,
            &mut ps,
            spec,
            Arc::new(emb),
            16,
        );
        let tape = Tape::new();
        let h = enc.forward(&tape, &trajs[0]);
        assert_eq!(h.shape(), (1, 16));
        assert!(h.value().is_finite());
    }

    #[test]
    fn gps_channel_readouts_differ() {
        let (trajs, norm, _, _) = setup();
        let mut rng = StdRng::seed_from_u64(4);
        for readout in [Readout::LowerBound, Readout::Mean, Readout::Cls] {
            let mut ps = ParamSet::new();
            let cfg = ModelConfig { readout, ..ModelConfig::tiny() };
            let enc = GpsChannelEncoder::new(&mut rng, &mut ps, &cfg, norm);
            let tape = Tape::new();
            let h = enc.forward(&tape, &trajs[0]);
            assert_eq!(h.shape(), (1, cfg.dim));
            assert!(h.value().is_finite());
        }
    }

    #[test]
    fn lowerbound_readout_is_first_point_anchored() {
        // Changing the last point must affect the read-out less than
        // changing the first point does (the first point is the anchor).
        let (trajs, norm, _, _) = setup();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ps = ParamSet::new();
        let cfg = ModelConfig::tiny();
        let enc = GpsChannelEncoder::new(&mut rng, &mut ps, &cfg, norm);
        let base = &trajs[0];
        let tape = Tape::new();
        let h0 = enc.forward(&tape, base).value();

        let mut first_changed = base.clone();
        first_changed.points[0].x += 500.0;
        let mut last_changed = base.clone();
        let n = last_changed.len();
        last_changed.points[n - 1].x += 500.0;

        let hf = enc.forward(&tape, &first_changed).value();
        let hl = enc.forward(&tape, &last_changed).value();
        let df = h0.distance(&hf);
        let dl = h0.distance(&hl);
        assert!(
            df > dl,
            "first-point perturbation ({df}) should dominate last-point ({dl})"
        );
    }

    #[test]
    fn gradients_reach_encoder_parameters() {
        let (trajs, norm, spec, emb) = setup();
        let mut rng = StdRng::seed_from_u64(6);
        let mut ps = ParamSet::new();
        let cfg = ModelConfig::tiny();
        let gps = GpsChannelEncoder::new(&mut rng, &mut ps, &cfg, norm);
        let grid = GridChannelEncoder::new(
            &mut rng,
            &mut ps,
            spec,
            Arc::new(emb),
            cfg.dim,
        );
        let tape = Tape::new();
        let h = gps
            .forward(&tape, &trajs[0])
            .concat_cols(&grid.forward(&tape, &trajs[0]));
        h.square().mean_all().backward();
        let with_grad = ps.iter().filter(|p| p.borrow().grad.norm() > 0.0).count();
        assert!(with_grad > 0);
        // At minimum the two input projections and the grid MLP get grads.
        assert!(with_grad >= ps.len() / 2, "{with_grad}/{} params got gradients", ps.len());
    }
}
