//! Neural network layers built on the autograd tape.
//!
//! All layers follow the same convention: construction takes an `&mut
//! ParamSet` into which trainable parameters are registered (so a single
//! optimizer can see the whole model), and `forward` takes the current
//! [`Tape`] plus input [`Var`]s.

use crate::init;
use crate::param::{Param, ParamSet};
use crate::tape::{Tape, Var};
use crate::tensor::Tensor;
use rand::Rng;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock, RwLock};

/// Fully connected layer `y = x W + b` with `W: in x out`, `b: 1 x out`.
#[derive(Clone)]
pub struct Linear {
    /// Weight matrix, `in_dim x out_dim`.
    pub w: Param,
    /// Bias row, `1 x out_dim`.
    pub b: Param,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer.
    pub fn new<R: Rng>(rng: &mut R, params: &mut ParamSet, in_dim: usize, out_dim: usize) -> Self {
        let w = params.register(Param::new(init::xavier_uniform(rng, in_dim, out_dim)));
        let b = params.register(Param::new(Tensor::zeros(1, out_dim)));
        Linear { w, b }
    }

    /// Applies the layer to an `n x in_dim` input.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let w = tape.param(&self.w);
        let b = tape.param(&self.b);
        x.matmul(&w).add_row(&b)
    }

    /// Applies the layer followed by ReLU as one fused tape node
    /// (`relu(x W + b)`), saving an intermediate buffer and a backward
    /// pass over it. Exactly equivalent to `forward(..).relu()`.
    pub fn forward_relu(&self, tape: &Tape, x: &Var) -> Var {
        let w = tape.param(&self.w);
        let b = tape.param(&self.b);
        x.matmul(&w).add_row_relu(&b)
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.shape().0
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.shape().1
    }
}

/// A multi-layer perceptron with ReLU activations between layers (the
/// `MLP_g` / `MLP^k` blocks of the paper are the two-layer case).
#[derive(Clone)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP with the given layer widths, e.g. `&[64, 64, 64]`
    /// builds two linear layers `64 -> 64 -> 64` with one ReLU in between.
    pub fn new<R: Rng>(rng: &mut R, params: &mut ParamSet, dims: &[usize]) -> Self {
        assert!(dims.len() >= 2, "an MLP needs at least input and output dims");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(rng, params, w[0], w[1]))
            .collect();
        Mlp { layers }
    }

    /// Applies the MLP; ReLU after every layer except the last. Hidden
    /// layers use the fused bias-add + ReLU node.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let mut h = x.clone();
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            h = if i != last {
                layer.forward_relu(tape, &h)
            } else {
                layer.forward(tape, &h)
            };
        }
        h
    }

    /// The layers in application order (ReLU between, none after the
    /// last) — what a forward-only evaluator walks.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        #[expect(clippy::unwrap_used, reason = "Mlp::new builds at least one layer")]
        self.layers.last().unwrap().out_dim()
    }
}

/// Token/grid embedding table with gather-based lookup.
#[derive(Clone)]
pub struct Embedding {
    /// `vocab x dim` weight matrix.
    pub weight: Param,
}

impl Embedding {
    /// Creates a randomly initialized embedding table.
    pub fn new<R: Rng>(rng: &mut R, params: &mut ParamSet, vocab: usize, dim: usize) -> Self {
        let weight = params.register(Param::new(init::normal(rng, vocab, dim, 0.1)));
        Embedding { weight }
    }

    /// Wraps an existing (e.g. pre-trained) table. `frozen` parameters are
    /// registered but skipped by optimizers, matching the paper's frozen
    /// grid embeddings.
    pub fn from_table(params: &mut ParamSet, table: Tensor, frozen: bool) -> Self {
        let p = if frozen { Param::frozen(table) } else { Param::new(table) };
        Embedding { weight: params.register(p) }
    }

    /// Looks up a sequence of ids, producing an `len x dim` matrix.
    pub fn forward(&self, tape: &Tape, ids: &[usize]) -> Var {
        tape.param(&self.weight).gather_rows(ids)
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.weight.shape().1
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.weight.shape().0
    }
}

/// Sinusoidal positional encoding (Eq. 8 of the paper / Vaswani et al.).
///
/// Returns an `n x d` constant tensor with
/// `s_i(2k) = sin(i / 10000^{2k/d})` and `s_i(2k+1) = cos(i / 10000^{2k/d})`.
pub fn positional_encoding(n: usize, d: usize) -> Tensor {
    let mut out = Tensor::zeros(n, d);
    for i in 0..n {
        for k in 0..d {
            let exponent = 2.0 * (k / 2) as f32 / d as f32;
            let angle = i as f32 / 10000f32.powf(exponent);
            let v = if k % 2 == 0 { angle.sin() } else { angle.cos() };
            out.set(i, k, v);
        }
    }
    out
}

/// Process-wide cache of positional encodings keyed by `(n, d)`.
/// The encoding is a pure function of its shape and every training
/// forward needs one, so recomputing the `powf`/`sin` table per call
/// (~50 us for a 100 x 32 sequence) was measurable; the cache makes it
/// a lookup. Shared across threads — training replicas on worker
/// threads hit the same table. (Inference does not come here: the
/// forward-only evaluator in `traj2hash` keeps a per-model table.)
type PeCache = RwLock<HashMap<(usize, usize), Arc<Tensor>>>;
static PE_CACHE: OnceLock<PeCache> = OnceLock::new();

/// [`positional_encoding`] served from the process-wide cache; the
/// returned tensor is shared, never copied.
pub fn positional_encoding_cached(n: usize, d: usize) -> Arc<Tensor> {
    let cache = PE_CACHE.get_or_init(|| RwLock::new(HashMap::new()));
    if let Some(hit) = crate::sync::cread(cache).get(&(n, d)) {
        return Arc::clone(hit);
    }
    let fresh = Arc::new(positional_encoding(n, d));
    let mut w = crate::sync::cwrite(cache);
    Arc::clone(w.entry((n, d)).or_insert(fresh))
}

/// Multi-head scaled dot-product self-attention over an `n x d` sequence
/// (Eq. 12 plus the multi-head strategy the paper adopts from Vaswani et
/// al., including an output projection).
#[derive(Clone)]
pub struct MultiHeadSelfAttention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    wo: Linear,
    heads: usize,
}

impl MultiHeadSelfAttention {
    /// Creates an attention layer. `dim` must be divisible by `heads`.
    pub fn new<R: Rng>(rng: &mut R, params: &mut ParamSet, dim: usize, heads: usize) -> Self {
        assert!(heads > 0 && dim.is_multiple_of(heads), "dim {dim} not divisible by heads {heads}");
        MultiHeadSelfAttention {
            wq: Linear::new(rng, params, dim, dim),
            wk: Linear::new(rng, params, dim, dim),
            wv: Linear::new(rng, params, dim, dim),
            wo: Linear::new(rng, params, dim, dim),
            heads,
        }
    }

    /// The `[W_q, W_k, W_v, W_o]` projections and the head count.
    pub fn parts(&self) -> ([&Linear; 4], usize) {
        ([&self.wq, &self.wk, &self.wv, &self.wo], self.heads)
    }

    /// Applies self-attention to an `n x d` sequence.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        self.attend(tape, x, x)
    }

    /// Attention of the rows of `queries` over every row of the `n x d`
    /// sequence `x`: Q is projected from `queries`, K and V from `x`.
    /// Everything after the queries is row-wise, and the `Q·Kᵀ` kernel
    /// picks its summation order from the keys alone, so when `queries`
    /// holds rows of `x`, each output row is bit for bit the matching
    /// row of `forward(x)`.
    pub fn attend(&self, tape: &Tape, queries: &Var, x: &Var) -> Var {
        let (_, d) = x.shape();
        let dh = d / self.heads;
        let q = self.wq.forward(tape, queries);
        let k = self.wk.forward(tape, x);
        let v = self.wv.forward(tape, x);
        let scale = 1.0 / (dh as f32).sqrt();
        let mut head_outs: Option<Var> = None;
        for h in 0..self.heads {
            let qh = q.slice_cols(h * dh, dh);
            let kh = k.slice_cols(h * dh, dh);
            let vh = v.slice_cols(h * dh, dh);
            let scores = qh.matmul_nt(&kh).scale(scale);
            let attn = scores.softmax_rows();
            let out = attn.matmul(&vh);
            head_outs = Some(match head_outs {
                None => out,
                Some(acc) => acc.concat_cols(&out),
            });
        }
        self.wo.forward(tape, &head_outs.expect("at least one head"))
    }
}

/// One Attention–MLP block with residual connections (Eq. 11–12):
/// `x <- x + Attn(x)`, then `x <- MLP(x) + x`.
#[derive(Clone)]
pub struct EncoderBlock {
    attn: MultiHeadSelfAttention,
    mlp: Mlp,
}

impl EncoderBlock {
    /// Creates a block with a two-layer ReLU MLP of hidden width
    /// `hidden` and model width `dim`.
    pub fn new<R: Rng>(
        rng: &mut R,
        params: &mut ParamSet,
        dim: usize,
        hidden: usize,
        heads: usize,
    ) -> Self {
        EncoderBlock {
            attn: MultiHeadSelfAttention::new(rng, params, dim, heads),
            mlp: Mlp::new(rng, params, &[dim, hidden, dim]),
        }
    }

    /// The attention layer and the block MLP.
    pub fn parts(&self) -> (&MultiHeadSelfAttention, &Mlp) {
        (&self.attn, &self.mlp)
    }

    /// Applies the block to an `n x d` sequence.
    pub fn forward(&self, tape: &Tape, x: &Var) -> Var {
        let attended = x.add(&self.attn.forward(tape, x));
        self.mlp.forward(tape, &attended).add(&attended)
    }

    /// Row 0 of [`forward`](Self::forward), bit for bit, values and
    /// gradients: K and V see every row of `x`, Q, the attention, `W_o`,
    /// both residuals and the MLP run on row 0 alone — the block a
    /// read-out that keeps token 0 (Eq. 13) needs. The dropped rows'
    /// gradients were all `±0`, and every reduction over rows in the
    /// backward pass starts from zero in ascending row order, so they
    /// added nothing.
    pub fn forward_first_row(&self, tape: &Tape, x: &Var) -> Var {
        // Two selects, the second recorded after attention: the reverse
        // pass then adds row 0's gradients into `x` in `forward`'s order,
        // residual, V, K, Q. One shared select would sum them
        // `(V + K) + (residual + Q)` and round differently.
        let attn = self.attn.attend(tape, &x.select_row(0), x);
        let attended = x.select_row(0).add(&attn);
        self.mlp.forward(tape, &attended).add(&attended)
    }
}

/// Gated recurrent unit cell, the substrate for the RNN baselines
/// (NeuTraj, NT-No-SAM, t2vec, CL-TSim).
#[derive(Clone)]
pub struct GruCell {
    wz: Linear,
    wr: Linear,
    wh: Linear,
    uz: Param,
    ur: Param,
    uh: Param,
    hidden: usize,
}

impl GruCell {
    /// Creates a GRU cell mapping `in_dim` inputs to `hidden` state.
    pub fn new<R: Rng>(rng: &mut R, params: &mut ParamSet, in_dim: usize, hidden: usize) -> Self {
        GruCell {
            wz: Linear::new(rng, params, in_dim, hidden),
            wr: Linear::new(rng, params, in_dim, hidden),
            wh: Linear::new(rng, params, in_dim, hidden),
            uz: params.register(Param::new(init::xavier_uniform(rng, hidden, hidden))),
            ur: params.register(Param::new(init::xavier_uniform(rng, hidden, hidden))),
            uh: params.register(Param::new(init::xavier_uniform(rng, hidden, hidden))),
            hidden,
        }
    }

    /// Hidden state width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// A `1 x hidden` zero initial state on the given tape.
    pub fn zero_state(&self, tape: &Tape) -> Var {
        tape.constant(Tensor::zeros(1, self.hidden))
    }

    /// One step: `(x: 1 x in_dim, h: 1 x hidden) -> 1 x hidden`.
    pub fn step(&self, tape: &Tape, x: &Var, h: &Var) -> Var {
        let uz = tape.param(&self.uz);
        let ur = tape.param(&self.ur);
        let uh = tape.param(&self.uh);
        let z = self.wz.forward(tape, x).add(&h.matmul(&uz)).sigmoid();
        let r = self.wr.forward(tape, x).add(&h.matmul(&ur)).sigmoid();
        let h_tilde = self
            .wh
            .forward(tape, x)
            .add(&r.mul(h).matmul(&uh))
            .tanh();
        // h' = (1 - z) * h + z * h_tilde
        let one_minus_z = z.neg().add_scalar(1.0);
        one_minus_z.mul(h).add(&z.mul(&h_tilde))
    }

    /// Runs the cell over an `n x in_dim` sequence, returning all hidden
    /// states as an `n x hidden` matrix.
    pub fn run(&self, tape: &Tape, xs: &Var) -> Var {
        let (n, _) = xs.shape();
        assert!(n > 0, "GRU over an empty sequence");
        let mut h = self.zero_state(tape);
        let mut states: Option<Var> = None;
        for i in 0..n {
            let x = xs.select_row(i);
            h = self.step(tape, &x, &h);
            states = Some(match states {
                None => h.clone(),
                Some(acc) => acc.concat_rows(&h),
            });
        }
        #[expect(clippy::unwrap_used, reason = "n > 0 is asserted above, the loop ran")]
        states.unwrap()
    }

    /// Runs the cell and returns only the final state (`1 x hidden`) — the
    /// read-out NeuTraj uses, which the paper notes implicitly matches the
    /// lower-bound read-out for DTW/Fréchet.
    pub fn run_final(&self, tape: &Tape, xs: &Var) -> Var {
        let (n, _) = xs.shape();
        self.run(tape, xs).select_row(n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let mut params = ParamSet::new();
        let l = Linear::new(&mut rng(), &mut params, 4, 3);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(5, 4));
        assert_eq!(l.forward(&tape, &x).shape(), (5, 3));
        assert_eq!(params.len(), 2);
    }

    #[test]
    fn linear_bias_applied() {
        let mut params = ParamSet::new();
        let l = Linear::new(&mut rng(), &mut params, 2, 2);
        l.b.borrow_mut().value = Tensor::row_vector(&[1.0, -1.0]);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(1, 2));
        let y = l.forward(&tape, &x).value();
        assert_eq!(y.data(), &[1.0, -1.0]);
    }

    #[test]
    fn mlp_forward_and_out_dim() {
        let mut params = ParamSet::new();
        let m = Mlp::new(&mut rng(), &mut params, &[4, 8, 2]);
        assert_eq!(m.out_dim(), 2);
        let tape = Tape::new();
        let x = tape.constant(Tensor::zeros(3, 4));
        assert_eq!(m.forward(&tape, &x).shape(), (3, 2));
    }

    #[test]
    fn embedding_lookup() {
        let mut params = ParamSet::new();
        let e = Embedding::new(&mut rng(), &mut params, 10, 4);
        let tape = Tape::new();
        let out = e.forward(&tape, &[3, 3, 7]);
        assert_eq!(out.shape(), (3, 4));
        let v = out.value();
        assert_eq!(v.row(0), v.row(1));
        assert_ne!(v.row(0), v.row(2));
    }

    #[test]
    fn positional_encoding_matches_formula() {
        let pe = positional_encoding(3, 4);
        assert!((pe.get(0, 0) - 0.0).abs() < 1e-6); // sin(0)
        assert!((pe.get(0, 1) - 1.0).abs() < 1e-6); // cos(0)
        assert!((pe.get(2, 0) - 2.0f32.sin()).abs() < 1e-6);
        let expected = (2.0 / 10000f32.powf(0.5)).cos();
        assert!((pe.get(2, 3) - expected).abs() < 1e-6);
    }

    #[test]
    fn attention_preserves_shape_and_is_permutation_sensitive_with_pe() {
        let mut params = ParamSet::new();
        let attn = MultiHeadSelfAttention::new(&mut rng(), &mut params, 8, 2);
        let tape = Tape::new();
        let x = tape.constant(init::normal(&mut rng(), 5, 8, 1.0));
        let y = attn.forward(&tape, &x);
        assert_eq!(y.shape(), (5, 8));
        assert!(y.value().is_finite());
    }

    #[test]
    fn attention_is_permutation_equivariant_without_pe() {
        // Self-attention alone must commute with permuting the sequence;
        // this is why the positional encoding is needed at all.
        let mut r = rng();
        let mut params = ParamSet::new();
        let attn = MultiHeadSelfAttention::new(&mut r, &mut params, 4, 1);
        let x = init::normal(&mut r, 3, 4, 1.0);
        // swap rows 0 and 2
        let mut xp = x.clone();
        let row0: Vec<f32> = x.row(0).to_vec();
        let row2: Vec<f32> = x.row(2).to_vec();
        xp.row_mut(0).copy_from_slice(&row2);
        xp.row_mut(2).copy_from_slice(&row0);

        let tape = Tape::new();
        let y = attn.forward(&tape, &tape.constant(x)).value();
        let yp = attn.forward(&tape, &tape.constant(xp)).value();
        for c in 0..4 {
            assert!((y.get(0, c) - yp.get(2, c)).abs() < 1e-4);
            assert!((y.get(2, c) - yp.get(0, c)).abs() < 1e-4);
            assert!((y.get(1, c) - yp.get(1, c)).abs() < 1e-4);
        }
    }

    #[test]
    fn encoder_block_shape() {
        let mut params = ParamSet::new();
        let block = EncoderBlock::new(&mut rng(), &mut params, 8, 16, 2);
        let tape = Tape::new();
        let x = tape.constant(init::normal(&mut rng(), 6, 8, 1.0));
        assert_eq!(block.forward(&tape, &x).shape(), (6, 8));
    }

    /// How a test reaches row 0 of a block.
    enum RowZero {
        FullThenSelect,
        FirstRow,
        /// `forward_first_row` with one select feeding both Q and the
        /// residual.
        SharedSelect,
    }

    /// Row 0 of `block` over `x`, backpropagated from `seed`: the value,
    /// then every parameter's gradient, then the gradient into `x`.
    fn row_zero_run(
        block: &EncoderBlock,
        params: &ParamSet,
        x: &Tensor,
        seed: &Tensor,
        way: RowZero,
    ) -> Vec<Tensor> {
        let tape = Tape::new();
        let xp = Param::new(x.clone());
        let xv = tape.param(&xp);
        let out = match way {
            RowZero::FullThenSelect => block.forward(&tape, &xv).select_row(0),
            RowZero::FirstRow => block.forward_first_row(&tape, &xv),
            RowZero::SharedSelect => {
                let (attn, mlp) = block.parts();
                let x0 = xv.select_row(0);
                let attended = x0.add(&attn.attend(&tape, &x0, &xv));
                mlp.forward(&tape, &attended).add(&attended)
            }
        };
        out.backward_with(seed.clone());
        let mut all = vec![out.value()];
        all.extend(params.take_grads());
        all.push(xp.borrow().grad.clone());
        all
    }

    /// A block, an `n x d` input and a `1 x d` upstream gradient.
    fn row_zero_case(n: usize, heads: usize, d: usize) -> (EncoderBlock, ParamSet, Tensor, Tensor) {
        let mut r = StdRng::seed_from_u64((1000 * n + 10 * heads + d) as u64);
        let mut params = ParamSet::new();
        let block = EncoderBlock::new(&mut r, &mut params, d, 2 * d, heads);
        let x = init::normal(&mut r, n, d, 1.0);
        let seed = init::normal(&mut r, 1, d, 1.0);
        (block, params, x, seed)
    }

    fn same_bits(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn first_row_block_is_row_zero_of_the_full_block_bit_for_bit() {
        // n on both sides of the `Q·Kᵀ` order switch at 4·d_head keys
        // (d_head = 4, 8, 16, 32 here).
        for d in [16, 32] {
            for heads in [1, 2, 4] {
                for n in [1, 2, 7, 31, 32, 33, 63, 64, 65, 100] {
                    let (block, params, x, seed) = row_zero_case(n, heads, d);
                    let want = row_zero_run(&block, &params, &x, &seed, RowZero::FullThenSelect);
                    let got = row_zero_run(&block, &params, &x, &seed, RowZero::FirstRow);
                    assert_eq!(got.len(), want.len());
                    let last = want.len() - 1;
                    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                        let what = match i {
                            0 => "value".to_string(),
                            i if i == last => "gradient into x".to_string(),
                            i => format!("gradient of parameter {}", i - 1),
                        };
                        assert!(same_bits(g, w), "n {n}, heads {heads}, d {d}: {what} differs");
                    }
                }
            }
        }
    }

    #[test]
    fn one_shared_select_moves_the_input_gradient_bits() {
        // Same value and parameter gradients, and an input gradient equal
        // up to rounding, but summed in another order: the recording
        // order of the two selects is what keeps the bits.
        let (block, params, x, seed) = row_zero_case(33, 2, 32);
        let want = row_zero_run(&block, &params, &x, &seed, RowZero::FullThenSelect);
        let got = row_zero_run(&block, &params, &x, &seed, RowZero::SharedSelect);
        let (gx, wx) = (&got[got.len() - 1], &want[want.len() - 1]);
        assert!(got[..got.len() - 1].iter().zip(&want).all(|(g, w)| same_bits(g, w)));
        assert!(!same_bits(gx, wx), "a shared select kept every bit of the input gradient");
        assert!(gx.max_abs_diff(wx) < 1e-5);
    }

    #[test]
    fn gru_runs_and_depends_on_order() {
        let mut r = rng();
        let mut params = ParamSet::new();
        let cell = GruCell::new(&mut r, &mut params, 2, 4);
        let seq = init::normal(&mut r, 5, 2, 1.0);
        let mut rev_data = Vec::new();
        for i in (0..5).rev() {
            rev_data.extend_from_slice(seq.row(i));
        }
        let rev = Tensor::from_vec(5, 2, rev_data);

        let tape = Tape::new();
        let out = cell.run_final(&tape, &tape.constant(seq)).value();
        let out_rev = cell.run_final(&tape, &tape.constant(rev)).value();
        assert_eq!(out.shape(), (1, 4));
        assert!(out.max_abs_diff(&out_rev) > 1e-5, "GRU must be order-sensitive");
    }

    #[test]
    fn gru_gradients_flow_to_all_params() {
        let mut r = rng();
        let mut params = ParamSet::new();
        let cell = GruCell::new(&mut r, &mut params, 2, 3);
        let tape = Tape::new();
        let xs = tape.constant(init::normal(&mut r, 4, 2, 1.0));
        cell.run_final(&tape, &xs).sum_all().backward();
        for p in params.iter() {
            assert!(p.borrow().grad.norm() > 0.0, "a GRU parameter received no gradient");
        }
    }
}
