//! The forward-only evaluator behind [`Traj2Hash::embed`]: the same
//! `h_f^T` as [`Traj2Hash::embed_var`], bit for bit, without a tape.
//!
//! It shares three things with the training forward and nothing else.
//! *Parameters*: every weight is borrowed from its [`tinynn::Param`] at
//! call time, so an optimizer step, `load_values`, `load_bytes` or a hot
//! swap is visible to the next call — there is no snapshot to go stale.
//! *Kernels*: every product, softmax and bias-add goes through the
//! slice-level kernels of `tinynn::tensor` that the `Tensor` methods
//! (and therefore the tape ops) are thin wrappers over, so both forwards
//! execute the same loops in the same order. *Positional rows*: both
//! read them from the channel's prefix table (`encoder::PositionalTable`).
//!
//! What it does not do is the work the model's structure makes
//! unnecessary:
//!
//! * the lower-bound and CLS read-outs keep only token 0 of the last
//!   Attention–MLP block (Eq. 13), so that block projects K and V for
//!   every row but Q, the scores, the softmax, `W_o`, the residuals and
//!   the block MLP for row 0 alone. Each of those is row-wise, and
//!   [`matmul_nt_into`] picks its summation order from the key matrix
//!   only, so the one-row result *is* row 0 of the full one. The tape
//!   forward runs the same row-0 block
//!   ([`EncoderBlock::forward_first_row`]), so the parity test compares
//!   two shortcuts; `tinynn`'s layer tests hold it to the full block;
//! * the reversed direction of Eq. 15 sees the same points, so they are
//!   normalised, pushed through the point MLP and located on the grid
//!   once, and the reversed pass reads those rows back to front under
//!   its own positional encoding;
//! * heads are column ranges of Q/K/V read in place and intermediate
//!   results live in per-model scratch buffers — a steady-state call
//!   allocates its result and takes no process-wide lock.

#![deny(clippy::expect_used, clippy::panic, clippy::unreachable)]
#![deny(clippy::todo, clippy::unimplemented)]

use crate::config::Readout;
use crate::encoder::{GpsChannelEncoder, GridChannelEncoder};
use crate::error::EmbedError;
use crate::model::Traj2Hash;
use tinynn::tensor::{
    add_bias, matmul_into, matmul_nt_into, softmax_rows_in_place, MatMut, MatRef,
};
use tinynn::{EncoderBlock, Linear, Mlp, Tensor};
use traj_data::Trajectory;

/// Working memory of one model instance. Buffers keep their capacity
/// between calls; nothing here outlives a call as state.
#[derive(Default)]
pub(crate) struct Scratch {
    /// Point-MLP output and raw grid-cell embeddings, one row per point
    /// in trajectory order — shared by both directions.
    points: Vec<f32>,
    cells: Vec<f32>,
    /// The running sequence, and the per-block intermediates.
    x: Vec<f32>,
    q: Vec<f32>,
    k: Vec<f32>,
    v: Vec<f32>,
    /// One head's `K^T` as [`matmul_nt_into`] lays it out for its regime.
    k_t: Vec<f32>,
    scores: Vec<f32>,
    heads: Vec<f32>,
    y: Vec<f32>,
    z: Vec<f32>,
    hidden: Vec<f32>,
    /// The fused-channel input `[h_l, h_g]` of Eq. 14.
    fused: Vec<f32>,
}

fn sized(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.resize(len, 0.0);
    buf
}

/// `out = x W + b` over `rows` rows, through ReLU when `relu`.
fn linear(out: &mut Vec<f32>, x: &[f32], rows: usize, layer: &Linear, relu: bool) {
    let (w, b) = (layer.w.borrow(), layer.b.borrow());
    let (m, p) = w.value.shape();
    let out = sized(out, rows * p);
    matmul_into(MatMut::new(out, rows, p), MatRef::new(x, rows, m), w.value.view());
    add_bias(out, b.value.data(), relu);
}

/// Applies `net` to `rows` rows of `x`. The result lands in `out`;
/// `tmp` holds the hidden activations.
fn mlp(net: &Mlp, x: &[f32], rows: usize, out: &mut Vec<f32>, tmp: &mut Vec<f32>) {
    let layers = net.layers();
    for (i, layer) in layers.iter().enumerate() {
        let relu = i + 1 != layers.len();
        if i == 0 {
            linear(out, x, rows, layer, relu);
        } else {
            std::mem::swap(out, tmp);
            linear(out, tmp, rows, layer, relu);
        }
    }
}

/// Column-wise mean of the `d`-wide rows of `x`: an ascending sum, then
/// one multiply by `1 / rows`, as `Var::mean_rows` does.
fn mean_rows(x: &[f32], out: &mut [f32]) {
    out.fill(0.0);
    for row in x.chunks_exact(out.len()) {
        for (o, &v) in out.iter_mut().zip(row) {
            *o += v;
        }
    }
    let inv = 1.0 / (x.len() / out.len()) as f32;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// `dst[i] = src[i] + pe[i]` over `d`-wide rows, reading `src` back to
/// front when `reversed` (the reversed trajectory under its own
/// positional encoding).
fn add_positions(dst: &mut [f32], src: &[f32], pe: &[f32], d: usize, reversed: bool) {
    let n = src.len() / d;
    for (i, (row, pe_row)) in dst.chunks_exact_mut(d).zip(pe.chunks_exact(d)).enumerate() {
        let from = if reversed { n - 1 - i } else { i };
        for ((o, &s), &p) in row.iter_mut().zip(&src[from * d..(from + 1) * d]).zip(pe_row) {
            *o = s + p;
        }
    }
}

/// One Attention–MLP block (Eq. 11–12) over the `rows x d` sequence in
/// `s.x`, producing its first `q_rows` output rows in `s.x`: keys and
/// values see every row, everything downstream of the queries is
/// row-wise and runs on `q_rows` rows.
fn block(s: &mut Scratch, blk: &EncoderBlock, rows: usize, d: usize, q_rows: usize) {
    let (attn, net) = blk.parts();
    let ([wq, wk, wv, wo], heads) = attn.parts();
    let dh = d / heads;
    let scale = 1.0 / (dh as f32).sqrt();
    linear(&mut s.q, &s.x[..q_rows * d], q_rows, wq, false);
    linear(&mut s.k, &s.x, rows, wk, false);
    linear(&mut s.v, &s.x, rows, wv, false);
    sized(&mut s.scores, q_rows * rows);
    sized(&mut s.heads, q_rows * d);
    for h in 0..heads {
        let at = h * dh;
        matmul_nt_into(
            MatMut::new(&mut s.scores, q_rows, rows),
            MatRef::new(&s.q, q_rows, d).cols_range(at, dh),
            MatRef::new(&s.k, rows, d).cols_range(at, dh),
            &mut s.k_t,
        );
        for x in s.scores.iter_mut() {
            *x *= scale;
        }
        softmax_rows_in_place(&mut s.scores, rows);
        matmul_into(
            MatMut::new(&mut s.heads, q_rows, d).cols_range(at, dh),
            MatRef::new(&s.scores, q_rows, rows),
            MatRef::new(&s.v, rows, d).cols_range(at, dh),
        );
    }
    linear(&mut s.y, &s.heads, q_rows, wo, false);
    // x <- x + Attn(x), then x <- MLP(x) + x, operands in the tape's order.
    s.x.truncate(q_rows * d);
    for (x, &a) in s.x.iter_mut().zip(&s.y) {
        *x += a;
    }
    mlp(net, &s.x, q_rows, &mut s.z, &mut s.hidden);
    for (m, &x) in s.z.iter_mut().zip(&s.x) {
        *m += x;
    }
    std::mem::swap(&mut s.x, &mut s.z);
}

/// The GPS channel of one direction (Eq. 10–13) into `s.fused[..d]`.
fn gps_direction(s: &mut Scratch, enc: &GpsChannelEncoder, n: usize, reversed: bool) {
    let d = enc.dim;
    let lead = usize::from(enc.cls.is_some());
    let mut rows = n + lead;
    sized(&mut s.x, rows * d);
    if let Some(cls) = &enc.cls {
        s.x[..d].copy_from_slice(cls.borrow().value.data());
    }
    add_positions(&mut s.x[lead * d..], &s.points, &enc.pe.rows(n), d, reversed);
    for (i, blk) in enc.blocks.iter().enumerate() {
        let last = i + 1 == enc.blocks.len();
        let q_rows = if last && enc.readout != Readout::Mean { 1 } else { rows };
        block(s, blk, rows, d, q_rows);
        rows = q_rows;
    }
    match enc.readout {
        Readout::Mean => mean_rows(&s.x, &mut s.fused[..d]),
        Readout::LowerBound | Readout::Cls => s.fused[..d].copy_from_slice(&s.x[..d]),
    }
}

/// The grid channel of one direction (Eq. 9) into `s.fused[d..]`.
fn grid_direction(s: &mut Scratch, enc: &GridChannelEncoder, n: usize, reversed: bool, d: usize) {
    let gd = enc.emb.dim();
    add_positions(sized(&mut s.x, n * gd), &s.cells, &enc.pe.rows(n), gd, reversed);
    mlp(&enc.mlp, &s.x, n, &mut s.z, &mut s.hidden);
    mean_rows(&s.z, &mut s.fused[d..]);
}

/// The Euclidean embedding `h_f^T` of `t` (Eq. 15), or why `t` has none.
pub(crate) fn try_embed(model: &Traj2Hash, t: &Trajectory) -> Result<Tensor, EmbedError> {
    EmbedError::check(t)?;
    let s = &mut *model.scratch.borrow_mut();
    let (gps, grid) = (&model.gps, model.grid.as_ref());
    let (n, d) = (t.len(), gps.dim);

    for (f, &p) in sized(&mut s.y, n * 2).chunks_exact_mut(2).zip(&t.points) {
        (f[0], f[1]) = gps.norm.apply_point(p);
    }
    linear(&mut s.points, &s.y, n, &gps.point_mlp, false);
    if let Some(grid) = grid {
        let gd = grid.emb.dim();
        for (row, &p) in sized(&mut s.cells, n * gd).chunks_exact_mut(gd).zip(&t.points) {
            let (gx, gy) = grid.spec.locate(p);
            grid.emb.embed_into(gx, gy, row);
        }
    }

    let w_p = model.projector.borrow();
    let width = w_p.value.cols();
    let directions = if model.config().use_rev_aug { 2 } else { 1 };
    let mut out = vec![0.0f32; directions * width];
    sized(&mut s.fused, if grid.is_some() { 2 * d } else { d });
    for (dir, out_dir) in out.chunks_exact_mut(width).enumerate() {
        let reversed = dir == 1;
        gps_direction(s, gps, n, reversed);
        if let Some(grid) = grid {
            grid_direction(s, grid, n, reversed, d);
        }
        mlp(&model.fuse, &s.fused, 1, &mut s.z, &mut s.hidden);
        matmul_into(MatMut::new(out_dir, 1, width), MatRef::new(&s.z, 1, d), w_p.value.view());
    }
    Ok(Tensor::from_vec(1, directions * width, out))
}
