//! The light-weight decomposed grid representation (Section IV-C).
//!
//! Instead of one embedding per grid cell (`O(d * Ng^2)` parameters), each
//! cell `(x, y)` is represented as `e_g = e_x + e_y` (Eq. 5), reducing the
//! parameter count to `O(d * Ng)`. The embeddings are pre-trained with
//! noise contrastive estimation (Eq. 6): pull a sampled neighbour within
//! radius `r` (Eq. 7) closer in inner product, push a uniformly sampled
//! noise cell away. After pre-training, the table is frozen.
//!
//! The paper's raw NCE objective is unbounded (scaling all embeddings up
//! decreases it forever), so we keep its gradient but renormalize rows to
//! a maximum norm after each update — a standard stabilization that
//! preserves the learned directions.

use crate::grid::GridSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration of the NCE pre-training run.
#[derive(Debug, Clone)]
pub struct NceConfig {
    /// Embedding dimensionality `d`.
    pub dim: usize,
    /// Neighbour radius `r` (cells). The paper uses 5.
    pub radius: u32,
    /// Number of sampled neighbours per anchor (`N_p`, paper: 1).
    pub positives: usize,
    /// Number of sampled noise cells per anchor (`N_n`, paper: 1).
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// Full passes over the cell set.
    pub epochs: usize,
    /// Maximum row norm applied after each update.
    pub max_norm: f32,
    /// RNG seed.
    pub seed: u64,
}

/// Widens a `u32` grid coordinate into a row index.
#[inline]
fn gi(g: u32) -> usize {
    g as usize
}

impl Default for NceConfig {
    fn default() -> Self {
        NceConfig {
            dim: 32,
            radius: 5,
            positives: 1,
            negatives: 1,
            lr: 0.05,
            epochs: 3,
            max_norm: 1.0,
            seed: 17,
        }
    }
}

/// The decomposed per-axis embedding tables.
#[derive(Debug, Clone)]
pub struct DecomposedGridEmbedding {
    dim: usize,
    nx: usize,
    ny: usize,
    ex: Vec<f32>,
    ey: Vec<f32>,
}

impl DecomposedGridEmbedding {
    /// Random small initialization for a grid.
    pub fn init(spec: &GridSpec, dim: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rand_table = |n: usize| -> Vec<f32> {
            (0..n * dim)
                .map(|_| (rng.random::<f32>() - 0.5) * 0.2)
                .collect()
        };
        DecomposedGridEmbedding {
            dim,
            nx: spec.nx(),
            ny: spec.ny(),
            ex: rand_table(spec.nx()),
            ey: rand_table(spec.ny()),
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trainable scalars — `O(d * (nx + ny))`, the headline
    /// saving over a full per-cell table of `d * nx * ny`.
    pub fn num_parameters(&self) -> usize {
        self.ex.len() + self.ey.len()
    }

    /// The parameter count a full per-cell table would need.
    pub fn full_table_parameters(&self) -> usize {
        self.nx * self.ny * self.dim
    }

    /// Decomposes the embedding into raw parts
    /// `(dim, nx, ny, ex, ey)` for serialization (engine snapshots).
    pub fn raw_parts(&self) -> (usize, usize, usize, &[f32], &[f32]) {
        (self.dim, self.nx, self.ny, &self.ex, &self.ey)
    }

    /// Rebuilds an embedding from the parts returned by
    /// [`DecomposedGridEmbedding::raw_parts`], validating that the table
    /// lengths match `dim * nx` / `dim * ny`.
    pub fn from_raw_parts(
        dim: usize,
        nx: usize,
        ny: usize,
        ex: Vec<f32>,
        ey: Vec<f32>,
    ) -> Result<Self, String> {
        if ex.len() != dim * nx || ey.len() != dim * ny {
            return Err(format!(
                "grid table lengths ({}, {}) do not match dim {dim} x grid {nx}x{ny}",
                ex.len(),
                ey.len()
            ));
        }
        Ok(DecomposedGridEmbedding { dim, nx, ny, ex, ey })
    }

    fn ex_row(&self, gx: u32) -> &[f32] {
        let s = gi(gx) * self.dim;
        &self.ex[s..s + self.dim]
    }

    fn ey_row(&self, gy: u32) -> &[f32] {
        let s = gi(gy) * self.dim;
        &self.ey[s..s + self.dim]
    }

    /// The embedding of a cell: `e_g = e_x + e_y` (Eq. 5).
    pub fn embed(&self, gx: u32, gy: u32) -> Vec<f32> {
        self.ex_row(gx)
            .iter()
            .zip(self.ey_row(gy))
            .map(|(&a, &b)| a + b)
            .collect()
    }

    /// Writes the embedding of a cell into `out` (avoids allocation in
    /// hot encoding loops).
    pub fn embed_into(&self, gx: u32, gy: u32, out: &mut [f32]) {
        for ((o, &a), &b) in out.iter_mut().zip(self.ex_row(gx)).zip(self.ey_row(gy)) {
            *o = a + b;
        }
    }

    /// Inner-product similarity between two cells.
    pub fn similarity(&self, a: (u32, u32), b: (u32, u32)) -> f32 {
        self.embed(a.0, a.1)
            .iter()
            .zip(self.embed(b.0, b.1))
            .map(|(&x, y)| x * y)
            .sum()
    }

    fn renorm_row(row: &mut [f32], max_norm: f32) {
        let norm: f32 = row.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > max_norm {
            let s = max_norm / norm;
            row.iter_mut().for_each(|x| *x *= s);
        }
    }

    /// Pre-trains the tables with NCE over every cell of the grid
    /// (Eq. 6–7) and returns the wall-clock seconds spent. The sampling
    /// of a neighbour exploits the decomposition: offsets `x_s, y_s` are
    /// drawn directly in `[-r, r]` (excluding the zero offset) without any
    /// graph walk, which is why this is orders of magnitude faster than
    /// Node2vec pre-training (Fig. 7 discussion).
    pub fn pretrain(&mut self, spec: &GridSpec, cfg: &NceConfig) -> f64 {
        assert_eq!(self.dim, cfg.dim, "config dim must match table dim");
        let start = std::time::Instant::now();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        #[expect(clippy::cast_possible_truncation, reason = "grid dims are far below 2^32")]
        let (nx, ny) = (spec.nx() as u32, spec.ny() as u32);
        let r = cfg.radius as i64;
        let dim = self.dim;
        let mut g_buf = vec![0.0f32; dim];
        let mut p_buf = vec![0.0f32; dim];
        let mut n_buf = vec![0.0f32; dim];
        for _ in 0..cfg.epochs {
            for gy in 0..ny {
                for gx in 0..nx {
                    for _ in 0..cfg.positives.max(cfg.negatives) {
                        // neighbour within radius r (Eq. 7, symmetric)
                        let (px, py) = loop {
                            let dx = rng.random_range(-r..=r);
                            let dy = rng.random_range(-r..=r);
                            if dx == 0 && dy == 0 {
                                continue;
                            }
                            let px = gx as i64 + dx;
                            let py = gy as i64 + dy;
                            if px >= 0 && px < nx as i64 && py >= 0 && py < ny as i64 {
                                #[expect(
                                    clippy::cast_possible_truncation,
                                    clippy::cast_sign_loss,
                                    reason = "bounds-checked against [0, nx) x [0, ny) just above"
                                )]
                                break (px as u32, py as u32);
                            }
                        };
                        // noise cell: uniform over the grid, outside radius
                        let (qx, qy) = loop {
                            let qx = rng.random_range(0..nx);
                            let qy = rng.random_range(0..ny);
                            if (qx as i64 - gx as i64).abs() > r
                                || (qy as i64 - gy as i64).abs() > r
                            {
                                break (qx, qy);
                            }
                        };
                        self.embed_into(gx, gy, &mut g_buf);
                        self.embed_into(px, py, &mut p_buf);
                        self.embed_into(qx, qy, &mut n_buf);
                        // L = -e_g . e_p + e_g . e_n
                        // dL/de_g = -e_p + e_n ; dL/de_p = -e_g ; dL/de_n = e_g
                        let lr = cfg.lr;
                        for k in 0..dim {
                            let grad_g = -p_buf[k] + n_buf[k];
                            let grad_p = -g_buf[k];
                            let grad_n = g_buf[k];
                            // e_g = e_x[gx] + e_y[gy]: the gradient hits both.
                            self.ex[gi(gx) * dim + k] -= lr * grad_g;
                            self.ey[gi(gy) * dim + k] -= lr * grad_g;
                            self.ex[gi(px) * dim + k] -= lr * grad_p;
                            self.ey[gi(py) * dim + k] -= lr * grad_p;
                            self.ex[gi(qx) * dim + k] -= lr * grad_n;
                            self.ey[gi(qy) * dim + k] -= lr * grad_n;
                        }
                        for &(cx, _) in &[(gx, 0), (px, 0), (qx, 0)] {
                            Self::renorm_row(
                                &mut self.ex[gi(cx) * dim..(gi(cx) + 1) * dim],
                                cfg.max_norm,
                            );
                        }
                        for &(cy, _) in &[(gy, 0), (py, 0), (qy, 0)] {
                            Self::renorm_row(
                                &mut self.ey[gi(cy) * dim..(gi(cy) + 1) * dim],
                                cfg.max_norm,
                            );
                        }
                    }
                }
            }
        }
        start.elapsed().as_secs_f64()
    }
}

/// Anything that can embed a grid cell — implemented by the decomposed
/// representation and by the Node2vec full table, so the model's grid
/// channel can swap between them (Fig. 7 comparison).
pub trait GridEmbedding {
    /// Embedding dimensionality.
    fn dim(&self) -> usize;
    /// Writes the embedding of cell `(gx, gy)` into `out`.
    fn embed_into(&self, gx: u32, gy: u32, out: &mut [f32]);
    /// Number of trainable scalars (for parameter-count comparisons).
    fn num_parameters(&self) -> usize;
    /// The concrete decomposed tables behind this embedding, when it has
    /// them — the serializable representation engine snapshots persist.
    /// Defaults to `None` for providers (Node2vec) whose state is not
    /// snapshot-serializable.
    fn as_decomposed(&self) -> Option<&DecomposedGridEmbedding> {
        None
    }
}

impl GridEmbedding for DecomposedGridEmbedding {
    fn dim(&self) -> usize {
        DecomposedGridEmbedding::dim(self)
    }

    fn as_decomposed(&self) -> Option<&DecomposedGridEmbedding> {
        Some(self)
    }

    fn embed_into(&self, gx: u32, gy: u32, out: &mut [f32]) {
        DecomposedGridEmbedding::embed_into(self, gx, gy, out)
    }

    fn num_parameters(&self) -> usize {
        DecomposedGridEmbedding::num_parameters(self)
    }
}

impl GridEmbedding for crate::node2vec::Node2vecEmbedding {
    fn dim(&self) -> usize {
        crate::node2vec::Node2vecEmbedding::dim(self)
    }

    fn embed_into(&self, gx: u32, gy: u32, out: &mut [f32]) {
        crate::node2vec::Node2vecEmbedding::embed_into(self, gx, gy, out)
    }

    fn num_parameters(&self) -> usize {
        crate::node2vec::Node2vecEmbedding::num_parameters(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::BoundingBox;

    fn spec() -> GridSpec {
        GridSpec::new(BoundingBox::from_extent(600.0, 600.0), 20.0) // 30x30
    }

    #[test]
    fn parameter_saving_is_large() {
        let s = spec();
        let e = DecomposedGridEmbedding::init(&s, 16, 1);
        assert_eq!(e.num_parameters(), (30 + 30) * 16);
        assert_eq!(e.full_table_parameters(), 900 * 16);
        assert!(e.num_parameters() * 10 < e.full_table_parameters());
    }

    #[test]
    fn neighbours_share_coordinate_embeddings_before_training() {
        // The paper's example: cells (3,5) and (3,6) share e_x[3], so they
        // are already similar without any training.
        let s = spec();
        let e = DecomposedGridEmbedding::init(&s, 16, 2);
        let same_col = e.similarity((3, 5), (3, 6));
        let far = e.similarity((3, 5), (25, 28));
        assert!(same_col > far, "shared-coordinate cells must be more similar");
    }

    #[test]
    fn pretraining_improves_spatial_ordering() {
        let s = spec();
        let mut e = DecomposedGridEmbedding::init(&s, 16, 3);
        let cfg = NceConfig { epochs: 5, ..NceConfig::default() };
        let cfg = NceConfig { dim: 16, ..cfg };
        e.pretrain(&s, &cfg);
        // Average similarity of adjacent cells must exceed that of
        // far-apart cells, over a sample.
        let mut near = 0.0f32;
        let mut far = 0.0f32;
        let mut count = 0;
        for gx in (1..29u32).step_by(3) {
            for gy in (1..29u32).step_by(3) {
                near += e.similarity((gx, gy), (gx + 1, gy));
                far += e.similarity((gx, gy), ((gx + 15) % 30, (gy + 15) % 30));
                count += 1;
            }
        }
        assert!(
            near / count as f32 > far / count as f32,
            "near {} vs far {}",
            near / count as f32,
            far / count as f32
        );
    }

    #[test]
    fn embed_into_matches_embed() {
        let s = spec();
        let e = DecomposedGridEmbedding::init(&s, 8, 4);
        let mut buf = vec![0.0; 8];
        e.embed_into(5, 7, &mut buf);
        assert_eq!(buf, e.embed(5, 7));
    }

    #[test]
    fn rows_respect_max_norm_after_training() {
        let s = spec();
        let mut e = DecomposedGridEmbedding::init(&s, 8, 5);
        let cfg = NceConfig { dim: 8, epochs: 2, max_norm: 1.0, ..NceConfig::default() };
        e.pretrain(&s, &cfg);
        for gx in 0..30u32 {
            let norm: f32 = e.ex_row(gx).iter().map(|x| x * x).sum::<f32>().sqrt();
            assert!(norm <= 1.0 + 1e-4);
        }
    }
}
