//! A vantage-point tree for exact k-NN over dense embeddings.
//!
//! The paper motivates hashing with the observation that neural methods
//! "calculate all the distances between the query ... and the database",
//! i.e. they never prune the Euclidean search space. A VP-tree is the
//! classic metric-space answer: pick a vantage point, split the rest by
//! the median distance to it, and use the triangle inequality to skip
//! whole subtrees at query time. It complements the Hamming-space
//! structures as the Euclidean-space index of this library.

use crate::matrix::{euclidean_distance, EmbeddingMatrix};
use crate::search::Hit;
use crate::topk::sort_hits;
use std::sync::Arc;

#[derive(Debug)]
enum Node {
    Leaf(Vec<u32>),
    Inner {
        /// Index of the vantage point.
        vantage: u32,
        /// Median distance: inside subtree holds points with
        /// `d(vantage, x) <= radius`.
        radius: f64,
        inside: Box<Node>,
        outside: Box<Node>,
    },
}

/// An exact Euclidean k-NN index over fixed-width embeddings. The tree
/// reads the caller's [`EmbeddingMatrix`] through a shared handle and
/// keeps no copy of its own.
pub struct VpTree {
    root: Node,
    data: Arc<EmbeddingMatrix>,
}

impl VpTree {
    /// Copies `data` into a matrix and builds the tree over it.
    ///
    /// # Panics
    /// Panics if embeddings have inconsistent widths.
    pub fn build(data: Vec<Vec<f32>>) -> Self {
        let mut matrix = EmbeddingMatrix::default();
        for row in &data {
            matrix.push(row).unwrap_or_else(|e| panic!("VpTree::build: {e}"));
        }
        Self::over(Arc::new(matrix))
    }

    /// Builds the tree over embeddings the caller keeps sharing.
    /// Deterministic: the vantage point of each split is the first
    /// element of the current id set.
    pub fn over(data: Arc<EmbeddingMatrix>) -> Self {
        // lint: allow(lossy-cast) — corpus slots are capped far below 2^32 (u32 node ids by design)
        let ids: Vec<u32> = (0..data.len() as u32).collect();
        let root = Self::build_node(&data, ids);
        VpTree { root, data }
    }

    /// The embeddings this tree indexes (the handle it was built over).
    pub fn data(&self) -> &Arc<EmbeddingMatrix> {
        &self.data
    }

    fn build_node(data: &EmbeddingMatrix, mut ids: Vec<u32>) -> Node {
        const LEAF_SIZE: usize = 16;
        if ids.len() <= LEAF_SIZE {
            return Node::Leaf(ids);
        }
        let vantage = ids[0];
        let rest = ids.split_off(1);
        let mut scored: Vec<(f64, u32)> = rest
            .into_iter()
            // lint: allow(lossy-cast) — u32 node ids widen losslessly into usize
            .map(|id| (euclidean_distance(data.row(vantage as usize), data.row(id as usize)), id))
            .collect();
        // total_cmp puts NaN distances past the median split instead of
        // leaving the partition order comparator-dependent.
        scored.sort_by(|a, b| a.0.total_cmp(&b.0));
        let median = scored[scored.len() / 2].0;
        let (inside, outside): (Vec<_>, Vec<_>) =
            scored.into_iter().partition(|&(d, _)| d <= median);
        let inside_ids: Vec<u32> = inside.into_iter().map(|(_, id)| id).collect();
        let outside_ids: Vec<u32> = outside.into_iter().map(|(_, id)| id).collect();
        // Degenerate split (all points equidistant): fall back to a leaf
        // to guarantee progress.
        if inside_ids.is_empty() || outside_ids.is_empty() {
            let mut all = vec![vantage];
            all.extend(inside_ids);
            all.extend(outside_ids);
            return Node::Leaf(all);
        }
        Node::Inner {
            vantage,
            radius: median,
            inside: Box::new(Self::build_node(data, inside_ids)),
            outside: Box::new(Self::build_node(data, outside_ids)),
        }
    }

    /// Number of indexed embeddings.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Width of the indexed embeddings (0 for an empty tree).
    pub fn dim(&self) -> usize {
        self.data.dim()
    }

    /// True when the index holds nothing.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Exact k nearest neighbours of `query`, plus the number of distance
    /// evaluations spent (for pruning-effectiveness reports).
    ///
    /// # Panics
    /// Panics if the query width differs from the indexed embeddings'.
    pub fn top_k_counted(&self, query: &[f32], k: usize) -> (Vec<Hit>, usize) {
        assert_eq!(query.len(), self.dim(), "query width mismatch");
        if self.data.is_empty() || k == 0 {
            return (Vec::new(), 0);
        }
        // max-heap of current best k (distance, index)
        let mut best: Vec<(f64, u32)> = Vec::with_capacity(k + 1);
        let mut evaluations = 0usize;
        let mut tau = f64::INFINITY;
        self.search(&self.root, query, k, &mut best, &mut tau, &mut evaluations);
        let mut hits: Vec<Hit> =
            // lint: allow(lossy-cast) — u32 node ids widen losslessly into usize
            best.into_iter().map(|(d, i)| Hit { index: i as usize, distance: d }).collect();
        sort_hits(&mut hits);
        (hits, evaluations)
    }

    /// Exact k nearest neighbours.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.top_k_counted(query, k).0
    }

    fn consider(
        &self,
        id: u32,
        d: f64,
        k: usize,
        best: &mut Vec<(f64, u32)>,
        tau: &mut f64,
    ) {
        if best.len() < k {
            best.push((d, id));
            if best.len() == k {
                *tau = best
                    .iter()
                    .map(|&(bd, _)| bd)
                    .fold(f64::NEG_INFINITY, f64::max);
            }
        } else if d < *tau {
            // replace the current worst; ties among equal worst distances
            // evict the largest id so the survivors match the canonical
            // (distance, index) order of `topk::cmp_hits`
            let (worst_pos, _) = best
                .iter()
                .enumerate()
                .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0).then(a.1 .1.cmp(&b.1 .1)))
                .expect("best is non-empty");
            best[worst_pos] = (d, id);
            *tau = best
                .iter()
                .map(|&(bd, _)| bd)
                .fold(f64::NEG_INFINITY, f64::max);
        }
    }

    fn search(
        &self,
        node: &Node,
        query: &[f32],
        k: usize,
        best: &mut Vec<(f64, u32)>,
        tau: &mut f64,
        evaluations: &mut usize,
    ) {
        match node {
            Node::Leaf(ids) => {
                for &id in ids {
                    // lint: allow(lossy-cast) — u32 node ids widen losslessly into usize
                    let d = euclidean_distance(query, self.data.row(id as usize));
                    *evaluations += 1;
                    self.consider(id, d, k, best, tau);
                }
            }
            Node::Inner { vantage, radius, inside, outside } => {
                // lint: allow(lossy-cast) — u32 node ids widen losslessly into usize
                let d = euclidean_distance(query, self.data.row(*vantage as usize));
                *evaluations += 1;
                self.consider(*vantage, d, k, best, tau);
                // Visit the more promising side first.
                let (first, second) = if d <= *radius {
                    (inside, outside)
                } else {
                    (outside, inside)
                };
                self.search(first, query, k, best, tau, evaluations);
                // Triangle inequality: the other side can only contain a
                // better point if |d - radius| < tau.
                if (d - radius).abs() < *tau {
                    self.search(second, query, k, best, tau, evaluations);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::euclidean_top_k;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| (0..dim).map(|_| rng.random::<f32>() * 10.0 - 5.0).collect())
            .collect()
    }

    #[test]
    fn matches_brute_force() {
        let db = random_vectors(500, 8, 1);
        let tree = VpTree::build(db.clone());
        let queries = random_vectors(20, 8, 2);
        for q in &queries {
            for k in [1usize, 5, 17] {
                let got: Vec<usize> = tree.top_k(q, k).iter().map(|h| h.index).collect();
                let want: Vec<usize> =
                    euclidean_top_k(&db, q, k).iter().map(|h| h.index).collect();
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn prunes_distance_evaluations_on_clustered_data() {
        // clustered data lets the triangle inequality skip subtrees
        let mut rng = StdRng::seed_from_u64(3);
        let mut db = Vec::new();
        for c in 0..10 {
            let center = c as f32 * 100.0;
            for _ in 0..100 {
                db.push(vec![center + rng.random::<f32>(), center - rng.random::<f32>()]);
            }
        }
        let tree = VpTree::build(db.clone());
        let (_, evals) = tree.top_k_counted(&db[5], 5);
        assert!(
            evals < db.len() / 2,
            "VP-tree evaluated {evals}/{} distances — no pruning happened",
            db.len()
        );
    }

    #[test]
    fn handles_duplicates_and_tiny_inputs() {
        let db = vec![vec![1.0f32, 1.0]; 40];
        let tree = VpTree::build(db);
        let hits = tree.top_k(&[1.0, 1.0], 3);
        assert_eq!(hits.len(), 3);
        assert!(hits.iter().all(|h| h.distance == 0.0));

        let empty = VpTree::build(Vec::new());
        assert!(empty.is_empty());

        let single = VpTree::build(vec![vec![2.0f32]]);
        let hit = single.top_k(&[0.0], 1);
        assert_eq!(hit[0].index, 0);
        assert!((hit[0].distance - 2.0).abs() < 1e-9);
    }

    #[test]
    fn k_zero_and_k_over_len() {
        let db = random_vectors(10, 4, 4);
        let tree = VpTree::build(db.clone());
        assert!(tree.top_k(&db[0], 0).is_empty());
        assert_eq!(tree.top_k(&db[0], 100).len(), 10);
    }
}
