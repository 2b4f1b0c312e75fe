//! A vantage-point tree for exact k-NN over dense embeddings.
//!
//! The paper motivates hashing with the observation that neural methods
//! "calculate all the distances between the query ... and the database",
//! i.e. they never prune the Euclidean search space. A VP-tree is the
//! classic metric-space answer: pick a vantage point, split the rest by
//! the median distance to it, and use the triangle inequality to skip
//! whole subtrees at query time. It complements the Hamming-space
//! structures as the Euclidean-space index of this library, and it is
//! exact under the same `(distance, index)` order as a full scan, so the
//! serving engine answers `EuclideanBf` from it alone.

use crate::matrix::{euclidean_distance, EmbeddingMatrix};
use crate::search::Hit;
use crate::topk::{cmp_hits, sort_hits};
use std::cmp::Ordering;
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
        #[expect(clippy::cast_possible_truncation, reason = "corpus slots are far below 2^32")]
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

    /// Exact k nearest neighbours of `query` under the `(distance,
    /// index)` order of [`cmp_hits`] — the hits *and* the ids a full scan
    /// ([`euclidean_top_k`](crate::euclidean_top_k)) returns, ties
    /// included — plus the number of distance evaluations spent (for
    /// pruning-effectiveness reports).
    ///
    /// # Panics
    /// Panics if the query width differs from the indexed embeddings'.
    pub fn top_k_counted(&self, query: &[f32], k: usize) -> (Vec<Hit>, usize) {
        assert_eq!(query.len(), self.dim(), "query width mismatch");
        if self.data.is_empty() || k == 0 {
            return (Vec::new(), 0);
        }
        let mut best = Best { hits: Vec::with_capacity(k.min(self.len())), k, worst: 0 };
        let mut evaluations = 0usize;
        self.search(&self.root, query, &mut best, &mut evaluations);
        let mut hits = best.hits;
        sort_hits(&mut hits);
        (hits, evaluations)
    }

    /// Exact k nearest neighbours.
    pub fn top_k(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.top_k_counted(query, k).0
    }

    fn visit(&self, id: u32, query: &[f32], best: &mut Best, evaluations: &mut usize) -> f64 {
        let index = id as usize;
        let distance = euclidean_distance(query, self.data.row(index));
        *evaluations += 1;
        best.consider(Hit { index, distance });
        distance
    }

    fn search(&self, node: &Node, query: &[f32], best: &mut Best, evaluations: &mut usize) {
        match node {
            Node::Leaf(ids) => {
                for &id in ids {
                    self.visit(id, query, best, evaluations);
                }
            }
            Node::Inner { vantage, radius, inside, outside } => {
                let d = self.visit(*vantage, query, best, evaluations);
                // Visit the more promising side first.
                let (first, second) = if d <= *radius {
                    (inside, outside)
                } else {
                    (outside, inside)
                };
                self.search(first, query, best, evaluations);
                // Triangle inequality: every point of the other side is
                // at least |d - radius| from the query. A point exactly at
                // τ may still win on its lower index, so only a bound past
                // τ prunes — by more than the rounding of the three
                // computed distances, or a last-ulp near-tie could be cut.
                // A NaN bound never prunes.
                let tau = best.tau();
                let slack = ROUNDING_SLACK * (d + radius + tau);
                let prunable = (d - radius).abs() > tau + slack;
                if !prunable {
                    self.search(second, query, best, evaluations);
                }
            }
        }
    }
}

/// Relative slack on the triangle-inequality bound. Each distance is an
/// `f64` sum of `dim` squares, off by a few ulps per term (≈ 1e-14
/// relative at the widths this workspace uses); 1e-9 covers that with
/// room and prunes nothing a real gap would have kept.
const ROUNDING_SLACK: f64 = 1e-9;

/// The running k best hits under [`cmp_hits`], unordered.
struct Best {
    hits: Vec<Hit>,
    k: usize,
    /// Position of the largest hit once `hits` is full.
    worst: usize,
}

impl Best {
    /// The pruning radius: the k-th best distance so far, infinite until
    /// k hits are held.
    fn tau(&self) -> f64 {
        if self.hits.len() < self.k {
            f64::INFINITY
        } else {
            self.hits[self.worst].distance
        }
    }

    /// Keeps `hit` if it precedes the current worst in `(distance,
    /// index)` order, so an equally near lower index found later still
    /// wins its place.
    fn consider(&mut self, hit: Hit) {
        if self.hits.len() < self.k {
            self.hits.push(hit);
        } else if cmp_hits(&hit, &self.hits[self.worst]) == Ordering::Less {
            self.hits[self.worst] = hit;
        } else {
            return;
        }
        if self.hits.len() == self.k {
            self.worst = (0..self.k)
                .max_by(|&a, &b| cmp_hits(&self.hits[a], &self.hits[b]))
                .expect("k > 0 hits are held");
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

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Integer-valued coordinates make exact distance ties and
        /// duplicate rows common; the tree must still return the scan's
        /// ids, which break every tie by the lower index.
        #[test]
        fn ids_equal_the_scan_under_ties_and_duplicates(
            db in proptest::collection::vec(proptest::collection::vec(-3i8..=3, 4), 1..120),
            query in proptest::collection::vec(-3i8..=3, 4),
        ) {
            let db: Vec<Vec<f32>> =
                db.iter().map(|row| row.iter().map(|&x| f32::from(x)).collect()).collect();
            let query: Vec<f32> = query.iter().map(|&x| f32::from(x)).collect();
            let tree = VpTree::build(db.clone());
            for k in [1usize, 5, 17, db.len()] {
                proptest::prop_assert_eq!(tree.top_k(&query, k), euclidean_top_k(&db, &query, k));
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
