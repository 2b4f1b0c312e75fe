//! Fast trajectory triplet generation (Section IV-F).
//!
//! Exact distances are too expensive to compute for a large corpus, but
//! the ranking-based hashing objective only needs *relative* supervision.
//! The paper's trick: convert trajectories to coarse (500 m) grid
//! trajectories and cluster the ones that share the same grid sequence —
//! within a cluster, the Fréchet distance is bounded by the cell size, so
//! any in-cluster pair is a safe (anchor, positive) and any out-of-cluster
//! trajectory is a safe negative.

use crate::grid::{GridSpec, GridTrajectory};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::HashMap;
use traj_data::Trajectory;

/// A triplet of corpus indices `(anchor, positive, negative)`.
pub type Triplet = (usize, usize, usize);

/// Clusters of corpus indices sharing the same canonical coarse grid
/// trajectory, plus summary statistics.
#[derive(Debug, Clone)]
pub struct GridClusters {
    /// Clusters with at least two members (usable for triplets).
    pub clusters: Vec<Vec<usize>>,
    /// Number of trajectories that ended up in singleton clusters.
    pub singletons: usize,
    /// Size of the largest cluster.
    pub max_cluster: usize,
}

/// Endpoint key of a bucket: the first and last cell coordinates of the
/// shared canonical grid trajectory, `(fx, fy, lx, ly)`.
pub type EndpointKey = (u32, u32, u32, u32);

/// Sentinel key for the (degenerate) bucket of empty trajectories.
const EMPTY_KEY: EndpointKey = (u32::MAX, u32::MAX, u32::MAX, u32::MAX);

/// Every coarse-grid bucket — singletons included, unlike
/// [`GridClusters`] — plus an endpoint-cell index so callers can gather
/// "this bucket and its spatial neighbors" as candidate sets. This is
/// the region-granularity first filter of the pruned exact-distance
/// pipeline: trajectories sharing (or bordering) start and end cells are
/// the most likely nearest neighbors, so they seed a tight top-k
/// threshold before the lower-bound sweep over everything else.
#[derive(Debug, Clone)]
pub struct GridBuckets {
    /// Member lists, each ascending, in deterministic bucket order.
    pub buckets: Vec<Vec<usize>>,
    /// Bucket id of each trajectory.
    pub bucket_of: Vec<usize>,
    keys: Vec<EndpointKey>,
    endpoint_index: HashMap<EndpointKey, Vec<usize>>,
    spec: GridSpec,
}

/// Groups trajectories into buckets by canonical coarse grid trajectory,
/// keeping every bucket (singletons included) and indexing buckets by
/// their endpoint cells.
pub fn bucket_by_grid(trajectories: &[Trajectory], spec: &GridSpec) -> GridBuckets {
    let mut map: HashMap<GridTrajectory, Vec<usize>> = HashMap::new();
    for (i, t) in trajectories.iter().enumerate() {
        map.entry(spec.canonical_grid_trajectory(t)).or_default().push(i);
    }
    // Deterministic ordering regardless of HashMap iteration order:
    // member lists are ascending and disjoint, so sorting by them totally
    // orders the buckets.
    let mut entries: Vec<(GridTrajectory, Vec<usize>)> = map.into_iter().collect();
    entries.sort_by(|a, b| a.1.cmp(&b.1));

    let mut buckets = Vec::with_capacity(entries.len());
    let mut keys = Vec::with_capacity(entries.len());
    let mut bucket_of = vec![usize::MAX; trajectories.len()];
    let mut endpoint_index: HashMap<EndpointKey, Vec<usize>> = HashMap::new();
    for (bi, (cells, members)) in entries.into_iter().enumerate() {
        let key = match (cells.first(), cells.last()) {
            (Some(&(fx, fy)), Some(&(lx, ly))) => (fx, fy, lx, ly),
            _ => EMPTY_KEY,
        };
        for &m in &members {
            bucket_of[m] = bi;
        }
        endpoint_index.entry(key).or_default().push(bi);
        keys.push(key);
        buckets.push(members);
    }
    GridBuckets { buckets, bucket_of, keys, endpoint_index, spec: spec.clone() }
}

impl GridBuckets {
    /// Number of buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Endpoint key of bucket `b`.
    pub fn bucket_key(&self, b: usize) -> EndpointKey {
        self.keys[b]
    }

    /// Endpoint key of an arbitrary trajectory under this bucketing's
    /// grid (the canonical grid trajectory keeps the first and last
    /// cells, so locating the endpoints directly is equivalent).
    pub fn endpoint_key(&self, t: &Trajectory) -> EndpointKey {
        if t.is_empty() {
            return EMPTY_KEY;
        }
        let (fx, fy) = self.spec.locate(t.first());
        let (lx, ly) = self.spec.locate(t.last());
        (fx, fy, lx, ly)
    }

    /// Bucket ids whose endpoint cells are each within Chebyshev
    /// distance 1 of `t`'s endpoint cells — `t`'s own bucket (if the
    /// trajectory came from this corpus) plus its spatial neighbors.
    /// Sorted ascending; deterministic.
    pub fn candidate_buckets(&self, t: &Trajectory) -> Vec<usize> {
        let key = self.endpoint_key(t);
        if key == EMPTY_KEY {
            return self.endpoint_index.get(&EMPTY_KEY).cloned().unwrap_or_default();
        }
        let (fx, fy, lx, ly) = key;
        let mut out = Vec::new();
        for dfx in -1i64..=1 {
            for dfy in -1i64..=1 {
                for dlx in -1i64..=1 {
                    for dly in -1i64..=1 {
                        let nf = (fx as i64 + dfx, fy as i64 + dfy);
                        let nl = (lx as i64 + dlx, ly as i64 + dly);
                        if nf.0 < 0 || nf.1 < 0 || nl.0 < 0 || nl.1 < 0 {
                            continue;
                        }
                        #[expect(
                            clippy::cast_possible_truncation,
                            clippy::cast_sign_loss,
                            reason = "nonnegative (checked above) grid coordinates, far below 2^32"
                        )]
                        let probe = (nf.0 as u32, nf.1 as u32, nl.0 as u32, nl.1 as u32);
                        if let Some(ids) = self.endpoint_index.get(&probe) {
                            out.extend_from_slice(ids);
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

/// Groups trajectories by their canonical coarse grid trajectory.
pub fn cluster_by_grid(trajectories: &[Trajectory], spec: &GridSpec) -> GridClusters {
    let bucketing = bucket_by_grid(trajectories, spec);
    let mut clusters = Vec::new();
    let mut singletons = 0;
    let mut max_cluster = 0;
    for members in bucketing.buckets {
        max_cluster = max_cluster.max(members.len());
        if members.len() >= 2 {
            clusters.push(members);
        } else {
            singletons += 1;
        }
    }
    // Bucket order is already the sorted member-list order.
    GridClusters { clusters, singletons, max_cluster }
}

/// Generates up to `count` triplets from the clusters.
///
/// Anchors and positives are drawn from the same cluster, negatives
/// uniformly from the full corpus excluding the anchor's cluster. Returns
/// fewer triplets (possibly zero) if no cluster has two members.
pub fn generate_triplets(
    trajectories: &[Trajectory],
    spec: &GridSpec,
    count: usize,
    seed: u64,
) -> Vec<Triplet> {
    let clustering = cluster_by_grid(trajectories, spec);
    triplets_from_clusters(&clustering, trajectories.len(), count, seed)
}

/// Samples triplets given a precomputed clustering (exposed so harnesses
/// can report clustering statistics without re-clustering).
pub fn triplets_from_clusters(
    clustering: &GridClusters,
    corpus_size: usize,
    count: usize,
    seed: u64,
) -> Vec<Triplet> {
    if clustering.clusters.is_empty() || corpus_size < 3 {
        return Vec::new();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(count);
    let mut in_cluster = vec![usize::MAX; corpus_size];
    for (ci, members) in clustering.clusters.iter().enumerate() {
        for &m in members {
            in_cluster[m] = ci;
        }
    }
    let mut attempts = 0usize;
    while out.len() < count && attempts < count * 10 {
        attempts += 1;
        let cluster = &clustering.clusters[rng.random_range(0..clustering.clusters.len())];
        let a = cluster[rng.random_range(0..cluster.len())];
        let mut p = cluster[rng.random_range(0..cluster.len())];
        if cluster.len() == 1 {
            continue;
        }
        while p == a {
            p = cluster[rng.random_range(0..cluster.len())];
        }
        // negative from outside the anchor's cluster
        let mut n = rng.random_range(0..corpus_size);
        let mut guard = 0;
        while in_cluster[n] == in_cluster[a] && guard < 100 {
            n = rng.random_range(0..corpus_size);
            guard += 1;
        }
        if in_cluster[n] == in_cluster[a] {
            continue;
        }
        out.push((a, p, n));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{BoundingBox, CityGenerator, CityParams};

    fn coarse_spec(extent: f64, cell: f64) -> GridSpec {
        GridSpec::new(BoundingBox::from_extent(extent, extent), cell)
    }

    #[test]
    fn clusters_group_identical_grid_sequences() {
        let spec = coarse_spec(1000.0, 500.0);
        let trajs = vec![
            Trajectory::from_xy(&[(10.0, 10.0), (600.0, 80.0)]),
            Trajectory::from_xy(&[(450.0, 450.0), (990.0, 490.0)]), // same cells
            Trajectory::from_xy(&[(10.0, 900.0), (600.0, 900.0)]),  // different cells
        ];
        let c = cluster_by_grid(&trajs, &spec);
        assert_eq!(c.clusters.len(), 1);
        assert_eq!(c.clusters[0], vec![0, 1]);
        assert_eq!(c.singletons, 1);
        assert_eq!(c.max_cluster, 2);
    }

    #[test]
    fn buckets_keep_singletons_and_agree_with_clusters() {
        let params = CityParams::test_city();
        let trajs = CityGenerator::new(params.clone(), 8).generate(200);
        let spec = coarse_spec(params.width, 500.0);
        let buckets = bucket_by_grid(&trajs, &spec);
        let clusters = cluster_by_grid(&trajs, &spec);
        // every trajectory belongs to exactly one bucket
        let mut seen = vec![false; trajs.len()];
        for (bi, members) in buckets.buckets.iter().enumerate() {
            assert!(!members.is_empty());
            for &m in members {
                assert!(!seen[m], "trajectory in two buckets");
                seen[m] = true;
                assert_eq!(buckets.bucket_of[m], bi);
            }
        }
        assert!(seen.iter().all(|&s| s));
        // clusters are exactly the multi-member buckets
        let multi: Vec<Vec<usize>> =
            buckets.buckets.iter().filter(|b| b.len() >= 2).cloned().collect();
        assert_eq!(clusters.clusters, multi);
        let singles = buckets.buckets.iter().filter(|b| b.len() == 1).count();
        assert_eq!(clusters.singletons, singles);
    }

    #[test]
    fn candidate_buckets_include_own_and_touching_neighbors() {
        let spec = coarse_spec(1000.0, 100.0);
        let trajs = vec![
            Trajectory::from_xy(&[(50.0, 50.0), (250.0, 50.0)]),  // cells (0,0)->(2,0)
            Trajectory::from_xy(&[(150.0, 50.0), (350.0, 50.0)]), // (1,0)->(3,0): both endpoints adjacent
            Trajectory::from_xy(&[(850.0, 850.0), (950.0, 950.0)]), // far away
        ];
        let buckets = bucket_by_grid(&trajs, &spec);
        let cands = buckets.candidate_buckets(&trajs[0]);
        assert!(cands.contains(&buckets.bucket_of[0]), "own bucket present");
        assert!(cands.contains(&buckets.bucket_of[1]), "adjacent-endpoint bucket present");
        assert!(!cands.contains(&buckets.bucket_of[2]), "distant bucket absent");
    }

    #[test]
    fn candidate_buckets_are_deterministic_and_sorted() {
        let params = CityParams::test_city();
        let trajs = CityGenerator::new(params.clone(), 11).generate(150);
        let spec = coarse_spec(params.width, 500.0);
        let buckets = bucket_by_grid(&trajs, &spec);
        for t in trajs.iter().take(20) {
            let a = buckets.candidate_buckets(t);
            let b = buckets.candidate_buckets(t);
            assert_eq!(a, b);
            assert!(a.windows(2).all(|w| w[0] < w[1]), "sorted, no duplicates");
        }
    }

    #[test]
    fn triplets_have_valid_structure() {
        let params = CityParams::test_city();
        let trajs = CityGenerator::new(params.clone(), 8).generate(300);
        let spec = coarse_spec(params.width, 500.0);
        let triplets = generate_triplets(&trajs, &spec, 200, 1);
        assert!(!triplets.is_empty(), "synthetic corridors should produce clusters");
        let clustering = cluster_by_grid(&trajs, &spec);
        let mut cluster_of = vec![usize::MAX; trajs.len()];
        for (ci, members) in clustering.clusters.iter().enumerate() {
            for &m in members {
                cluster_of[m] = ci;
            }
        }
        for &(a, p, n) in &triplets {
            assert_ne!(a, p);
            assert_eq!(cluster_of[a], cluster_of[p], "anchor/positive share a cluster");
            assert_ne!(cluster_of[a], cluster_of[n], "negative is outside the cluster");
        }
    }

    #[test]
    fn triplets_are_deterministic_under_seed() {
        let trajs = CityGenerator::new(CityParams::test_city(), 9).generate(200);
        let spec = coarse_spec(2000.0, 500.0);
        let a = generate_triplets(&trajs, &spec, 50, 5);
        let b = generate_triplets(&trajs, &spec, 50, 5);
        assert_eq!(a, b);
    }

    #[test]
    fn positive_is_closer_than_negative_under_frechet_mostly() {
        // The premise of the method: in-cluster pairs are closer than
        // out-of-cluster pairs for the vast majority of triplets.
        let params = CityParams::test_city();
        let trajs = CityGenerator::new(params.clone(), 10).generate(300);
        let spec = coarse_spec(params.width, 500.0);
        let triplets = generate_triplets(&trajs, &spec, 100, 2);
        assert!(!triplets.is_empty());
        let frechet = |a: &Trajectory, b: &Trajectory| -> f64 {
            // discrete Fréchet via DP (small inputs, test-only)
            let n = a.len();
            let m = b.len();
            let mut dp = vec![vec![f64::INFINITY; m]; n];
            for i in 0..n {
                for j in 0..m {
                    let d = a.points[i].distance(&b.points[j]);
                    dp[i][j] = if i == 0 && j == 0 {
                        d
                    } else {
                        let mut r = f64::INFINITY;
                        if i > 0 {
                            r = r.min(dp[i - 1][j]);
                        }
                        if j > 0 {
                            r = r.min(dp[i][j - 1]);
                        }
                        if i > 0 && j > 0 {
                            r = r.min(dp[i - 1][j - 1]);
                        }
                        r.max(d)
                    };
                }
            }
            dp[n - 1][m - 1]
        };
        let good = triplets
            .iter()
            .filter(|&&(a, p, n)| {
                frechet(&trajs[a], &trajs[p]) < frechet(&trajs[a], &trajs[n])
            })
            .count();
        assert!(
            good * 10 >= triplets.len() * 9,
            "only {good}/{} triplets are correctly ordered",
            triplets.len()
        );
    }

    #[test]
    fn empty_corpus_yields_no_triplets() {
        let spec = coarse_spec(1000.0, 500.0);
        assert!(generate_triplets(&[], &spec, 10, 0).is_empty());
    }
}
