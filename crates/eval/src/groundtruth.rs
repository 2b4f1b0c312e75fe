//! Exact ground-truth top-k computation for the test protocol
//! (Section V-A2): each query's true nearest neighbours in the database
//! under the chosen measure.
//!
//! The default path is the bucket-pruned sparse driver
//! ([`traj_dist::pruned_top_k`]): coarse-grid candidate seeding plus
//! lower-bound pruning skips the vast majority of exact distance
//! computations while returning bit-for-bit the dense result (see
//! `traj_dist::sparse` for the exactness argument). The dense
//! all-pairs scan, [`dense_ground_truth_top_k`], is the parity oracle
//! the pruned path is tested against.

use crate::error::EvalError;
use traj_data::Trajectory;
use traj_dist::{pruned_top_k, Measure, PruneStats, PrunedTopK};
use traj_index::{top_k_hits, Hit};

/// How ground truth is computed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroundTruthOptions {
    /// Coarse-grid cell size (meters) for the pruned driver's buckets.
    pub cell_m: f64,
    /// Worker thread cap; `None` uses the available parallelism.
    pub threads: Option<usize>,
}

impl Default for GroundTruthOptions {
    fn default() -> Self {
        GroundTruthOptions { cell_m: 500.0, threads: None }
    }
}

/// Computes, for every query, the indices of its `k` nearest database
/// trajectories under `measure`, via the bucket-pruned exact driver.
/// Parallelized over queries; worker failures surface as [`EvalError`].
pub fn ground_truth_top_k(
    queries: &[Trajectory],
    database: &[Trajectory],
    measure: Measure,
    k: usize,
) -> Result<Vec<Vec<usize>>, EvalError> {
    ground_truth_top_k_with(queries, database, measure, k, &GroundTruthOptions::default())
        .map(|(rows, _)| rows)
}

/// [`ground_truth_top_k`] with explicit options, also returning the
/// pruning counters.
pub fn ground_truth_top_k_with(
    queries: &[Trajectory],
    database: &[Trajectory],
    measure: Measure,
    k: usize,
    opts: &GroundTruthOptions,
) -> Result<(Vec<Vec<usize>>, PruneStats), EvalError> {
    let cfg = PrunedTopK {
        k,
        cell_m: opts.cell_m,
        keep_distances: false,
        threads: opts.threads,
    };
    let result = pruned_top_k(queries, database, measure, &cfg)?;
    Ok((result.top_k, result.stats))
}

/// The dense all-pairs oracle: every query scanned against every
/// database trajectory, parallelized over queries with typed errors on
/// worker failure.
pub fn dense_ground_truth_top_k(
    queries: &[Trajectory],
    database: &[Trajectory],
    measure: Measure,
    k: usize,
    threads: Option<usize>,
) -> Result<Vec<Vec<usize>>, EvalError> {
    let nq = queries.len();
    let threads = threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1))
        .clamp(1, nq.max(1));
    if threads <= 1 {
        return Ok(queries.iter().map(|q| top_k_one(q, database, measure, k)).collect());
    }
    let mut results: Vec<Option<Vec<usize>>> = vec![None; nq];
    let joined: Result<(), EvalError> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut out = Vec::new();
                    let mut i = t;
                    while i < nq {
                        out.push((i, top_k_one(&queries[i], database, measure, k)));
                        i += threads;
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            let worker = h.join().map_err(|_| EvalError::WorkerPanicked)?;
            for (i, r) in worker {
                results[i] = Some(r);
            }
        }
        Ok(())
    });
    joined?;
    let mut rows = Vec::with_capacity(nq);
    for r in results {
        match r {
            Some(row) => rows.push(row),
            None => return Err(EvalError::WorkerPanicked),
        }
    }
    Ok(rows)
}

/// Delegates to the shared NaN-sound selection helper
/// [`traj_index::top_k_hits`]: `total_cmp` ordering (a NaN distance can
/// never be ranked "nearest") with deterministic ascending-index ties.
fn top_k_one(query: &Trajectory, database: &[Trajectory], measure: Measure, k: usize) -> Vec<usize> {
    let scored: Vec<Hit> = database
        .iter()
        .enumerate()
        .map(|(i, t)| Hit { index: i, distance: measure.distance(query, t) })
        .collect();
    top_k_hits(scored, k).into_iter().map(|h| h.index).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{CityGenerator, CityParams};

    #[test]
    fn pruned_matches_dense_oracle() {
        let trajs = CityGenerator::new(CityParams::test_city(), 3).generate(60);
        let (queries, database) = trajs.split_at(10);
        for measure in Measure::paper_suite() {
            let pruned = ground_truth_top_k(queries, database, measure, 5).unwrap();
            let dense =
                dense_ground_truth_top_k(queries, database, measure, 5, None).unwrap();
            assert_eq!(pruned, dense, "parity failed for {measure}");
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let trajs = CityGenerator::new(CityParams::test_city(), 3).generate(40);
        let (queries, database) = trajs.split_at(10);
        let par = ground_truth_top_k(queries, database, Measure::Dtw, 5).unwrap();
        let ser: Vec<Vec<usize>> = queries
            .iter()
            .map(|q| top_k_one(q, database, Measure::Dtw, 5))
            .collect();
        assert_eq!(par, ser);
    }

    #[test]
    fn results_are_sorted_by_distance() {
        let trajs = CityGenerator::new(CityParams::test_city(), 4).generate(30);
        let (queries, database) = trajs.split_at(5);
        let truth = ground_truth_top_k(queries, database, Measure::Frechet, 10).unwrap();
        for (q, t) in queries.iter().zip(&truth) {
            assert_eq!(t.len(), 10);
            let dists: Vec<f64> =
                t.iter().map(|&j| Measure::Frechet.distance(q, &database[j])).collect();
            for w in dists.windows(2) {
                assert!(w[0] <= w[1] + 1e-12);
            }
        }
    }

    #[test]
    fn bad_cell_size_is_a_typed_error() {
        let trajs = CityGenerator::new(CityParams::test_city(), 6).generate(10);
        let opts = GroundTruthOptions { cell_m: 0.0, ..GroundTruthOptions::default() };
        assert_eq!(
            ground_truth_top_k_with(&trajs[..2], &trajs[2..], Measure::Dtw, 3, &opts),
            Err(EvalError::InvalidCellSize)
        );
    }
}
