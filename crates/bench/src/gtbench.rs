//! Ground-truth scale benchmark: the bucket-pruned exact driver against
//! the dense all-pairs scan on large synthetic corpora.
//!
//! The pruned driver is *exact* (see `traj_dist::sparse`), so "recall"
//! here is a verification output, not a quality metric — it must be
//! `1.0` on every run, and [`run_gt_bench`] asserts it. The interesting
//! numbers are the pruning rate (fraction of query–database pairs whose
//! exact distance was never computed) and the wall-clock speedup over
//! the dense scan. The dense side is measured on a query prefix and
//! extrapolated linearly — each dense query costs exactly `|database|`
//! distance computations, so the projection is sound — and the report
//! records both the measured and the projected number.

use std::time::Instant;
use traj_data::{CityGenerator, CityParams, Trajectory};
use traj_dist::{Measure, PruneStats};
use traj_eval::{dense_ground_truth_top_k, ground_truth_top_k_with, GroundTruthOptions};
use traj_eval::recall_k1_at_k2;

/// Mean recall of `predicted` against `truth`, row by row.
fn mean_recall(predicted: &[Vec<usize>], truth: &[Vec<usize>], k: usize) -> f64 {
    if predicted.is_empty() {
        return 0.0;
    }
    let total: f64 = predicted
        .iter()
        .zip(truth)
        .map(|(p, t)| recall_k1_at_k2(p, t, k, k))
        .sum();
    total / predicted.len() as f64
}

/// Workload of one ground-truth benchmark run.
#[derive(Debug, Clone)]
pub struct GtBenchConfig {
    /// Database trajectories to generate.
    pub database: usize,
    /// Queries driven through the pruned driver.
    pub queries: usize,
    /// Prefix of the queries also driven through the dense oracle (the
    /// wall-clock reference and the recall check).
    pub dense_queries: usize,
    /// Neighbours per query.
    pub k: usize,
    /// Coarse bucket cell size (meters).
    pub cell_m: f64,
    /// Distance measure.
    pub measure: Measure,
    /// Generator seed.
    pub seed: u64,
}

impl GtBenchConfig {
    /// Small configuration for the `./check.sh prune` gate: large enough
    /// that bucket pruning demonstrably fires, small enough to finish in
    /// seconds.
    pub fn smoke() -> GtBenchConfig {
        GtBenchConfig {
            database: 10_000,
            queries: 40,
            dense_queries: 8,
            k: 50,
            cell_m: 500.0,
            measure: Measure::Hausdorff,
            seed: 42,
        }
    }

    /// The 100K-corpus run behind DESIGN.md §14's scale row.
    pub fn full() -> GtBenchConfig {
        GtBenchConfig {
            database: 100_000,
            queries: 200,
            dense_queries: 10,
            k: 50,
            cell_m: 500.0,
            measure: Measure::Hausdorff,
            seed: 42,
        }
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct GtBenchReport {
    /// The workload.
    pub cfg: GtBenchConfig,
    /// Seconds generating the synthetic corpus.
    pub generate_secs: f64,
    /// Wall-clock of the pruned driver over all `queries`.
    pub pruned_secs: f64,
    /// Wall-clock of the dense oracle over the `dense_queries` prefix.
    pub dense_secs_measured: f64,
    /// `dense_secs_measured` extrapolated to all `queries` (linear in
    /// query count: every dense query scans the whole database).
    pub dense_secs_projected: f64,
    /// Recall of the pruned result against the dense oracle on the
    /// prefix. Exactness makes this `1.0` by construction; it is
    /// computed (not assumed) and asserted.
    pub recall: f64,
    /// Fraction of pairs never computed exactly.
    pub pruning_rate: f64,
    /// The raw pruning counters.
    pub stats: PruneStats,
}

impl GtBenchReport {
    /// Projected dense wall-clock over the pruned wall-clock.
    pub fn speedup(&self) -> f64 {
        self.dense_secs_projected / self.pruned_secs
    }

    /// One aligned summary line for logs.
    pub fn summary(&self) -> String {
        format!(
            "gt {} n={} q={} k={}: pruned {:.2}s vs dense {:.2}s projected \
             ({:.1}x), {:.1}% pruned, recall {:.3}",
            self.cfg.measure,
            self.cfg.database,
            self.cfg.queries,
            self.cfg.k,
            self.pruned_secs,
            self.dense_secs_projected,
            self.speedup(),
            self.pruning_rate * 100.0,
            self.recall,
        )
    }
}

/// Runs one ground-truth benchmark: generate, sweep pruned, sweep the
/// dense prefix, verify recall `1.0`.
pub fn run_gt_bench(cfg: &GtBenchConfig) -> GtBenchReport {
    let t = Instant::now();
    let mut generator = CityGenerator::new(CityParams::porto_like(), cfg.seed);
    let all: Vec<Trajectory> = generator.generate(cfg.database + cfg.queries);
    let generate_secs = t.elapsed().as_secs_f64();
    let (queries, database) = all.split_at(cfg.queries);

    let opts = GroundTruthOptions { cell_m: cfg.cell_m, threads: None };
    let t = Instant::now();
    let (pruned, stats) =
        ground_truth_top_k_with(queries, database, cfg.measure, cfg.k, &opts)
            .expect("pruned ground truth failed");
    let pruned_secs = t.elapsed().as_secs_f64();

    let dense_queries = cfg.dense_queries.min(cfg.queries).max(1);
    let t = Instant::now();
    let dense = dense_ground_truth_top_k(
        &queries[..dense_queries],
        database,
        cfg.measure,
        cfg.k,
        None,
    )
    .expect("dense ground truth failed");
    let dense_secs_measured = t.elapsed().as_secs_f64();
    let dense_secs_projected =
        dense_secs_measured * cfg.queries as f64 / dense_queries as f64;

    let recall = mean_recall(&pruned[..dense_queries], &dense, cfg.k);
    assert!(
        (recall - 1.0).abs() < 1e-12,
        "pruned driver lost exactness: recall {recall} < 1 on {} ({} queries checked)",
        cfg.measure,
        dense_queries
    );

    GtBenchReport {
        cfg: cfg.clone(),
        generate_secs,
        pruned_secs,
        dense_secs_measured,
        dense_secs_projected,
        recall,
        pruning_rate: stats.pruned_fraction(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gt_bench_runs_and_verifies_exactness() {
        let cfg = GtBenchConfig {
            database: 300,
            queries: 6,
            dense_queries: 6,
            k: 10,
            cell_m: 500.0,
            measure: Measure::Hausdorff,
            seed: 5,
        };
        let report = run_gt_bench(&cfg);
        assert_eq!(report.recall, 1.0);
        assert_eq!(report.stats.pairs_total, 6 * 300);
        assert!(report.pruned_secs > 0.0 && report.dense_secs_projected > 0.0);
    }
}
