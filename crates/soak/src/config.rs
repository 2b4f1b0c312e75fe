//! Soak-run configuration.

use std::path::PathBuf;

use traj2hash::{FaultRule, FaultWhen, ModelConfig, RetryPolicy, TrainConfig, WriteFault};
use traj_dist::Measure;

/// Everything a [`SoakRunner`](crate::SoakRunner) needs to reproduce a
/// run bit-for-bit: stream shape, drift schedule, detector tuning,
/// refresh policy, fault plan, and drill schedule. Two runs with the
/// same config (including the same `workdir` starting empty) produce
/// the same tick log.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Master RNG seed; every stream (ingest, queries, eval) derives
    /// from it deterministically.
    pub seed: u64,
    /// Ticks to run.
    pub ticks: u64,
    /// Trajectories ingested per tick.
    pub batch_per_tick: usize,
    /// Sliding-window capacity of the live corpus; the oldest
    /// trajectories are tombstoned once the window overflows.
    pub window: usize,
    /// Serving queries issued per tick (round-robin over strategies).
    pub queries_per_tick: usize,
    /// Top-k for serving queries.
    pub k: usize,
    /// Ground-truth measure for drift evaluation.
    pub measure: Measure,
    /// Tick at which the city distribution starts drifting.
    pub drift_start: u64,
    /// Ticks over which the drift ramps from the source city to the
    /// target city (0 = step change at `drift_start`).
    pub drift_ramp: u64,
    /// Evaluate validation HR@10 every this many ticks.
    pub eval_every: u64,
    /// Fresh queries drawn per evaluation.
    pub eval_queries: usize,
    /// Most-recent live trajectories ranked per evaluation (must
    /// exceed 10 for HR@10 to mean anything).
    pub eval_db: usize,
    /// Evaluations frozen as the HR@10 detector baseline.
    pub baseline_evals: usize,
    /// Sliding detection window of the HR@10 detector, in evaluations.
    pub recent_evals: usize,
    /// Relative HR@10 drop (vs. the frozen baseline) that counts as
    /// detected drift and triggers a model refresh.
    pub drop_threshold: f64,
    /// Relative per-strategy latency *rise* that is flagged (telemetry
    /// only — latency regressions are logged, not acted on).
    pub latency_rise_threshold: f64,
    /// Minimum ticks between two refresh triggers.
    pub refresh_cooldown: u64,
    /// Epochs of the initial model fit.
    pub initial_epochs: usize,
    /// Additional epochs per online fine-tune (resumed from the last
    /// checkpoint).
    pub fine_tune_epochs: usize,
    /// Seed trajectories of each fine-tune dataset (supervision
    /// distance matrix is quadratic in this).
    pub refresh_seeds: usize,
    /// Validation trajectories of each fine-tune dataset.
    pub refresh_validation: usize,
    /// Write a durability snapshot of the serving engine every this
    /// many ticks (0 disables the heartbeat). These writes go through
    /// the fault plan like every other durable write.
    pub snapshot_every: u64,
    /// Shards of the serving engine's corpus partition (the soak loop
    /// serves through the sharded engine so the refresh/hot-swap
    /// machinery is proven per-shard).
    pub shards: usize,
    /// Ticks at which the degrade drill fires: the engine is forced
    /// into index-less degraded mode and must recover on its own.
    pub degrade_drills: Vec<u64>,
    /// Fault-injection rules installed around the whole tick loop (all
    /// checkpoint and snapshot writes pass through them).
    pub faults: Vec<FaultRule>,
    /// Retry/backoff policy for snapshot writes.
    pub retry: RetryPolicy,
    /// Start the blocking ops HTTP server (`/metrics`, `/healthz`,
    /// `/traces`) for the duration of the run.
    pub ops_server: bool,
    /// TCP port for the ops server (0 = ephemeral; the bound port is
    /// printed at startup).
    pub ops_port: u16,
    /// Flight-recorder ring capacity for tail-latency query traces
    /// (0 disables the flight recorder entirely).
    pub flight_capacity: usize,
    /// Queries at least this slow (seconds) are retained as flight
    /// exemplars; 0.0 captures everything the ring can hold.
    pub flight_tail_threshold: f64,
    /// Directory holding the model checkpoint and engine snapshot.
    pub workdir: PathBuf,
    /// Model architecture (shape is frozen for the whole run so every
    /// fine-tune can resume the same checkpoint).
    pub model: ModelConfig,
}

impl SoakConfig {
    /// The bounded deterministic demo run used by `./check.sh soak`
    /// and the end-to-end test: ~60 ticks, porto→chengdu drift, write
    /// faults injected, two degrade drills.
    pub fn demo(workdir: PathBuf) -> Self {
        SoakConfig {
            seed: 77,
            ticks: 60,
            batch_per_tick: 6,
            window: 160,
            queries_per_tick: 4,
            k: 10,
            measure: Measure::Hausdorff,
            drift_start: 12,
            drift_ramp: 20,
            eval_every: 2,
            eval_queries: 8,
            eval_db: 40,
            baseline_evals: 4,
            recent_evals: 3,
            drop_threshold: 0.1,
            latency_rise_threshold: 2.0,
            refresh_cooldown: 8,
            initial_epochs: 8,
            fine_tune_epochs: 2,
            refresh_seeds: 20,
            refresh_validation: 16,
            snapshot_every: 9,
            shards: 3,
            degrade_drills: vec![18, 44],
            faults: vec![
                FaultRule { when: FaultWhen::Nth(2), fault: WriteFault::TornWrite { keep_fraction: 0.5 } },
                FaultRule { when: FaultWhen::EveryNth(5), fault: WriteFault::FailWrite },
                FaultRule { when: FaultWhen::Nth(7), fault: WriteFault::SlowWrite { millis: 2 } },
            ],
            retry: RetryPolicy { max_retries: 3, base_backoff_ms: 1, max_backoff_ms: 4 },
            ops_server: true,
            ops_port: 0,
            flight_capacity: 64,
            flight_tail_threshold: 0.0,
            workdir,
            model: ModelConfig::small(),
        }
    }

    /// The base training configuration shared by the initial fit and
    /// every fine-tune (epoch count and `resume` vary per call).
    pub fn train_config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.initial_epochs,
            triplets_per_epoch: 64,
            triplet_batch: 32,
            validate: false,
            seed: self.seed,
            num_threads: 1,
            checkpoint_path: Some(self.workdir.join("model.ckpt")),
            ..TrainConfig::default()
        }
    }

    /// Rejects configurations that cannot produce a meaningful run.
    pub fn validate(&self) -> Result<(), String> {
        if self.ticks == 0 {
            return Err("ticks must be > 0".into());
        }
        if self.batch_per_tick == 0 {
            return Err("batch_per_tick must be > 0".into());
        }
        if self.eval_every == 0 {
            return Err("eval_every must be > 0".into());
        }
        if self.eval_db <= 10 {
            return Err("eval_db must exceed 10 (HR@10 needs a ranking pool)".into());
        }
        if self.refresh_seeds < 2 {
            return Err("refresh_seeds must be >= 2 (supervision needs pairs)".into());
        }
        let bootstrap = self.refresh_seeds + self.refresh_validation + 10;
        if self.window < bootstrap.max(self.eval_db) {
            return Err(format!(
                "window ({}) too small: need >= {} for training splits and >= {} for eval",
                self.window,
                bootstrap,
                self.eval_db
            ));
        }
        if !(self.drop_threshold.is_finite() && self.drop_threshold > 0.0) {
            return Err("drop_threshold must be finite and > 0".into());
        }
        if self.shards == 0 {
            return Err("shards must be >= 1".into());
        }
        if !(self.flight_tail_threshold.is_finite() && self.flight_tail_threshold >= 0.0) {
            return Err("flight_tail_threshold must be finite and >= 0".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo() -> SoakConfig {
        SoakConfig::demo(std::env::temp_dir().join("soak-cfg-test"))
    }

    #[test]
    fn demo_config_validates() {
        assert_eq!(demo().validate(), Ok(()));
    }

    #[test]
    fn degenerate_configs_are_rejected() {
        let mut c = demo();
        c.ticks = 0;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.eval_db = 10;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.window = 20;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.drop_threshold = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.refresh_seeds = 1;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.shards = 0;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.flight_tail_threshold = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = demo();
        c.flight_tail_threshold = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn train_config_checkpoints_into_the_workdir() {
        let cfg = demo();
        let t = cfg.train_config();
        assert_eq!(t.epochs, cfg.initial_epochs);
        assert_eq!(t.checkpoint_path, Some(cfg.workdir.join("model.ckpt")));
        assert_eq!(t.num_threads, 1, "the soak loop is single-threaded by design");
    }
}
