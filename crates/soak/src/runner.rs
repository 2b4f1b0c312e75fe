//! The soak loop: ingest → serve → evaluate → refresh → drill.

use std::collections::VecDeque;
use std::fmt;
use std::path::PathBuf;
use std::sync::Arc;

use traj2hash::{
    train, with_fault_plan, FaultPlan, ModelContext, Traj2Hash, TrainData, TrainError,
};
use traj_data::{Dataset, DriftSchedule, DriftingGenerator, Trajectory};
use traj_engine::{EngineConfig, EngineError, ShardConfig, ShardedEngine, Strategy};
use traj_obs::{FlightConfig, OpsHealth, OpsServer, TrendWindow};

use crate::config::SoakConfig;
use crate::report::{DegradeReason, SoakReport, TickHealth, TickRecord};

/// A fatal soak error — something the loop cannot degrade around
/// (invalid config, bootstrap failure). In-loop faults never surface
/// here; they become typed degraded ticks instead.
#[derive(Debug)]
pub enum SoakError {
    /// The configuration failed validation.
    Config(String),
    /// The initial model fit failed.
    Train(TrainError),
    /// Building or bootstrapping the engine failed.
    Engine(EngineError),
    /// Workdir setup failed.
    Io(std::io::Error),
}

impl fmt::Display for SoakError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoakError::Config(msg) => write!(f, "invalid soak config: {msg}"),
            SoakError::Train(e) => write!(f, "initial training failed: {e}"),
            SoakError::Engine(e) => write!(f, "engine bootstrap failed: {e}"),
            SoakError::Io(e) => write!(f, "workdir io failed: {e}"),
        }
    }
}

impl std::error::Error for SoakError {}

impl From<TrainError> for SoakError {
    fn from(e: TrainError) -> Self {
        SoakError::Train(e)
    }
}

impl From<EngineError> for SoakError {
    fn from(e: EngineError) -> Self {
        SoakError::Engine(e)
    }
}

impl From<std::io::Error> for SoakError {
    fn from(e: std::io::Error) -> Self {
        SoakError::Io(e)
    }
}

/// Where an in-flight refresh stands between ticks.
enum RefreshState {
    /// No refresh pending.
    Idle,
    /// Drift detected; the fine-tune still has to complete.
    NeedTrain,
    /// Fine-tune done; the snapshot/swap step still has to complete.
    NeedSwap(Box<Traj2Hash>),
}

/// Drives the always-on serving loop described in `DESIGN.md` §12:
/// every tick ingests a drifting batch, serves queries, periodically
/// re-measures validation HR@10, refreshes the model when the detector
/// fires, and survives injected write faults by entering a typed
/// degraded state and retrying.
pub struct SoakRunner {
    cfg: SoakConfig,
    engine: ShardedEngine,
    ingest: DriftingGenerator,
    serve: DriftingGenerator,
    eval: DriftingGenerator,
    /// Mirror of the engine's live corpus in insertion (= id) order.
    live: VecDeque<(u64, Trajectory)>,
    hr_trend: TrendWindow,
    lat_trends: Vec<TrendWindow>,
    refresh: RefreshState,
    snapshot_due: bool,
    pending_reason: Option<DegradeReason>,
    last_refresh_tick: u64,
    trained_epochs: usize,
    snapshot_path: PathBuf,
    plan: Arc<FaultPlan>,
    /// Live health handle the ops server's `/healthz` reads; present
    /// only while [`run`](SoakRunner::run) has the server up.
    ops_health: Option<Arc<OpsHealth>>,
    report: SoakReport,
}

impl SoakRunner {
    /// Bootstraps the run: builds the initial (pre-drift) corpus, fits
    /// the initial model with a checkpoint on disk, and stands up the
    /// serving engine. Fault injection is *not* active during
    /// bootstrap — the plan arms when [`run`](SoakRunner::run) starts.
    pub fn new(cfg: SoakConfig) -> Result<Self, SoakError> {
        cfg.validate().map_err(SoakError::Config)?;
        std::fs::create_dir_all(&cfg.workdir)?;

        let schedule = DriftSchedule::porto_to_chengdu(cfg.drift_start, cfg.drift_ramp);
        let ingest = DriftingGenerator::new(schedule.clone(), cfg.seed);
        let serve = DriftingGenerator::new(schedule.clone(), cfg.seed ^ 0x5e7_5e7_5e7);
        let eval = DriftingGenerator::new(schedule, cfg.seed ^ 0x00ea_1000_0001);

        // Initial corpus at tick 0 (pre-drift), split into training
        // roles for the initial fit.
        let corpus = ingest.batch(0, cfg.window);
        let dataset = split_dataset(&corpus, cfg.refresh_seeds, cfg.refresh_validation);
        let train_cfg = cfg.train_config();
        let visible = dataset.training_visible();
        let ctx = ModelContext::prepare(&visible, &cfg.model, cfg.seed);
        let mut model = Traj2Hash::new(cfg.model.clone(), &ctx, cfg.seed);
        let data = TrainData::prepare(&dataset, cfg.measure, &train_cfg)?;
        train(&mut model, &data, &train_cfg)?;

        let engine_cfg = EngineConfig { rebuild_slack: 24, ..EngineConfig::default() };
        let shard_cfg = ShardConfig { shards: cfg.shards, fan_out_threads: 0 };
        let engine = ShardedEngine::build(model, corpus.clone(), engine_cfg, shard_cfg)?;
        let live: VecDeque<(u64, Trajectory)> =
            engine.ids().into_iter().zip(corpus).collect();

        let hr_trend = TrendWindow::new(cfg.baseline_evals, cfg.recent_evals);
        let lat_trends =
            (0..Strategy::ALL.len()).map(|_| TrendWindow::new(6, 3)).collect();
        let snapshot_path = cfg.workdir.join("engine.snap");
        let plan = Arc::new(FaultPlan::new(cfg.faults.clone()));
        let trained_epochs = cfg.initial_epochs;

        Ok(SoakRunner {
            cfg,
            engine,
            ingest,
            serve,
            eval,
            live,
            hr_trend,
            lat_trends,
            refresh: RefreshState::Idle,
            snapshot_due: false,
            pending_reason: None,
            last_refresh_tick: 0,
            trained_epochs,
            snapshot_path,
            plan,
            ops_health: None,
            report: SoakReport {
                ticks: 0,
                inserts: 0,
                removes: 0,
                queries: 0,
                evals: 0,
                drift_detections: 0,
                refreshes: 0,
                refresh_failures: 0,
                hot_swaps: 0,
                drills: 0,
                recoveries: 0,
                degraded_ticks: 0,
                latency_regressions: 0,
                snapshots: 0,
                faults_injected: 0,
                write_attempts: 0,
                write_retries: 0,
                final_stats: EngineStatsInit::zero(),
                final_health: TickHealth::Healthy,
                tick_log: Vec::new(),
            },
        })
    }

    /// The serving engine (for post-run parity checks).
    pub fn engine(&self) -> &ShardedEngine {
        &self.engine
    }

    /// The run's working directory (checkpoint, engine snapshot, and
    /// the flight-recorder dump `flight.jsonl`).
    pub fn workdir(&self) -> &std::path::Path {
        &self.cfg.workdir
    }

    /// The live corpus in ascending-id order, as `(id, trajectory)`.
    pub fn live_corpus(&self) -> Vec<(u64, Trajectory)> {
        self.live.iter().cloned().collect()
    }

    /// Runs every tick with the fault plan installed and returns the
    /// report. In-loop failures degrade and recover; they never abort.
    ///
    /// For the duration of the run this also stands up the observability
    /// surface the config asks for: a flight recorder capturing
    /// tail-latency query traces (dumped to `workdir/flight.jsonl` on
    /// degradation, refresh failure, and run end) and the blocking ops
    /// HTTP server serving `/metrics`, `/healthz`, and `/traces`.
    pub fn run(&mut self) -> Result<SoakReport, SoakError> {
        let flight_installed = self.cfg.flight_capacity > 0;
        if flight_installed {
            traj_obs::flight::install(FlightConfig {
                capacity: self.cfg.flight_capacity,
                tail_threshold_seconds: self.cfg.flight_tail_threshold,
                dump_path: Some(self.cfg.workdir.join("flight.jsonl")),
            });
        }
        let mut ops = None;
        if self.cfg.ops_server {
            let health = OpsHealth::new();
            match OpsServer::start(self.cfg.ops_port, Arc::clone(&health)) {
                Ok(server) => {
                    traj_obs::event(
                        "soak.ops.started",
                        &[("port", u64::from(server.port()).into())],
                    );
                    self.ops_health = Some(health);
                    ops = Some(server);
                }
                Err(e) => {
                    // Serving soak ticks beats serving scrapes: log and
                    // run without the ops surface.
                    traj_obs::event(
                        "soak.ops.failed",
                        &[("error", e.to_string().into())],
                    );
                }
            }
        }

        let plan = Arc::clone(&self.plan);
        for tick in 1..=self.cfg.ticks {
            let p = Arc::clone(&plan);
            with_fault_plan(p, || self.run_tick(tick));
        }
        self.report.faults_injected = self.plan.injected();
        self.report.write_attempts = self.plan.attempts();
        self.report.final_stats = self.engine.stats();
        self.report.final_health = self
            .report
            .tick_log
            .last()
            .map(|r| r.health)
            .unwrap_or(TickHealth::Healthy);

        if flight_installed {
            // Always leave a dump behind: the tail exemplars of a clean
            // run are the baseline the next incident is compared to.
            traj_obs::flight::force_dump("soak.final");
            traj_obs::flight::uninstall();
        }
        if let Some(mut server) = ops {
            server.shutdown();
        }
        self.ops_health = None;

        self.report.check_invariants().map_err(SoakError::Config)?;
        Ok(self.report.clone())
    }

    fn run_tick(&mut self, tick: u64) {
        // 1. A refresh left over from a faulted tick retries first.
        if !matches!(self.refresh, RefreshState::Idle) {
            self.advance_refresh(tick);
        }

        // 2. Serve queries, round-robin over strategies, *before*
        // ingesting: a drill on the previous tick leaves the engine
        // degraded here, so these queries exercise the linear-scan
        // fallback. Degraded mode still answers — serving never stops.
        let queries = self.serve.batch(tick, self.cfg.queries_per_tick);
        let mut lat_sum = [0.0f64; 5];
        let mut lat_n = [0u32; 5];
        for (i, q) in queries.iter().enumerate() {
            // lint: allow(lossy-cast) — wrapping a round-robin tick into a strategy index; truncation is harmless
            let strategy = Strategy::ALL[(tick as usize + i) % Strategy::ALL.len()];
            if let Ok((_, info)) = self.engine.query_with_info(q, self.cfg.k, strategy) {
                self.report.queries += 1;
                lat_sum[strategy.index()] += info.seconds;
                lat_n[strategy.index()] += 1;
            }
        }
        for (i, trend) in self.lat_trends.iter_mut().enumerate() {
            if lat_n[i] == 0 {
                continue;
            }
            trend.push(lat_sum[i] / f64::from(lat_n[i]));
            if trend.warmed_up() && -trend.relative_drop() >= self.cfg.latency_rise_threshold {
                self.report.latency_regressions += 1;
                traj_obs::event(
                    "soak.latency.regressed",
                    &[
                        ("tick", tick.into()),
                        ("strategy", Strategy::ALL[i].name().into()),
                        ("relative_rise", (-trend.relative_drop()).into()),
                    ],
                );
            }
        }

        // 3. If the engine is degraded (drill or failed rebuild), try
        // to recover now that queries have exercised the scan path.
        if self.engine.stats().degraded && self.engine.recover() {
            self.report.recoveries += 1;
            traj_obs::event("soak.recovered", &[("tick", tick.into())]);
        }

        // 4. Ingest the drifting batch; slide the window.
        let batch = self.ingest.batch(tick, self.cfg.batch_per_tick);
        for t in batch {
            // A trajectory the engine refuses (empty / non-finite) is
            // dropped from the stream; serving goes on.
            match self.engine.try_insert(t.clone()) {
                Ok(id) => {
                    self.live.push_back((id, t));
                    self.report.inserts += 1;
                }
                Err(_) => traj_obs::counter("soak.ingest_rejected", 1),
            }
        }
        while self.live.len() > self.cfg.window {
            if let Some((old, _)) = self.live.pop_front() {
                // The id came from this engine, so removal only fails
                // if the mirror is out of sync — a bug worth surfacing.
                if self.engine.remove(old).is_ok() {
                    self.report.removes += 1;
                }
            }
        }

        // 5. Periodic drift evaluation; a confirmed drop triggers a
        // refresh immediately.
        let mut hr10 = None;
        if tick.is_multiple_of(self.cfg.eval_every) {
            let hr = self.eval_hr10(tick);
            self.hr_trend.push(hr);
            self.report.evals += 1;
            hr10 = Some(hr);
            traj_obs::event(
                "soak.eval",
                &[
                    ("tick", tick.into()),
                    ("hr10", hr.into()),
                    ("baseline", self.hr_trend.baseline_mean().unwrap_or(0.0).into()),
                    ("relative_drop", self.hr_trend.relative_drop().into()),
                ],
            );
            let cooled = tick.saturating_sub(self.last_refresh_tick) >= self.cfg.refresh_cooldown;
            if matches!(self.refresh, RefreshState::Idle)
                && cooled
                && self.hr_trend.dropped_by(self.cfg.drop_threshold)
            {
                self.report.drift_detections += 1;
                traj_obs::counter("soak.drift_detections", 1);
                traj_obs::event(
                    "soak.drift.detected",
                    &[
                        ("tick", tick.into()),
                        ("relative_drop", self.hr_trend.relative_drop().into()),
                    ],
                );
                self.refresh = RefreshState::NeedTrain;
                self.advance_refresh(tick);
            }
        }

        // 6. Durability heartbeat: periodically persist the serving
        // state through the fault plan. A write that fails even after
        // retries degrades the tick and is retried next tick.
        if self.cfg.snapshot_every > 0 && tick.is_multiple_of(self.cfg.snapshot_every) {
            self.snapshot_due = true;
        }
        if self.snapshot_due {
            match self.engine.save_snapshot_retry(&self.snapshot_path, &self.cfg.retry) {
                Ok(receipt) => {
                    self.snapshot_due = false;
                    self.report.snapshots += 1;
                    self.report.write_retries += receipt.attempts.saturating_sub(1) as u64;
                    traj_obs::counter("soak.snapshots", 1);
                }
                Err(e) => {
                    traj_obs::event(
                        "soak.snapshot.failed",
                        &[("tick", tick.into()), ("error", e.to_string().into())],
                    );
                }
            }
        }

        // 7. Scheduled degrade drill: drop the indexes at the end of
        // the tick; the next tick serves degraded and then recovers.
        let drilled = self.cfg.degrade_drills.contains(&tick);
        if drilled {
            self.engine.force_degrade();
            self.report.drills += 1;
            traj_obs::event("soak.drill.degrade", &[("tick", tick.into())]);
        }

        // 8. Resolve the tick's typed health state. A still-due
        // heartbeat at this point means its write failed this tick.
        let stats = self.engine.stats();
        let health = if stats.degraded {
            TickHealth::Degraded(if drilled {
                DegradeReason::ForcedIndexLoss
            } else {
                DegradeReason::IndexBuildFailed
            })
        } else if let Some(reason) = self.pending_reason {
            TickHealth::Degraded(reason)
        } else if self.snapshot_due {
            TickHealth::Degraded(DegradeReason::SnapshotWriteFailed)
        } else {
            TickHealth::Healthy
        };
        if let Some(h) = &self.ops_health {
            h.set(
                health.is_healthy(),
                match health {
                    TickHealth::Healthy => "healthy",
                    TickHealth::Degraded(r) => r.name(),
                },
            );
        }
        if !health.is_healthy() {
            self.report.degraded_ticks += 1;
            traj_obs::counter("soak.degraded_ticks", 1);
        }
        self.report.ticks += 1;
        traj_obs::counter("soak.ticks", 1);
        let record = TickRecord {
            tick,
            drift_t: self.ingest.schedule().t_at(tick),
            live: stats.live,
            generation: stats.generation,
            hr10,
            relative_drop: self.hr_trend.relative_drop(),
            health,
        };
        traj_obs::event(
            "soak.tick",
            &[
                ("tick", tick.into()),
                ("drift_t", record.drift_t.into()),
                ("live", record.live.into()),
                ("generation", record.generation.into()),
                ("healthy", health.is_healthy().into()),
                (
                    "reason",
                    match health {
                        TickHealth::Healthy => "none",
                        TickHealth::Degraded(r) => r.name(),
                    }
                    .into(),
                ),
            ],
        );
        self.report.tick_log.push(record);
    }

    /// Pushes an in-flight refresh as far as it will go this tick.
    /// Failures record a typed reason and leave the state machine
    /// where it stood so a later tick retries.
    fn advance_refresh(&mut self, tick: u64) {
        if let RefreshState::NeedTrain = self.refresh {
            match self.fine_tune(tick) {
                Ok(model) => {
                    self.refresh = RefreshState::NeedSwap(Box::new(model));
                    self.pending_reason = None;
                }
                Err(e) => {
                    self.pending_reason = Some(DegradeReason::RefreshTrainFailed);
                    self.report.refresh_failures += 1;
                    traj_obs::event(
                        "soak.refresh.failed",
                        &[
                            ("tick", tick.into()),
                            ("stage", "fine_tune".into()),
                            ("error", e.to_string().into()),
                        ],
                    );
                    traj_obs::flight::force_dump("soak.refresh.failed");
                    return;
                }
            }
        }
        if let RefreshState::NeedSwap(_) = self.refresh {
            let model = match std::mem::replace(&mut self.refresh, RefreshState::Idle) {
                RefreshState::NeedSwap(m) => m,
                _ => return,
            };
            match self.swap_in(tick, model) {
                Ok(()) => {
                    self.pending_reason = None;
                    self.last_refresh_tick = tick;
                    self.report.refreshes += 1;
                    self.report.hot_swaps += 1;
                    traj_obs::counter("soak.refreshes", 1);
                    // The serving model changed; the HR@10 detector's
                    // frozen baseline no longer describes it. Re-freeze
                    // on the refreshed model's own evaluations.
                    self.hr_trend =
                        TrendWindow::new(self.cfg.baseline_evals, self.cfg.recent_evals);
                }
                Err((model, reason)) => {
                    self.refresh = RefreshState::NeedSwap(model);
                    self.pending_reason = Some(reason);
                    self.report.refresh_failures += 1;
                }
            }
        }
    }

    /// Online fine-tune: resume the on-disk checkpoint on a dataset
    /// drawn from the recent live window, extending the epoch count.
    /// The model shape is frozen, so the checkpoint always fits.
    fn fine_tune(&mut self, tick: u64) -> Result<Traj2Hash, TrainError> {
        traj_obs::event("soak.refresh.start", &[("tick", tick.into())]);
        let recent: Vec<Trajectory> =
            self.live.iter().map(|(_, t)| t.clone()).collect();
        let dataset =
            split_dataset(&recent, self.cfg.refresh_seeds, self.cfg.refresh_validation);
        let mut cfg = self.cfg.train_config();
        cfg.epochs = self.trained_epochs + self.cfg.fine_tune_epochs;
        cfg.resume = true;
        let spec = self.engine.model().spec();
        let mut model =
            Traj2Hash::from_spec(&spec, &self.engine.model().params.clone_values());
        let data = TrainData::prepare(&dataset, self.cfg.measure, &cfg)?;
        train(&mut model, &data, &cfg)?;
        self.trained_epochs = cfg.epochs;
        Ok(model)
    }

    /// Re-encodes the live corpus under the fine-tuned model, persists
    /// the result as a durable snapshot (through the fault plan, with
    /// retries), loads it back, and hot-swaps it into serving. The
    /// previous generation serves until the very last step.
    fn swap_in(
        &mut self,
        tick: u64,
        model: Box<Traj2Hash>,
    ) -> Result<(), (Box<Traj2Hash>, DegradeReason)> {
        let replacement = match self.engine.refreshed(*model) {
            Ok(r) => r,
            Err(e) => {
                // refreshed() consumed the model; rebuild a replica
                // from the serving model so the retry path stays alive.
                traj_obs::event(
                    "soak.refresh.failed",
                    &[
                        ("tick", tick.into()),
                        ("stage", "re_encode".into()),
                        ("error", e.to_string().into()),
                    ],
                );
                traj_obs::flight::force_dump("soak.refresh.failed");
                let m = self.engine.model();
                let replica = Traj2Hash::from_spec(&m.spec(), &m.params.clone_values());
                return Err((Box::new(replica), DegradeReason::RefreshIoFailed));
            }
        };
        match replacement.save_snapshot_retry(&self.snapshot_path, &self.cfg.retry) {
            Ok(receipt) => {
                self.report.write_retries += receipt.attempts.saturating_sub(1) as u64;
            }
            Err(e) => {
                traj_obs::event(
                    "soak.refresh.failed",
                    &[
                        ("tick", tick.into()),
                        ("stage", "snapshot_write".into()),
                        ("error", e.to_string().into()),
                    ],
                );
                traj_obs::flight::force_dump("soak.refresh.failed");
                return Err((Box::new(replacement.into_model()), DegradeReason::RefreshIoFailed));
            }
        }
        let loaded = match ShardedEngine::load_snapshot(
            &self.snapshot_path,
            self.engine.shard_config().clone(),
        ) {
            Ok(l) => l,
            Err(e) => {
                traj_obs::event(
                    "soak.refresh.failed",
                    &[
                        ("tick", tick.into()),
                        ("stage", "snapshot_load".into()),
                        ("error", e.to_string().into()),
                    ],
                );
                traj_obs::flight::force_dump("soak.refresh.failed");
                return Err((Box::new(replacement.into_model()), DegradeReason::SnapshotLoadFailed));
            }
        };
        self.engine.hot_swap(loaded);
        traj_obs::event(
            "soak.refresh.completed",
            &[("tick", tick.into()), ("epochs", self.trained_epochs.into())],
        );
        Ok(())
    }

    /// Validation HR@10 of the serving model on the *current*
    /// distribution: fresh queries from the eval stream ranked against
    /// the most recent live trajectories, hash-ranking vs. the exact
    /// measure.
    fn eval_hr10(&self, tick: u64) -> f64 {
        let queries = self.eval.batch(tick, self.cfg.eval_queries);
        let db: Vec<&Trajectory> = self
            .live
            .iter()
            .rev()
            .take(self.cfg.eval_db)
            .map(|(_, t)| t)
            .collect();
        if db.len() <= 10 || queries.is_empty() {
            return f64::NAN;
        }
        let model = self.engine.model();
        let db_codes: Vec<Vec<i8>> = db.iter().map(|t| model.hash_signs(t)).collect();
        let mut hits = 0usize;
        for q in &queries {
            let qc = model.hash_signs(q);
            let truth = top10(db.len(), |i| self.cfg.measure.distance(q, db[i]));
            let approx = top10(db.len(), |i| hamming(&qc, &db_codes[i]) as f64);
            hits += approx.iter().filter(|i| truth.contains(i)).count();
        }
        hits as f64 / (10.0 * queries.len() as f64)
    }
}

/// Indices of the 10 smallest values of `dist(i)` over `0..n`, ties
/// broken by index — deterministic. Distances are evaluated once.
fn top10(n: usize, dist: impl Fn(usize) -> f64) -> Vec<usize> {
    let d: Vec<f64> = (0..n).map(dist).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| d[a].total_cmp(&d[b]).then(a.cmp(&b)));
    order.truncate(10);
    order
}

/// Hamming distance between two sign vectors.
fn hamming(a: &[i8], b: &[i8]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Splits a flat trajectory list into the training roles `TrainData`
/// expects. Query/database splits stay empty — the engine is the
/// database during a soak run.
fn split_dataset(trajs: &[Trajectory], seeds: usize, validation: usize) -> Dataset {
    let seeds_end = seeds.min(trajs.len());
    let val_end = (seeds_end + validation).min(trajs.len());
    Dataset {
        seeds: trajs[..seeds_end].to_vec(),
        validation: trajs[seeds_end..val_end].to_vec(),
        corpus: trajs[val_end..].to_vec(),
        query: Vec::new(),
        database: Vec::new(),
    }
}

/// `EngineStats` has no `Default`; the report needs a placeholder
/// until the run finishes.
struct EngineStatsInit;

impl EngineStatsInit {
    fn zero() -> traj_engine::EngineStats {
        traj_engine::EngineStats {
            live: 0,
            indexed: 0,
            delta: 0,
            dead: 0,
            generation: 0,
            degraded: false,
        }
    }
}
