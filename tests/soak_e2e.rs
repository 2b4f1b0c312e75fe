//! Refresh under faults (`DESIGN.md` §7): a 3-shard engine serves a
//! sliding window for a fixed number of ticks with every durable write
//! under a deterministic fault plan. The city steps from porto-like to
//! chengdu-like, the model is fine-tuned from its checkpoint and swapped
//! in on fixed ticks, heartbeat snapshots are written, and drills drop
//! the indexes. A failed step keeps the old generation serving and is
//! retried next tick. Refreshes run on fixed ticks, not on a detector,
//! so no seed is chosen to make one fire.

use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::Arc;

use traj2hash::{
    train, with_fault_plan, FaultPlan, FaultRule, FaultWhen, ModelConfig, ModelContext,
    RetryPolicy, TrainConfig, TrainData, Traj2Hash, WriteFault,
};
use traj_data::{CityGenerator, CityParams, Dataset, Trajectory};
use traj_dist::Measure;
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};
use traj_obs::{validate_record, JsonlRecorder, Recorder};

const SEED: u64 = 1;
const TICKS: u64 = 30;
const WINDOW: usize = 100;
const BATCH: usize = 6;
const QUERIES: usize = 4;
const K: usize = 10;
/// Seed trajectories of every training set; the rest of the window is
/// the triplet corpus.
const SEEDS: usize = 20;
const INITIAL_EPOCHS: usize = 5;
const FINE_TUNE_EPOCHS: usize = 2;
/// From this tick on, batches and queries come from the chengdu-like city.
const SHIFT_AT: u64 = 8;
const REFRESH_AT: [u64; 2] = [12, 22];
const HEARTBEAT_EVERY: u64 = 9;
const DRILLS: [u64; 2] = [18, 26];
const RETRY: RetryPolicy = RetryPolicy { max_retries: 3, base_backoff_ms: 1, max_backoff_ms: 4 };

fn model_config() -> ModelConfig {
    ModelConfig {
        dim: 32,
        blocks: 1,
        heads: 2,
        grid_dim: 16,
        fine_cell_m: 100.0,
        ..ModelConfig::small()
    }
}

fn train_config(dir: &Path, epochs: usize, resume: bool) -> TrainConfig {
    TrainConfig {
        epochs,
        resume,
        triplets_per_epoch: 64,
        triplet_batch: 32,
        validate: false,
        seed: SEED,
        num_threads: 1,
        checkpoint_path: Some(dir.join("model.ckpt")),
        ..TrainConfig::default()
    }
}

fn train_data(trajs: &[Trajectory], cfg: &TrainConfig) -> TrainData {
    let dataset = Dataset {
        seeds: trajs[..SEEDS].to_vec(),
        validation: Vec::new(),
        corpus: trajs[SEEDS..].to_vec(),
        query: Vec::new(),
        database: Vec::new(),
    };
    TrainData::prepare(&dataset, Measure::Hausdorff, cfg).expect("supervision")
}

/// Answers `queries` round-robin over the strategies; returns how many
/// were answered.
fn serve(engine: &ShardedEngine, queries: &[Trajectory], tick: u64) -> usize {
    let n = Strategy::ALL.len();
    let strategies = Strategy::ALL.iter().cycle().skip(usize::try_from(tick).unwrap() % n);
    queries.iter().zip(strategies).filter(|(q, &s)| engine.query(q, K, s).is_ok()).count()
}

/// One refresh attempt: fine-tune from the checkpoint (unless `tuned`
/// already holds a fine-tuned model), re-encode, snapshot, load back,
/// swap. Returns whether the swap happened. On failure the serving
/// generation is untouched and `tuned` keeps the model that got
/// furthest, for the next tick's retry.
fn refresh(
    engine: &mut ShardedEngine,
    window: &[Trajectory],
    tuned: &mut Option<Traj2Hash>,
    epochs: &mut usize,
    dir: &Path,
) -> bool {
    let model = match tuned.take() {
        Some(model) => model,
        None => {
            let cfg = train_config(dir, *epochs + FINE_TUNE_EPOCHS, true);
            let serving = engine.model();
            let mut model = Traj2Hash::from_spec(&serving.spec(), &serving.params.clone_values());
            if train(&mut model, &train_data(window, &cfg), &cfg).is_err() {
                return false;
            }
            *epochs = cfg.epochs;
            model
        }
    };
    let Ok(replacement) = engine.refreshed(model) else { return false };
    let snap = dir.join("refresh.snap");
    let loaded = replacement
        .save_snapshot_retry(&snap, &RETRY)
        .and_then(|_| ShardedEngine::load_snapshot(&snap, engine.shard_config().clone()));
    match loaded {
        Ok(loaded) => engine.hot_swap(loaded),
        Err(_) => *tuned = Some(replacement.into_model()),
    }
    tuned.is_none()
}

#[test]
fn seeded_fault_injected_soak_run_meets_the_acceptance_bar() {
    let dir = std::env::temp_dir().join(format!("soak-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let jsonl = dir.join("soak.jsonl");
    let rec = Arc::new(JsonlRecorder::create(&jsonl).unwrap());
    let plan = Arc::new(FaultPlan::new(vec![
        FaultRule { when: FaultWhen::Nth(2), fault: WriteFault::TornWrite { keep_fraction: 0.5 } },
        FaultRule { when: FaultWhen::EveryNth(5), fault: WriteFault::FailWrite },
        FaultRule { when: FaultWhen::Nth(7), fault: WriteFault::SlowWrite { millis: 2 } },
    ]));
    let mut porto = CityGenerator::new(CityParams::porto_like(), SEED);
    let mut chengdu = CityGenerator::new(CityParams::chengdu_like(), SEED + 1);
    let (mut ticks, mut swaps, mut drills, mut recoveries) = (0, 0, 0, 0);
    let (mut failed_refreshes, mut unsettled_ticks) = (0, 0);
    let (mut refresh_due, mut heartbeat_due) = (false, false);

    let (engine, live) = traj_obs::with_local_recorder(rec.clone(), || {
        // Bootstrap, no faults armed.
        let corpus = porto.generate(WINDOW);
        let cfg = train_config(&dir, INITIAL_EPOCHS, false);
        let ctx = ModelContext::prepare(&corpus, &model_config(), SEED);
        let mut model = Traj2Hash::new(model_config(), &ctx, SEED);
        train(&mut model, &train_data(&corpus, &cfg), &cfg).expect("bootstrap fit");
        let engine_cfg = EngineConfig { rebuild_slack: 24, ..EngineConfig::default() };
        let shards = ShardConfig { shards: 3, fan_out_threads: 0 };
        let mut engine = ShardedEngine::build(model, corpus.clone(), engine_cfg, shards).unwrap();
        let mut live: VecDeque<(u64, Trajectory)> = engine.ids().into_iter().zip(corpus).collect();
        let (mut epochs, mut tuned) = (INITIAL_EPOCHS, None);

        with_fault_plan(Arc::clone(&plan), || {
            for tick in 1..=TICKS {
                let city = if tick < SHIFT_AT { &mut porto } else { &mut chengdu };
                let queries = city.generate(QUERIES);
                assert_eq!(serve(&engine, &queries, tick), QUERIES, "tick {tick} dropped queries");
                if engine.stats().degraded && engine.recover() {
                    recoveries += 1;
                }
                for t in city.generate(BATCH) {
                    live.push_back((engine.try_insert(t.clone()).unwrap(), t));
                }
                while live.len() > WINDOW {
                    engine.remove(live.pop_front().unwrap().0).unwrap();
                }

                refresh_due |= REFRESH_AT.contains(&tick);
                if refresh_due {
                    let generation = engine.stats().generation;
                    let window: Vec<Trajectory> = live.iter().map(|(_, t)| t.clone()).collect();
                    if refresh(&mut engine, &window, &mut tuned, &mut epochs, &dir) {
                        (refresh_due, swaps) = (false, swaps + 1);
                    } else {
                        // The old generation keeps serving, every query.
                        failed_refreshes += 1;
                        assert_eq!(engine.stats().generation, generation, "tick {tick}");
                        assert_eq!(serve(&engine, &queries, tick), QUERIES, "tick {tick}");
                    }
                }
                heartbeat_due |= tick.is_multiple_of(HEARTBEAT_EVERY);
                if heartbeat_due {
                    let snap = dir.join("engine.snap");
                    heartbeat_due = engine.save_snapshot_retry(snap, &RETRY).is_err();
                }
                if DRILLS.contains(&tick) {
                    engine.force_degrade();
                    drills += 1;
                }
                if engine.stats().degraded || refresh_due || heartbeat_due {
                    unsettled_ticks += 1;
                }
                ticks += 1;
            }
        });
        (engine, live)
    });
    rec.flush();
    eprintln!("write_attempts={} faults_injected={}", plan.attempts(), plan.injected());

    // Every tick ran; the scheduled refresh fired and swapped at least
    // once, and the engine counted the same swaps.
    assert_eq!(ticks, TICKS);
    assert!(swaps >= 1, "no refresh hot-swap completed");
    assert_eq!(swaps, engine.telemetry().hot_swaps);
    // The drills ran and recovered; degraded mode answered queries.
    assert!(drills >= 1 && recoveries >= 1, "{drills} drills, {recoveries} recoveries");
    let telemetry = engine.telemetry();
    let degraded: u64 = Strategy::ALL.iter().map(|&s| telemetry.strategy(s).degraded_queries).sum();
    assert!(degraded > 0, "degraded mode never answered a query");
    // Faults fired and were absorbed: some tick ended unsettled, the
    // run did not.
    assert!(plan.injected() >= 1, "the fault plan never fired");
    assert!(failed_refreshes >= 1, "no refresh attempt met a fault");
    assert!(unsettled_ticks >= 1, "faults and drills left no tick unsettled");
    assert!(!engine.stats().degraded, "the run ended degraded");
    assert!(!refresh_due && !heartbeat_due, "the run ended with a write pending");

    // The hot-swapped engine answers exactly like a fresh rebuild over
    // the same model and live corpus.
    let pos: HashMap<u64, u64> = live.iter().zip(0u64..).map(|((id, _), i)| (*id, i)).collect();
    let corpus: Vec<Trajectory> = live.iter().map(|(_, t)| t.clone()).collect();
    let (cfg, shards) = (engine.config().clone(), engine.shard_config().clone());
    let fresh = ShardedEngine::build_from(engine.model(), corpus.clone(), cfg, shards).unwrap();
    let ranked = |e: &ShardedEngine, q: &Trajectory, s: Strategy| -> Vec<(u64, f64)> {
        e.query(q, K, s).unwrap().into_iter().map(|h| (h.id, h.distance)).collect()
    };
    for q in corpus.iter().step_by(37).take(3) {
        for s in Strategy::ALL {
            let served: Vec<_> =
                ranked(&engine, q, s).into_iter().map(|(id, d)| (pos[&id], d)).collect();
            assert_eq!(served, ranked(&fresh, q, s), "{} diverged from a fresh rebuild", s.name());
        }
    }

    // The JSONL stream validates offline and holds what the engine, the
    // write path and the trainer emit.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    for line in &lines {
        validate_record(line).unwrap_or_else(|e| panic!("invalid record: {e}\n{line}"));
    }
    assert!(lines.len() as u64 >= TICKS, "expected at least one record per tick");
    let needles = ["engine.hot_swap", "engine.degraded", "engine.recovered", "io.fault"];
    for needle in needles.into_iter().chain(["\"train/epoch\""]) {
        assert!(text.contains(needle), "JSONL stream is missing {needle}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
