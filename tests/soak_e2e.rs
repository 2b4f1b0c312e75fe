//! Acceptance test for the always-on soak loop (`DESIGN.md` §12): a
//! seeded `traj-soak` run with injected IO faults and porto→chengdu
//! drift must complete every tick, perform at least one detected-drift
//! refresh hot-swap and one degrade→recover drill, end with zero
//! degraded strategies, answer queries identically to a freshly
//! rebuilt engine after the swap, and leave a JSONL telemetry stream
//! that validates offline.

use std::collections::HashMap;
use std::sync::Arc;

use traj_engine::{ShardedEngine, Strategy};
use traj_obs::{validate_record, JsonlRecorder, Recorder};
use traj_soak::{SoakConfig, SoakRunner, TickHealth};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("soak-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The demo soak scaled down for a debug-build test run, with a seed
/// chosen (deterministically, once) so the drift detector fires inside
/// the 30-tick budget. Everything else — fault plan, heartbeats,
/// porto→chengdu schedule — is the stock demo configuration.
fn test_config(workdir: std::path::PathBuf) -> SoakConfig {
    let mut cfg = SoakConfig::demo(workdir);
    cfg.seed = 5;
    cfg.ticks = 30;
    cfg.window = 100;
    cfg.eval_db = 28;
    cfg.eval_queries = 6;
    cfg.initial_epochs = 5;
    cfg.degrade_drills = vec![18, 26];
    cfg.model = traj2hash::ModelConfig {
        dim: 32,
        blocks: 1,
        heads: 2,
        grid_dim: 16,
        fine_cell_m: 100.0,
        ..traj2hash::ModelConfig::small()
    };
    cfg
}

#[test]
fn seeded_fault_injected_soak_run_meets_the_acceptance_bar() {
    let dir = tempdir("run");
    let jsonl = dir.join("soak.jsonl");
    let rec = Arc::new(JsonlRecorder::create(&jsonl).unwrap());

    let cfg = test_config(dir.join("work"));
    let ticks = cfg.ticks;
    let (report, runner) = traj_obs::with_local_recorder(rec.clone(), || {
        let mut runner = SoakRunner::new(cfg).expect("bootstrap");
        let report = runner.run().expect("soak run");
        (report, runner)
    });
    rec.flush();

    // Completes all ticks, every one either healthy or typed-degraded.
    assert_eq!(report.ticks, ticks);
    assert_eq!(report.tick_log.len() as u64, ticks);

    // The drift detector fired and drove at least one full refresh:
    // fine-tune → durable snapshot → hot swap.
    assert!(report.drift_detections >= 1, "drift never detected:\n{}", report.summary());
    assert!(report.refreshes >= 1, "no refresh completed:\n{}", report.summary());
    assert!(report.hot_swaps >= 1);
    assert_eq!(report.hot_swaps, runner.engine().telemetry().hot_swaps);

    // At least one degrade → recover drill ran end-to-end, and the
    // degraded engine actually served queries while down.
    assert!(report.drills >= 1);
    assert!(report.recoveries >= 1, "no recovery:\n{}", report.summary());
    let telemetry = runner.engine().telemetry();
    let degraded_served: u64 =
        Strategy::ALL.iter().map(|&s| telemetry.strategy(s).degraded_queries).sum();
    assert!(degraded_served > 0, "degraded mode never answered a query");

    // Faults were injected and absorbed: the run still ends healthy
    // with zero degraded strategies.
    assert!(report.faults_injected >= 1, "fault plan never fired:\n{}", report.summary());
    assert!(report.degraded_ticks >= 1, "faults/drills left no degraded ticks");
    assert_eq!(report.final_health, TickHealth::Healthy, "{}", report.summary());
    assert!(!report.final_stats.degraded, "engine ended degraded");

    // Post-swap parity: the hot-swapped engine answers exactly like an
    // engine rebuilt from scratch over the same model and live corpus.
    let live = runner.live_corpus();
    let id_to_pos: HashMap<u64, usize> =
        live.iter().enumerate().map(|(i, (id, _))| (*id, i)).collect();
    let corpus: Vec<_> = live.iter().map(|(_, t)| t.clone()).collect();
    let fresh = ShardedEngine::build_from(
        runner.engine().model(),
        corpus.clone(),
        runner.engine().config().clone(),
        runner.engine().shard_config().clone(),
    )
    .unwrap();
    for q in corpus.iter().step_by(37).take(3) {
        for strategy in Strategy::ALL {
            let served: Vec<(usize, f64)> = runner
                .engine()
                .query(q, 10, strategy)
                .unwrap()
                .into_iter()
                .map(|h| (id_to_pos[&h.id], h.distance))
                .collect();
            let rebuilt: Vec<(usize, f64)> = fresh
                .query(q, 10, strategy)
                .unwrap()
                .into_iter()
                .map(|h| (h.id as usize, h.distance))
                .collect();
            assert_eq!(
                served,
                rebuilt,
                "{} diverged from a fresh rebuild after hot swap",
                strategy.name()
            );
        }
    }

    // The JSONL stream validates offline and holds the key lifecycle
    // events.
    let text = std::fs::read_to_string(&jsonl).unwrap();
    let mut records = 0usize;
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        validate_record(line).unwrap_or_else(|e| panic!("invalid record: {e}\n{line}"));
        records += 1;
    }
    assert!(records as u64 >= ticks, "expected at least one record per tick");
    for needle in [
        "soak.tick",
        "soak.eval",
        "soak.drift.detected",
        "soak.refresh.completed",
        "soak.drill.degrade",
        "soak.recovered",
        "engine.hot_swap",
    ] {
        assert!(text.contains(needle), "JSONL stream is missing {needle} events");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
