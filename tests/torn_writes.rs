//! Torn-write harness: truncates checkpoint and snapshot images at
//! *every* byte boundary and asserts the loaders return typed errors —
//! never a panic, never garbage — and that a live engine keeps serving
//! its previous generation after a failed snapshot load.
//!
//! In-memory decoding (`Checkpoint::decode`,
//! `ShardedEngine::from_snapshot_bytes`) covers every boundary
//! cheaply; the file-based paths (`read_from_file`, `load_snapshot`)
//! are exercised on a sample of boundaries since each needs a real
//! file on disk.

use traj_data::{CityParams, Dataset, SplitSizes};
use traj_dist::Measure;
use traj_engine::{EngineConfig, EngineError, ShardConfig, ShardedEngine, Strategy};
use traj2hash::checkpoint::Checkpoint;
use traj2hash::{
    train, CheckpointError, ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData,
};

fn tempdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("torn-writes-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A tiny trained world: model + engine + a checkpoint on disk.
fn world(dir: &std::path::Path) -> (Dataset, ShardedEngine) {
    let dataset = Dataset::generate(CityParams::test_city(), SplitSizes::tiny(), 21);
    let mcfg = ModelConfig::tiny();
    let tcfg = TrainConfig {
        epochs: 1,
        checkpoint_path: Some(dir.join("model.ckpt")),
        ..TrainConfig::tiny()
    };
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 21);
    let mut model = Traj2Hash::new(mcfg, &ctx, 21);
    let data = TrainData::prepare(&dataset, Measure::Hausdorff, &tcfg).unwrap();
    train(&mut model, &data, &tcfg).unwrap();
    let engine = ShardedEngine::build(
        model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig::default(),
    )
    .unwrap();
    (dataset, engine)
}

#[test]
fn every_truncation_of_a_checkpoint_is_a_typed_error() {
    let dir = tempdir("ckpt");
    let (_, _) = world(&dir);
    let bytes = std::fs::read(dir.join("model.ckpt")).unwrap();
    assert!(bytes.len() > 24, "checkpoint suspiciously small: {} bytes", bytes.len());
    assert!(Checkpoint::decode(&bytes).is_ok(), "untruncated image must decode");

    for cut in 0..bytes.len() {
        match Checkpoint::decode(&bytes[..cut]) {
            Ok(_) => panic!("truncation at byte {cut}/{} decoded successfully", bytes.len()),
            // Every failure is a typed decode error; IO can't occur
            // in-memory, and any other variant would mean the decoder
            // read past the validated header.
            Err(
                CheckpointError::TooShort
                | CheckpointError::BadMagic
                | CheckpointError::UnsupportedVersion(_)
                | CheckpointError::LengthMismatch { .. }
                | CheckpointError::ChecksumMismatch { .. }
                | CheckpointError::Malformed(_),
            ) => {}
            Err(other) => panic!("truncation at byte {cut} surfaced {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_truncation_of_a_snapshot_is_a_typed_error() {
    let dir = tempdir("snap");
    let (_, engine) = world(&dir);
    let bytes = engine.snapshot_bytes().unwrap();
    assert!(ShardedEngine::from_snapshot_bytes(&bytes, ShardConfig::default()).is_ok());

    for cut in 0..bytes.len() {
        match ShardedEngine::from_snapshot_bytes(&bytes[..cut], ShardConfig::default()) {
            Ok(_) => panic!("truncation at byte {cut}/{} decoded successfully", bytes.len()),
            Err(EngineError::Snapshot(_)) => {}
            Err(other) => panic!("truncation at byte {cut} surfaced {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_snapshot_load_leaves_the_previous_generation_serving() {
    let dir = tempdir("serve");
    let (dataset, engine) = world(&dir);
    let snap = dir.join("engine.snap");
    engine.save_snapshot(&snap).unwrap();
    let bytes = std::fs::read(&snap).unwrap();

    let before: Vec<_> = Strategy::ALL
        .iter()
        .map(|&s| engine.query(&dataset.query[0], 5, s).unwrap())
        .collect();
    let gen_before = engine.stats().generation;

    // File-based loads on a spread of torn images, including the
    // structural header boundaries and a mid-payload cut.
    let cuts: Vec<usize> =
        [0usize, 1, 7, 8, 11, 12, 19, 20, 23, 24, bytes.len() / 2, bytes.len() - 1]
            .into_iter()
            .filter(|&c| c < bytes.len())
            .collect();
    for cut in cuts {
        std::fs::write(&snap, &bytes[..cut]).unwrap();
        match ShardedEngine::load_snapshot(&snap, ShardConfig::default()) {
            Ok(_) => panic!("torn snapshot (cut {cut}) loaded"),
            Err(EngineError::Snapshot(_)) => {}
            Err(other) => panic!("torn snapshot (cut {cut}) surfaced {other:?}"),
        }
        // The serving engine is untouched by the failed load: same
        // generation, same answers, still healthy.
        assert_eq!(engine.stats().generation, gen_before);
        assert!(!engine.stats().degraded);
        for (i, &s) in Strategy::ALL.iter().enumerate() {
            assert_eq!(
                engine.query(&dataset.query[0], 5, s).unwrap(),
                before[i],
                "{} answers changed after a failed snapshot load",
                s.name()
            );
        }
    }

    // Restoring the intact image loads cleanly again.
    std::fs::write(&snap, &bytes).unwrap();
    let restored = ShardedEngine::load_snapshot(&snap, ShardConfig::default()).unwrap();
    assert_eq!(restored.len(), engine.len());
    let _ = std::fs::remove_dir_all(&dir);
}
