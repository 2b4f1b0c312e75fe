//! Fault-injection test harness: deliberately breaks training, data
//! ingestion, checkpoint files, and search queries, and asserts the
//! system degrades the way DESIGN.md promises — rollback and retry for
//! divergence, budgeted skipping for corrupt rows, typed errors (never
//! garbage, never a crash) for corrupt checkpoints and mismatched
//! queries.

use proptest::prelude::*;
use traj_data::{load_porto_csv, parse_polyline, LoadError, LoadPolicy};
use traj_index::{BinaryCode, HammingTable, MultiIndexHashing, SearchError};
use traj2hash::checkpoint::{Checkpoint, CheckpointError};
use traj2hash::{
    train, train_with_hooks, ModelConfig, ModelContext, RecoveryKind, Traj2Hash, TrainConfig,
    TrainData, TrainError, TrainHooks,
};

use traj_data::{CityParams, Dataset, SplitSizes};
use traj_dist::Measure;

// ---------------------------------------------------------------------
// Fault injectors
// ---------------------------------------------------------------------

/// Generates an ECML/PKDD-format CSV with `good` healthy rows and
/// `corrupt` broken ones (cycling through the corruption kinds), in a
/// deterministic interleaving.
fn corrupt_csv(good: usize, corrupt: usize) -> String {
    let mut rows: Vec<String> = Vec::new();
    for i in 0..good {
        let lon = -8.62 + (i as f64) * 1e-4;
        rows.push(format!(
            "\"{i}\",\"A\",\"[[{lon:.6},41.15],[{:.6},41.151],[{:.6},41.152]]\"",
            lon + 1e-4,
            lon + 2e-4
        ));
    }
    let corruptions = [
        "\"[[-8.62,41.15\"",                      // unclosed bracket
        "\"[[oops,41.15],[-8.62,41.151]]\"",      // unparseable number
        "\"[[-8.62,441.15],[-8.62,41.151]]\"",    // latitude off the planet
        "\"totally not json\"",                   // not an array at all
    ];
    for i in 0..corrupt {
        rows.push(format!("\"bad{i}\",\"B\",{}", corruptions[i % corruptions.len()]));
    }
    // Deterministic interleave so corrupt rows are spread through the
    // file rather than clustered at the end.
    let mut csv = String::from("\"TRIP_ID\",\"CALL_TYPE\",\"POLYLINE\"\n");
    let stride = rows.len().div_ceil(corrupt.max(1));
    let (healthy, broken) = rows.split_at(good);
    let mut b = broken.iter();
    for (i, row) in healthy.iter().enumerate() {
        csv.push_str(row);
        csv.push('\n');
        if (i + 1) % stride.max(1) == 0 {
            if let Some(r) = b.next() {
                csv.push_str(r);
                csv.push('\n');
            }
        }
    }
    for r in b {
        csv.push_str(r);
        csv.push('\n');
    }
    csv
}

/// Flips one bit of a serialized checkpoint — the on-disk corruption a
/// torn write or bad sector would produce.
fn flip_bit(bytes: &[u8], bit: usize) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[bit / 8] ^= 1 << (bit % 8);
    out
}

fn tiny_dataset(seed: u64) -> Dataset {
    Dataset::generate(
        CityParams::test_city(),
        SplitSizes { seeds: 16, validation: 24, corpus: 120, query: 5, database: 40 },
        seed,
    )
}

// ---------------------------------------------------------------------
// Training: divergence guard end to end
// ---------------------------------------------------------------------

#[test]
fn nan_loss_mid_training_rolls_back_and_recovers() {
    let dataset = tiny_dataset(31);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
    let mut model = Traj2Hash::new(mcfg, &ctx, 2);
    let tcfg = TrainConfig { epochs: 4, ..TrainConfig::tiny() };
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();

    // Inject: the loss reported for epoch 2 becomes NaN, once.
    let mut fired = false;
    let hooks = TrainHooks::with_loss_hook(move |epoch, loss| {
        if epoch == 2 && !fired {
            fired = true;
            f32::NAN
        } else {
            loss
        }
    });

    let report = train_with_hooks(&mut model, &data, &tcfg, hooks)
        .expect("training must survive a single NaN epoch");

    // All epochs completed with finite recorded losses.
    assert_eq!(report.epoch_losses.len(), 4);
    assert!(
        report.epoch_losses.iter().all(|l| l.is_finite()),
        "recorded losses must be finite: {:?}",
        report.epoch_losses
    );
    // The recovery log is non-empty and points at the injected epoch.
    assert_eq!(report.recoveries.len(), 1);
    assert_eq!(report.recoveries[0].epoch, 2);
    assert_eq!(report.recoveries[0].kind, RecoveryKind::NonFiniteLoss);
    // The retry ran at a reduced learning rate.
    assert!(report.final_lr < tcfg.lr);
    // And the model it produced still hashes trajectories.
    let code = model.hash_signs(&dataset.query[0]);
    assert_eq!(code.len(), model.embedding_dim());
}

#[test]
fn rollback_and_lr_backoff_events_mirror_the_train_report() {
    let dataset = tiny_dataset(31);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
    let tcfg = TrainConfig { epochs: 4, ..TrainConfig::tiny() };
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();

    // Same injection as the recovery test above: epoch 2's loss turns
    // NaN exactly once. This time the run is observed, and the recorder
    // must tell exactly the story TrainReport tells — no missing events,
    // no phantom ones.
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 2);
    let mut fired = false;
    let hooks = TrainHooks::with_loss_hook(move |epoch, loss| {
        if epoch == 2 && !fired {
            fired = true;
            f32::NAN
        } else {
            loss
        }
    });
    let rec = std::sync::Arc::new(traj_obs::InMemoryRecorder::default());
    let report = traj_obs::with_local_recorder(rec.clone(), || {
        train_with_hooks(&mut model, &data, &tcfg, hooks)
    })
    .expect("training must survive a single NaN epoch");

    assert_eq!(report.recoveries.len(), 1);
    let agg = rec.aggregates();
    let rollbacks: Vec<_> = agg.events_named("train.rollback").collect();
    assert_eq!(rollbacks.len(), report.recoveries.len());
    assert_eq!(agg.counter_value("train.rollbacks"), report.recoveries.len() as u64);
    for (ev, recovery) in rollbacks.iter().zip(&report.recoveries) {
        assert_eq!(ev.field("epoch"), Some(&traj_obs::Value::U64(recovery.epoch as u64)));
        assert_eq!(ev.field("kind"), Some(&traj_obs::Value::Str(recovery.kind.to_string())));
        assert_eq!(
            ev.field("restored_epoch"),
            Some(&traj_obs::Value::U64(recovery.restored_epoch as u64))
        );
        assert_eq!(
            ev.field("lr_after"),
            Some(&traj_obs::Value::F64(recovery.lr_after as f64))
        );
    }

    let backoffs: Vec<_> = agg.events_named("train.lr_backoff").collect();
    assert_eq!(backoffs.len(), report.recoveries.len(), "one backoff per rollback");
    for (ev, recovery) in backoffs.iter().zip(&report.recoveries) {
        assert_eq!(
            ev.field("lr_after"),
            Some(&traj_obs::Value::F64(recovery.lr_after as f64))
        );
        match (ev.field("lr_before"), ev.field("lr_after")) {
            (Some(traj_obs::Value::F64(before)), Some(traj_obs::Value::F64(after))) => {
                assert!(after < before, "backoff must reduce the learning rate")
            }
            other => panic!("lr_backoff event missing lr fields: {other:?}"),
        }
    }

    // Span accounting agrees too: one epoch span per accepted epoch plus
    // one per rolled-back attempt, with the rollback tagged on its span,
    // and the report's timing section matching split for split.
    let epoch_spans: Vec<_> =
        agg.spans.iter().filter(|s| s.path == "train/epoch").collect();
    assert_eq!(
        epoch_spans.len(),
        report.epoch_losses.len() + report.recoveries.len()
    );
    assert_eq!(
        epoch_spans
            .iter()
            .filter(|s| s.field("rolled_back") == Some(&traj_obs::Value::Bool(true)))
            .count(),
        report.recoveries.len()
    );
    assert_eq!(report.timings.epoch_seconds.len(), report.epoch_losses.len());
    assert!(report.timings.rolled_back_seconds > 0.0);

    // A clean run records zero rollback/backoff events — the recorder
    // never invents recoveries the report does not have.
    let mut clean_model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 2);
    let clean_rec = std::sync::Arc::new(traj_obs::InMemoryRecorder::default());
    let clean_report = traj_obs::with_local_recorder(clean_rec.clone(), || {
        train(&mut clean_model, &data, &tcfg)
    })
    .unwrap();
    assert!(clean_report.recoveries.is_empty());
    let clean_agg = clean_rec.aggregates();
    assert_eq!(clean_agg.events_named("train.rollback").count(), 0);
    assert_eq!(clean_agg.events_named("train.lr_backoff").count(), 0);
    assert_eq!(clean_agg.counter_value("train.rollbacks"), 0);
}

#[test]
fn unrecoverable_divergence_is_a_typed_error() {
    let dataset = tiny_dataset(32);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
    let mut model = Traj2Hash::new(mcfg, &ctx, 2);
    let tcfg = TrainConfig { epochs: 2, ..TrainConfig::tiny() };
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
    let hooks = TrainHooks::with_loss_hook(|_, _| f32::NAN);
    match train_with_hooks(&mut model, &data, &tcfg, hooks) {
        Err(TrainError::Diverged { retries: 3, .. }) => {}
        other => panic!("expected Diverged after exhausting rollbacks, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Checkpoints: corruption is detected, resume survives a crash
// ---------------------------------------------------------------------

#[test]
fn corrupted_checkpoint_file_fails_typed_on_resume() {
    let dir = std::env::temp_dir().join("traj2hash_ft_corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("train.ckpt");

    let dataset = tiny_dataset(33);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
    let tcfg = TrainConfig {
        epochs: 2,
        checkpoint_path: Some(path.clone()),
        ..TrainConfig::tiny()
    };
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
    let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 2);
    train(&mut model, &data, &tcfg).unwrap();

    let bytes = std::fs::read(&path).unwrap();
    // A bit flip anywhere in the payload region must be caught by the
    // CRC (or the header checks) and surface as a typed error on
    // resume, never as silently-wrong parameters.
    for bit in [8 * 20, 8 * (bytes.len() / 2), 8 * (bytes.len() - 1) + 7] {
        std::fs::write(&path, flip_bit(&bytes, bit)).unwrap();
        let mut resumed = Traj2Hash::new(ModelConfig::tiny(), &ctx, 3);
        let resume_cfg = TrainConfig { resume: true, ..tcfg.clone() };
        match train(&mut resumed, &data, &resume_cfg) {
            Err(TrainError::Checkpoint(_)) => {}
            other => panic!("bit {bit}: expected Checkpoint error, got {other:?}"),
        }
    }

    // Truncation (torn write survived by a crashed renamer) too.
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    let mut resumed = Traj2Hash::new(ModelConfig::tiny(), &ctx, 3);
    let resume_cfg = TrainConfig { resume: true, ..tcfg.clone() };
    assert!(matches!(
        train(&mut resumed, &data, &resume_cfg),
        Err(TrainError::Checkpoint(_))
    ));

    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Ingestion: error budget
// ---------------------------------------------------------------------

#[test]
fn ten_percent_corruption_loads_under_lenient_budget_fails_under_strict() {
    // 90 healthy rows + 10 corrupt = exactly 10% corruption.
    let csv = corrupt_csv(90, 10);

    // 20% budget: the load succeeds, skipping and classifying.
    let lenient = LoadPolicy { max_corrupt_fraction: 0.20, ..LoadPolicy::default() };
    let (trajs, report) = load_porto_csv(csv.as_bytes(), &lenient)
        .expect("10% corruption must fit a 20% budget");
    assert_eq!(trajs.len(), 90);
    assert_eq!(report.rows, 100);
    assert_eq!(report.loaded, 90);
    assert_eq!(report.corrupt(), 10);
    assert!((report.corrupt_fraction() - 0.10).abs() < 1e-12);
    // The classification is itemized, not lumped.
    assert!(report.malformed > 0 && report.bad_number > 0 && report.out_of_bounds > 0);

    // 5% budget: same file, typed failure carrying the same accounting.
    let strict = LoadPolicy { max_corrupt_fraction: 0.05, ..LoadPolicy::default() };
    match load_porto_csv(csv.as_bytes(), &strict) {
        Err(LoadError::BudgetExceeded { report, budget }) => {
            assert_eq!(report.corrupt(), 10);
            assert_eq!(report.rows, 100);
            assert!((budget - 0.05).abs() < 1e-12);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

// ---------------------------------------------------------------------
// Search: degraded queries
// ---------------------------------------------------------------------

#[test]
fn search_structures_survive_degenerate_queries() {
    let codes: Vec<BinaryCode> = (0..32)
        .map(|i| {
            let signs: Vec<i8> = (0..16).map(|b| if (i >> (b % 5)) & 1 == 1 { 1 } else { -1 }).collect();
            BinaryCode::from_signs(&signs)
        })
        .collect();

    let mih = MultiIndexHashing::try_build(codes.clone(), 4).unwrap();
    let table = HammingTable::try_build(codes.clone()).unwrap();

    // Width-mismatched query: typed error, not a panic, from every path.
    let wide = BinaryCode::zeros(64);
    assert_eq!(
        mih.top_k(&wide, 3),
        Err(SearchError::WidthMismatch { query: 64, index: 16 })
    );
    assert_eq!(
        mih.within_radius(&wide, 2),
        Err(SearchError::WidthMismatch { query: 64, index: 16 })
    );
    assert_eq!(
        table.hybrid_top_k(&wide, 3),
        Err(SearchError::WidthMismatch { query: 64, index: 16 })
    );

    // Empty databases answer anything with nothing.
    let empty_mih = MultiIndexHashing::try_build(Vec::new(), 4).unwrap();
    let empty_table = HammingTable::try_build(Vec::new()).unwrap();
    assert_eq!(empty_mih.top_k(&wide, 5), Ok(Vec::new()));
    assert!(empty_table.hybrid_top_k(&wide, 5).unwrap().is_empty());

    // k beyond the database degrades to "return everything".
    assert_eq!(mih.top_k(&codes[0], 1000).unwrap().len(), codes.len());
    assert_eq!(table.hybrid_top_k(&codes[0], 1000).unwrap().len(), codes.len());
}

// ---------------------------------------------------------------------
// Property tests: parsers and codecs never panic on arbitrary bytes
// ---------------------------------------------------------------------

fn reference_checkpoint() -> Checkpoint {
    Checkpoint {
        epoch: 3,
        adam_steps: 120,
        triplet_cursor: 96,
        lr: 5e-4,
        best_epoch: 2,
        best_val: Some(0.8125),
        params_state: (0u8..200).collect(),
        best_params: (0u8..100).rev().collect(),
        epoch_losses: vec![1.5, 0.9, 0.7],
        val_hr10: vec![0.5, 0.7, 0.8125],
        recoveries: Vec::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `parse_polyline` must never panic, whatever bytes land in the
    /// cell — it either parses or returns a typed error.
    #[test]
    fn parse_polyline_never_panics(cell in proptest::collection::vec(0u8..=255, 0..120)) {
        let s = String::from_utf8_lossy(&cell).into_owned();
        let _ = parse_polyline(&s);
    }

    /// Same for structured-looking inputs, which reach deeper branches
    /// than raw bytes do.
    #[test]
    fn parse_polyline_never_panics_on_bracketed_soup(
        parts in proptest::collection::vec(0u8..6, 1..40),
    ) {
        let tokens = ["[", "]", ",", "-8.6", "41.1", "x"];
        let s: String = parts.iter().map(|&i| tokens[i as usize]).collect();
        let _ = parse_polyline(&s);
    }

    /// A checkpoint survives encode/decode exactly; any single bit flip
    /// is rejected with a typed error — decode never returns garbage.
    #[test]
    fn checkpoint_bit_flips_are_always_detected(bit_frac in 0.0f64..1.0) {
        let ckpt = reference_checkpoint();
        let bytes = ckpt.encode();
        let bit = ((bytes.len() * 8 - 1) as f64 * bit_frac) as usize;
        let corrupted = flip_bit(&bytes, bit);
        match Checkpoint::decode(&corrupted) {
            Err(_) => {}
            Ok(decoded) => {
                // The only acceptable "success" would be decoding the
                // original content exactly — which a bit flip cannot do.
                prop_assert!(false, "bit {} flip went undetected: {:?}", bit, decoded.epoch);
            }
        }
    }

    /// Truncation at any prefix length is a typed error, never a panic
    /// and never a half-restored checkpoint.
    #[test]
    fn checkpoint_truncation_is_always_detected(len_frac in 0.0f64..1.0) {
        let bytes = reference_checkpoint().encode();
        let len = ((bytes.len() - 1) as f64 * len_frac) as usize;
        prop_assert!(Checkpoint::decode(&bytes[..len]).is_err());
    }

    /// Arbitrary bytes never decode (the magic + CRC make accidental
    /// acceptance astronomically unlikely) and never panic.
    #[test]
    fn checkpoint_decode_never_panics_on_noise(
        noise in proptest::collection::vec(0u8..=255, 0..300),
    ) {
        match Checkpoint::decode(&noise) {
            Err(CheckpointError::TooShort)
            | Err(CheckpointError::BadMagic)
            | Err(CheckpointError::UnsupportedVersion(_))
            | Err(CheckpointError::LengthMismatch { .. })
            | Err(CheckpointError::ChecksumMismatch { .. })
            | Err(CheckpointError::Malformed(_)) => {}
            Err(CheckpointError::Io(_)) => prop_assert!(false, "no I/O involved"),
            Ok(_) => prop_assert!(false, "random noise must not decode"),
        }
    }
}
