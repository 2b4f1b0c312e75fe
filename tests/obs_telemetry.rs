//! Observability integration suite: the JSONL export produced by a real
//! train/serve workload must round-trip through the hand-rolled parser
//! with every record passing its per-kind schema check, and the
//! library-side wiring (trainer spans, engine histograms, loader
//! counters) must tell the same story as the structures it annotates.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traj_data::{load_porto_csv, CityParams, Dataset, LoadError, LoadPolicy, SplitSizes};
use traj_dist::Measure;
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};
use traj_obs::{parse_json, validate_record, InMemoryRecorder, Json, JsonlRecorder, Value};
use traj2hash::{train, ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData};

static FILE_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_jsonl() -> PathBuf {
    std::env::temp_dir().join(format!(
        "t2h-obs-{}-{}.jsonl",
        std::process::id(),
        FILE_SEQ.fetch_add(1, Ordering::Relaxed)
    ))
}

fn tiny_world() -> (Dataset, Traj2Hash, TrainData, TrainConfig) {
    let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 120, query: 6, database: 60 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 23);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 23);
    let model = Traj2Hash::new(mcfg, &ctx, 29);
    // validate:true so the workload also emits the train.val_hr10 gauge.
    let tcfg =
        TrainConfig { epochs: 1, num_threads: 1, validate: true, ..TrainConfig::tiny() };
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
    (dataset, model, data, tcfg)
}

#[test]
fn jsonl_export_of_a_real_workload_round_trips_the_schema() {
    let (dataset, model, data, tcfg) = tiny_world();
    let path = temp_jsonl();
    let rec = Arc::new(JsonlRecorder::create(&path).unwrap());

    traj_obs::with_local_recorder(rec.clone(), || {
        // One observed epoch...
        let mut m = Traj2Hash::from_spec(&model.spec(), &model.params.clone_values());
        train(&mut m, &data, &tcfg).unwrap();
        // ...all five strategies served, plus a degradation drill...
        let mut engine = ShardedEngine::build_from(
            &model,
            dataset.database.clone(),
            EngineConfig::default(),
            ShardConfig::default(),
        )
        .unwrap();
        for strategy in Strategy::ALL {
            for q in &dataset.query {
                let _ = engine.query(q, 5, strategy).unwrap();
            }
        }
        engine.force_degrade();
        let _ = engine.query(&dataset.query[0], 5, Strategy::Mih).unwrap();
        traj_obs::flush();
    });

    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    // Every line is an object passing its per-kind schema check.
    let mut kinds: Vec<String> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for line in text.lines() {
        let summary = validate_record(line)
            .unwrap_or_else(|e| panic!("schema violation: {e}\n  {line}"));
        kinds.push(summary.kind);
        names.push(summary.name);
    }
    for kind in ["event", "span", "counter", "gauge", "histogram"] {
        assert!(kinds.iter().any(|k| k == kind), "no {kind} record in the export");
    }

    // The epoch span is present and carries the loss decomposition.
    let epoch_line = text
        .lines()
        .find(|l| l.contains("\"kind\":\"span\"") && l.contains("\"train/epoch\""))
        .expect("no train/epoch span in the export");
    let doc = parse_json(epoch_line).unwrap();
    let fields = doc.get("fields").expect("span fields");
    for key in ["loss", "loss_anchors", "loss_triplets", "lr", "beta"] {
        assert!(
            fields.get(key).and_then(Json::as_f64).is_some(),
            "epoch span missing field {key}: {epoch_line}"
        );
    }
    assert!(doc.get("seconds").and_then(Json::as_f64).unwrap() >= 0.0);

    // Each strategy's latency histogram made it out, with coherent
    // quantiles and counts.
    for strategy in Strategy::ALL {
        let name_token = format!("\"{}\"", strategy.metric_name());
        let line = text
            .lines()
            .filter(|l| l.contains("\"kind\":\"histogram\""))
            .rfind(|l| l.contains(&name_token))
            .unwrap_or_else(|| panic!("no histogram line for {}", strategy.metric_name()));
        let doc = parse_json(line).unwrap();
        let count = doc.get("count").and_then(Json::as_f64).unwrap();
        assert!(count >= dataset.query.len() as f64, "{line}");
        let p50 = doc.get("p50").and_then(Json::as_f64).unwrap();
        let p95 = doc.get("p95").and_then(Json::as_f64).unwrap();
        let p99 = doc.get("p99").and_then(Json::as_f64).unwrap();
        assert!(p50 <= p95 && p95 <= p99, "quantiles out of order: {line}");
    }

    // The degradation drill left its marks.
    assert!(names.iter().any(|n| n == "engine.degraded"));
    assert!(names.iter().any(|n| n == "engine.linear_fallbacks"));
}

#[test]
fn jsonl_escapes_hostile_strings_and_maps_nonfinite_to_null() {
    let path = temp_jsonl();
    let rec = Arc::new(JsonlRecorder::create(&path).unwrap());
    let hostile = "quote\" backslash\\ newline\n tab\t unicode\u{2603} control\u{0007}";
    traj_obs::with_local_recorder(rec, || {
        traj_obs::event(
            "hostile",
            &[
                ("text", hostile.into()),
                ("nan", f64::NAN.into()),
                ("inf", f64::INFINITY.into()),
                ("finite", 0.5f64.into()),
            ],
        );
        traj_obs::flush();
    });
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let line = text
        .lines()
        .find(|l| l.contains("\"hostile\""))
        .expect("hostile event missing");
    validate_record(line).unwrap();
    let doc = parse_json(line).unwrap();
    let fields = doc.get("fields").unwrap();
    assert_eq!(fields.get("text").and_then(Json::as_str), Some(hostile));
    assert_eq!(fields.get("nan"), Some(&Json::Null), "NaN must export as null");
    assert_eq!(fields.get("inf"), Some(&Json::Null), "inf must export as null");
    assert_eq!(fields.get("finite").and_then(Json::as_f64), Some(0.5));
}

#[test]
fn porto_loader_counters_match_the_load_report() {
    // 18 healthy rows, 2 corrupt (unclosed bracket, bad latitude).
    let mut csv = String::from("\"TRIP_ID\",\"CALL_TYPE\",\"POLYLINE\"\n");
    for i in 0..18 {
        let lon = -8.62 + (i as f64) * 1e-4;
        csv.push_str(&format!(
            "\"{i}\",\"A\",\"[[{lon:.6},41.15],[{:.6},41.151],[{:.6},41.152]]\"\n",
            lon + 1e-4,
            lon + 2e-4
        ));
    }
    csv.push_str("\"bad0\",\"B\",\"[[-8.62,41.15\"\n");
    csv.push_str("\"bad1\",\"B\",\"[[-8.62,441.15],[-8.62,41.151]]\"\n");

    let rec = Arc::new(InMemoryRecorder::default());
    let policy = LoadPolicy { max_corrupt_fraction: 0.5, ..LoadPolicy::default() };
    let (trajs, report) = traj_obs::with_local_recorder(rec.clone(), || {
        load_porto_csv(csv.as_bytes(), &policy)
    })
    .unwrap();
    assert_eq!(trajs.len(), report.loaded);

    let agg = rec.aggregates();
    for (name, want) in [
        ("data.load.rows", report.rows),
        ("data.load.loaded", report.loaded),
        ("data.load.malformed", report.malformed),
        ("data.load.bad_number", report.bad_number),
        ("data.load.out_of_bounds", report.out_of_bounds),
        ("data.load.too_short", report.too_short),
    ] {
        assert_eq!(agg.counter_value(name), want as u64, "{name}");
    }
    let ev: Vec<_> = agg.events_named("data.load").collect();
    assert_eq!(ev.len(), 1);
    assert_eq!(ev[0].field("rows"), Some(&Value::U64(report.rows as u64)));
    assert_eq!(ev[0].field("budget_exceeded"), Some(&Value::Bool(false)));

    // The budget-exceeded path is observable too.
    let strict = LoadPolicy { max_corrupt_fraction: 0.01, ..LoadPolicy::default() };
    let strict_rec = Arc::new(InMemoryRecorder::default());
    let err = traj_obs::with_local_recorder(strict_rec.clone(), || {
        load_porto_csv(csv.as_bytes(), &strict)
    });
    assert!(matches!(err, Err(LoadError::BudgetExceeded { .. })));
    let strict_agg = strict_rec.aggregates();
    assert_eq!(strict_agg.counter_value("data.load.budget_exceeded"), 1);
    assert_eq!(
        strict_agg
            .events_named("data.load")
            .next()
            .and_then(|e| e.field("budget_exceeded")),
        Some(&Value::Bool(true))
    );
}
