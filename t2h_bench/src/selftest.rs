//! The benchmark's own smoke test: every workload at debug-build sizes,
//! twice with one seed. What must repeat exactly does, and every name
//! `BENCHMARK.json` lists is printed, with the unit it lists.

use crate::inputs::{Spec, WORKLOADS};
use crate::json::{self, Value};
use crate::report::RunResult;
use crate::{layers, run};
use std::collections::BTreeMap;

const SEED: u64 = 7;

fn manifest() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    json::parse(
        &std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark's directory"),
    )
    .expect("BENCHMARK.json parses")
}

/// `name -> unit` of one list of the manifest.
fn listed(manifest: &Value, list: &str) -> BTreeMap<String, String> {
    manifest
        .get(list)
        .expect("list present")
        .as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn printed(result: &RunResult) -> BTreeMap<String, String> {
    result
        .metrics
        .0
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

/// Everything in a result that is a count or a quality, not a timing.
fn counts(result: &RunResult) -> Vec<(String, f64)> {
    let exact = |name: &str| {
        [
            "engine.candidates.",
            "engine.rebuilds",
            "engine.fallback",
            "hr10",
            "eval.",
            "oracle.rows",
        ]
        .iter()
        .any(|p| name.contains(p))
            && !name.ends_with("_s")
    };
    let mut out: Vec<(String, f64)> = result
        .metrics
        .0
        .iter()
        .chain(&result.info.0)
        .filter(|m| exact(&m.name))
        .map(|m| (m.name.clone(), m.value))
        .collect();
    out.extend(
        result
            .phases
            .iter()
            .map(|p| (format!("sent.{}", p.name), p.sent as f64)),
    );
    out
}

#[test]
fn names_are_well_formed_and_workloads_match() {
    let m = manifest();
    let names: Vec<&str> = m
        .get("workloads")
        .unwrap()
        .as_arr()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    assert_eq!(names, WORKLOADS);
    for list in ["end_to_end", "per_layer"] {
        for name in listed(&m, list).keys() {
            let ok = name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok && name.len() <= 64, "{name}");
        }
    }
    assert!(listed(&m, "end_to_end").contains_key("setup_s"));
}

#[test]
fn every_workload_repeats_exactly_and_prints_what_the_manifest_lists() {
    let m = manifest();
    let (end_to_end, per_layer) = (listed(&m, "end_to_end"), listed(&m, "per_layer"));
    for name in WORKLOADS {
        let spec = || Spec::named(name).unwrap();
        let first = run::end_to_end(spec().tiny(), SEED, 10).unwrap();
        let again = run::end_to_end(spec().tiny(), SEED, 10).unwrap();
        assert_eq!(first.failed(), 0, "{name}: {:?}", first.failures);
        assert_eq!(counts(&first), counts(&again), "{name} does not repeat");
        assert_eq!(
            printed(&first),
            end_to_end,
            "{name}: end-to-end names or units"
        );
        for m in &first.metrics.0 {
            // hr10 of a model trained for one tiny epoch may be anything, zero included.
            assert!(
                m.value.is_finite() && (m.value != 0.0 || m.name == "hr10"),
                "{name}: {} is {}",
                m.name,
                m.value
            );
        }

        let traced = layers::traced(spec().traced().tiny(), SEED, 10).unwrap();
        assert_eq!(traced.failed(), 0, "{name}: {:?}", traced.failures);
        assert_eq!(
            printed(&traced),
            per_layer,
            "{name}: per-layer names or units"
        );
        assert!(
            traced.metrics.0.iter().all(|m| m.value.is_finite()),
            "{name}: a non-finite layer metric"
        );
        let spans = traced.spans_jsonl.as_deref().unwrap_or("");
        assert!(spans.lines().all(|l| json::parse(l).is_ok()) && spans.contains("core.embed"));
    }
}
