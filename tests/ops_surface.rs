//! End-to-end ops surface: a live sharded engine scraped over HTTP.
//!
//! Installs the global recorder and the flight ring, runs traced
//! queries against a sharded engine, then scrapes the ops server the
//! way an operator would — `/metrics` must validate as Prometheus text
//! exposition and carry the per-query histograms, `/healthz` must track
//! the health cell, and `/traces` must drain the flight ring as NDJSON
//! that passes the same self-validation as an on-disk flight dump.
//!
//! The recorder and the flight ring are process-global, so exactly one
//! `#[test]` here touches them (each file under `tests/` is its own
//! test binary — nothing else shares the process). The stalled-client
//! test uses only its own server and health cell.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use traj_data::{CityParams, Dataset, SplitSizes};
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};
use traj2hash::{ModelConfig, ModelContext, Traj2Hash};

/// One tiny blocking GET, the way a scraper does it: write the request
/// head, read to EOF (the server closes), split status from body.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut conn = TcpStream::connect(addr).expect("connect ops server");
    conn.set_read_timeout(Some(Duration::from_secs(5))).expect("set timeout");
    conn.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: ops\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .expect("write request");
    let mut text = String::new();
    let _ = conn.read_to_string(&mut text);
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in response: {text:?}"));
    let body = match text.split_once("\r\n\r\n") {
        Some((_, body)) => body.to_string(),
        None => String::new(),
    };
    (status, body)
}

#[test]
fn ops_surface_serves_metrics_health_and_flight_traces() {
    // Global plumbing: aggregate recorder for /metrics, flight ring
    // (threshold 0.0 = capture every query) for /traces.
    let rec = Arc::new(traj_obs::InMemoryRecorder::default());
    traj_obs::install(rec);
    let flight = traj_obs::flight::install(traj_obs::FlightConfig {
        capacity: 32,
        tail_threshold_seconds: 0.0,
        dump_path: None,
    });

    // A small sharded engine under live traffic.
    let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 150, query: 8, database: 90 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 11);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
    let model = Traj2Hash::new(mcfg, &ctx, 13);
    let sharded = ShardedEngine::build_from(
        &model,
        dataset.database.clone(),
        EngineConfig::default(),
        ShardConfig { shards: 3, fan_out_threads: 0 },
    )
    .expect("build sharded engine");

    let mut queries = 0u64;
    for q in &dataset.query {
        for strategy in Strategy::ALL {
            let (hits, trace) = sharded.query_traced(q, 7, strategy).expect("query");
            assert!(!hits.is_empty(), "{} returned no hits", strategy.name());
            assert!(trace.active(), "recorder installed, trace must be live");
            queries += 1;
        }
    }
    assert!(
        flight.captured() >= queries.min(flight.capacity() as u64),
        "flight ring captured {} of {queries} traced queries",
        flight.captured()
    );

    let health = traj_obs::OpsHealth::new();
    let mut server = traj_obs::OpsServer::start(0, health.clone()).expect("bind ephemeral port");
    let addr = server.addr();

    // /metrics: a valid exposition carrying the per-query series the
    // engine emitted above.
    let (status, metrics) = http_get(addr, "/metrics");
    assert_eq!(status, 200, "{metrics}");
    let samples = traj_obs::validate_exposition(&metrics)
        .unwrap_or_else(|e| panic!("invalid exposition: {e}\n{metrics}"));
    assert!(samples > 0, "scrape returned an empty exposition:\n{metrics}");
    assert!(metrics.contains("# TYPE engine_query_candidates histogram"), "{metrics}");
    assert!(metrics.contains("# TYPE engine_query_fanout_secs histogram"), "{metrics}");
    assert!(metrics.contains("engine_query_candidates_bucket{le=\"+Inf\"}"), "{metrics}");
    assert!(metrics.contains("engine_query_candidates_p99"), "{metrics}");

    // /healthz tracks the health cell both ways.
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 200, "{body}");
    assert!(body.starts_with("ok"), "{body}");
    health.set(false, "drift p95 over budget");
    let (status, body) = http_get(addr, "/healthz");
    assert_eq!(status, 503, "{body}");
    assert!(body.contains("drift p95 over budget"), "{body}");
    health.set(true, "tick 9");
    assert_eq!(http_get(addr, "/healthz").0, 200);

    // /traces drains the ring as NDJSON; every line is a well-formed
    // flight.trace event and the whole body passes the same structural
    // self-validation as an on-disk dump (unique query ids, stage
    // clocks within the total, per-shard seqs/candidates reconciling).
    // Each line says where its query's time went and by which path
    // each of the three shards answered.
    let (status, traces) = http_get(addr, "/traces");
    assert_eq!(status, 200, "{traces}");
    let lines: Vec<&str> = traces.lines().filter(|l| !l.is_empty()).collect();
    assert!(!lines.is_empty(), "no flight traces served");
    for line in &lines {
        traj_obs::validate_record(line).unwrap_or_else(|e| panic!("bad trace line: {e}\n{line}"));
        let doc = traj_obs::parse_json(line).expect("validated above");
        let field = |key: &str| doc.get("fields").and_then(|f| f.get(key));
        let us = |key: &str| {
            field(key).and_then(|v| v.as_f64()).unwrap_or_else(|| panic!("no {key}: {line}"))
        };
        assert!(us("encode_us") + us("fanout_us") + us("merge_us") <= us("total_us"), "{line}");
        assert!(us("encode_us") > 0.0, "a tiny-model encode takes whole microseconds: {line}");
        let paths = field("shard_paths").and_then(|v| v.as_str()).expect("shard_paths");
        assert_eq!(paths.split(',').count(), 3, "{line}");
    }
    let validated = traj_obs::flight::validate_flight_dump(&traces)
        .unwrap_or_else(|e| panic!("flight self-validation failed: {e}\n{traces}"));
    assert_eq!(validated, lines.len());

    // The scrape drained the ring: a second scrape is empty until new
    // traffic lands.
    let (status, empty) = http_get(addr, "/traces");
    assert_eq!(status, 200);
    assert!(empty.is_empty(), "second scrape should find a drained ring: {empty:?}");
    sharded.query(&dataset.query[0], 5, Strategy::Mih).expect("query");
    let (_, refilled) = http_get(addr, "/traces");
    assert_eq!(refilled.lines().filter(|l| !l.is_empty()).count(), 1, "{refilled}");

    server.shutdown();
    traj_obs::flight::uninstall();
    traj_obs::uninstall();
}

/// One accept thread serves every endpoint, so a client that never
/// finishes its request head must not hold it: the head has one 2 s
/// deadline in all, not 2 s per read. Client A trickles a byte every
/// 200 ms for 5 s; a `GET /healthz` behind it is answered within 3 s.
#[test]
fn a_stalled_client_cannot_mute_healthz() {
    let mut server = traj_obs::OpsServer::start(0, traj_obs::OpsHealth::new()).expect("bind");
    let addr = server.addr();

    // Connected first, so accepted first: the listen queue is FIFO.
    let mut stalled = TcpStream::connect(addr).expect("connect stalled client");
    stalled.write_all(b"G").expect("first byte");
    let trickle = std::thread::spawn(move || {
        for &byte in b"ET /healthz HTTP/1.1\r\nHos" {
            std::thread::sleep(Duration::from_millis(200));
            // The server may already have dropped us: that is the point.
            if stalled.write_all(&[byte]).is_err() {
                break;
            }
        }
    });

    let start = Instant::now();
    let (status, body) = http_get(addr, "/healthz");
    let waited = start.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(waited < Duration::from_secs(3), "/healthz waited {waited:?} behind a stalled client");

    trickle.join().expect("trickling client");
    server.shutdown();
}
