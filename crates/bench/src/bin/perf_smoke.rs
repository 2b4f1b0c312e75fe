//! Perf-regression smoke benchmark: times the three hot paths the
//! training pipeline lives in — the matmul kernel, one optimizer epoch,
//! and corpus encoding — and writes the wall-clock numbers to
//! `BENCH_pr2.json` so successive PRs accumulate a perf trajectory.
//!
//! Since PR 5 it also gates the observability layer: it measures the
//! disabled-recorder cost per emission site, projects that over the
//! records one instrumented epoch emits, enforces the `< 1%` overhead
//! budget, and then runs a fully instrumented train/serve workload so
//! the obs summary (and, with `OBS_JSONL=path`, the JSONL export)
//! covers epoch spans, all five query-strategy histograms, and a
//! degradation drill. The obs numbers land in `BENCH_pr5.json`.
//!
//! Since PR 7 it also measures the sharded serving layer: the u64-block
//! popcount scan against the per-code naive loop, reader-thread
//! queries/sec at 1, 4, and max-core readers through [`ShardedEngine`],
//! and the `query_many` batched-encode amortization. Those rows land in
//! `BENCH_pr7.json`.
//!
//! Run via `./check.sh bench` (or `cargo run --release -p traj-bench
//! --bin perf_smoke`). Each measurement repeats and takes the best run,
//! so numbers are stable enough to compare across commits on the same
//! machine.

use std::sync::Arc;
use std::time::Instant;
use tinynn::Tensor;
use traj2hash::{validation_hr10, ModelConfig, ModelContext, Traj2Hash, TrainConfig, TrainData};
use traj_data::{CityParams, Dataset, SplitSizes};
use traj_dist::Measure;
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};
use traj_index::{BinaryCode, PackedCodes};

/// Best-of-`reps` wall-clock seconds of `f`.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

fn fill(rows: usize, cols: usize, salt: f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| ((i as f32 * 0.37 + salt).sin()) * 0.5)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// ns per matmul of an `n x m` by `m x p` product, best of several runs.
fn bench_matmul(n: usize, m: usize, p: usize) -> f64 {
    let a = fill(n, m, 1.0);
    let b = fill(m, p, 2.0);
    let iters = (50_000_000 / (n * m * p)).clamp(10, 20_000);
    let mut sink = 0.0f32;
    let secs = best_of(5, || {
        for _ in 0..iters {
            sink += a.matmul(&b).get(0, 0);
        }
    });
    assert!(sink.is_finite());
    secs * 1e9 / iters as f64
}

/// Blocking HTTP GET against the ops server; returns (status, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (u16, String) {
    use std::io::{Read as _, Write as _};
    let mut s = std::net::TcpStream::connect(addr).expect("connect to ops server");
    write!(s, "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n")
        .expect("write request");
    let mut buf = String::new();
    s.read_to_string(&mut buf).expect("read response");
    let status: u16 = buf
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("parse status line");
    let body = buf.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// ns per emission-site call with **no recorder installed** — the price
/// every instrumented hot-path line pays in production by default (one
/// relaxed atomic load and an early return).
fn bench_disabled_record() -> f64 {
    assert!(!traj_obs::enabled(), "disabled-path bench needs no recorder installed");
    let iters = 10_000_000u64;
    let secs = best_of(3, || {
        for i in 0..iters {
            traj_obs::counter(std::hint::black_box("bench.noop"), 1);
            traj_obs::observe_secs(std::hint::black_box("bench.noop"), i as f64);
        }
    });
    secs * 1e9 / (iters * 2) as f64
}

fn main() {
    let sizes = SplitSizes { seeds: 40, validation: 48, corpus: 600, query: 12, database: 200 };
    let dataset = Dataset::generate(CityParams::porto_like(), sizes, 42);
    let mcfg = ModelConfig::small();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 42);

    // ---- matmul kernel ------------------------------------------------
    let mm_64 = bench_matmul(64, 64, 64);
    let mm_seq = bench_matmul(128, 32, 32); // sequence-shaped (n_points x d)
    eprintln!("matmul 64x64x64     : {mm_64:10.0} ns/op");
    eprintln!("matmul 128x32x32    : {mm_seq:10.0} ns/op");

    // ---- one training epoch ------------------------------------------
    let tcfg = TrainConfig {
        epochs: 1,
        validate: false,
        triplets_per_epoch: 128,
        triplet_batch: 32,
        ..TrainConfig::default()
    };
    let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
    let threads = std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1);
    let epoch = |n_threads: usize| -> f64 {
        let cfg = TrainConfig { num_threads: n_threads, ..tcfg.clone() };
        best_of(2, || {
            let mut model = Traj2Hash::new(mcfg.clone(), &ctx, 7);
            let report = traj2hash::train(&mut model, &data, &cfg).unwrap();
            assert_eq!(report.epoch_losses.len(), 1);
        })
    };
    let epoch_1t = epoch(1);
    eprintln!("epoch, 1 thread     : {epoch_1t:10.3} s");
    let epoch_nt = if threads > 1 { epoch(threads) } else { epoch_1t };
    eprintln!("epoch, {threads} thread(s)  : {epoch_nt:10.3} s");
    // Always measure the 4-worker configuration as well: the acceptance
    // target is stated for a 4-core machine, so the number is recorded
    // even when this host has fewer cores (where it only shows the
    // worker-pool overhead, not a speedup).
    let epoch_4t = if threads == 4 { epoch_nt } else { epoch(4) };
    eprintln!("epoch, 4 workers    : {epoch_4t:10.3} s (on {threads} core(s))");

    // ---- corpus encoding ----------------------------------------------
    let model = Traj2Hash::new(mcfg.clone(), &ctx, 7);
    let corpus_1t = best_of(3, || {
        let e = model.embed_all_with_threads(&dataset.corpus, 1);
        assert_eq!(e.len(), dataset.corpus.len());
    });
    let corpus_nt = if threads > 1 {
        best_of(3, || {
            let e = model.embed_all_with_threads(&dataset.corpus, threads);
            assert_eq!(e.len(), dataset.corpus.len());
        })
    } else {
        corpus_1t
    };
    let enc_rate = dataset.corpus.len() as f64 / corpus_nt;
    eprintln!("corpus encode       : {corpus_1t:10.3} s serial, {enc_rate:8.0} traj/s best");

    // ---- validation HR\@10 (exercises embed_all + exact rank) ---------
    let val = best_of(2, || {
        let _ = validation_hr10(&model, &data);
    });
    eprintln!("validation HR@10    : {val:10.3} s");

    // ---- sharded serving: popcount scan, reader scaling, query_many ---
    // All measured with no recorder installed (the production default),
    // before the instrumented section below swaps a recorder in.
    let serve_corpus = dataset.corpus.clone();
    let codes: Vec<BinaryCode> = model
        .embed_all_with_threads(&serve_corpus, threads)
        .iter()
        .map(|e| BinaryCode::from_floats(e))
        .collect();
    let packed = PackedCodes::build(&codes).expect("pack corpus codes");
    let probe = BinaryCode::from_floats(model.embed(&dataset.query[0]).data());
    let scan_reps = 200usize;
    let naive_secs = best_of(5, || {
        let mut sink = 0u64;
        for _ in 0..scan_reps {
            for c in &codes {
                sink += probe.hamming(c) as u64;
            }
        }
        assert!(std::hint::black_box(sink) > 0);
    });
    let packed_secs = best_of(5, || {
        let mut sink = 0u64;
        for _ in 0..scan_reps {
            packed.scan_into(&probe, |_, d| sink += d as u64);
        }
        assert!(std::hint::black_box(sink) > 0);
    });
    let naive_ns = naive_secs * 1e9 / (scan_reps * codes.len()) as f64;
    let packed_ns = packed_secs * 1e9 / (scan_reps * codes.len()) as f64;
    eprintln!(
        "hamming scan        : {naive_ns:10.2} ns/code naive, {packed_ns:.2} ns/code packed \
         ({:.2}x)",
        naive_ns / packed_ns
    );

    let sharded = ShardedEngine::build_from(
        &model,
        serve_corpus,
        EngineConfig::default(),
        ShardConfig { shards: 4, fan_out_threads: 0 },
    )
    .expect("build sharded engine");
    let queries = &dataset.query;
    // Throughput comes from independent reader threads, each with its
    // own model replica, hammering the shared shard set.
    let reader_qps = |readers: usize| -> f64 {
        const PER_THREAD: usize = 200;
        let mut best = 0.0f64;
        for _ in 0..3 {
            let specs: Vec<_> = (0..readers).map(|_| sharded.reader()).collect();
            let t = Instant::now();
            std::thread::scope(|scope| {
                for spec in specs {
                    scope.spawn(move || {
                        let mut reader = spec.into_reader();
                        for i in 0..PER_THREAD {
                            let q = &queries[i % queries.len()];
                            let hits = reader.query(q, 10, Strategy::HammingBf).unwrap();
                            std::hint::black_box(hits);
                        }
                    });
                }
            });
            best = best.max((readers * PER_THREAD) as f64 / t.elapsed().as_secs_f64());
        }
        best
    };
    let qps_1 = reader_qps(1);
    let qps_4 = reader_qps(4);
    let qps_max = if threads == 4 { qps_4 } else { reader_qps(threads.max(1)) };
    eprintln!(
        "sharded qps         : {qps_1:10.0} @1 reader, {qps_4:.0} @4, {qps_max:.0} @{} \
         (HammingBf, k=10, 4 shards, {threads}-core host)",
        threads.max(1)
    );

    let single_secs = best_of(3, || {
        for q in queries {
            let hits = sharded.query(q, 10, Strategy::HammingBf).unwrap();
            std::hint::black_box(hits);
        }
    });
    let batched_secs = best_of(3, || {
        let all = sharded.query_many(queries, 10, Strategy::HammingBf).unwrap();
        std::hint::black_box(all);
    });
    let single_us = single_secs * 1e6 / queries.len() as f64;
    let batched_us = batched_secs * 1e6 / queries.len() as f64;
    eprintln!(
        "query_many          : {single_us:10.1} us/query one-by-one, {batched_us:.1} us/query \
         batched ({:.2}x)",
        single_us / batched_us
    );

    // ---- trace: disabled-tracing overhead gate ------------------------
    // The sharded query timings above already ran with tracing compiled
    // in but inert (no recorder, no flight recorder). Measure the inert
    // trace machinery on its own — context creation, the step clock a
    // query stamps, sealing — and bound it against the measured
    // per-query latency.
    assert!(
        !traj_obs::enabled() && !traj_obs::flight::installed(),
        "disabled-trace bench needs no trace consumer installed"
    );
    let trace_iters = 5_000_000u64;
    let trace_secs = best_of(3, || {
        for _ in 0..trace_iters {
            let mut t = traj_engine::TraceCtx::new();
            t.step(std::hint::black_box("embed"));
            t.step(std::hint::black_box("fanout"));
            let mut st = t.shard_trace();
            st.step(std::hint::black_box("indexed"));
            t.step(std::hint::black_box("merge"));
            t.step(std::hint::black_box("record"));
            let qt = t.finish(Strategy::HammingBf, 0.0);
            assert_eq!(std::hint::black_box(qt.shard_count()), 0);
        }
    });
    let trace_ns = trace_secs * 1e9 / trace_iters as f64;
    let trace_overhead_pct = trace_ns / (single_us * 1e3) * 100.0;
    eprintln!(
        "trace disabled      : {trace_ns:10.2} ns/query inert, {trace_overhead_pct:.4}% of the \
         {single_us:.1} us sharded query"
    );
    assert!(
        trace_overhead_pct < 1.0,
        "disabled-tracing overhead gate failed: {trace_overhead_pct:.4}% >= 1% of the query path"
    );

    let shard_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_smoke_shard\",\n",
            "  \"workload\": \"porto_like corpus=600 served sharded, ModelConfig::small, HammingBf k=10, 4 shards\",\n",
            "  \"host_cores\": {},\n",
            "  \"hamming_scan\": {{\n",
            "    \"naive_ns_per_code\": {:.2},\n",
            "    \"packed_ns_per_code\": {:.2},\n",
            "    \"speedup\": {:.2}\n",
            "  }},\n",
            "  \"sharded_queries_per_sec\": {{\n",
            "    \"readers_1\": {:.0},\n",
            "    \"readers_4\": {:.0},\n",
            "    \"readers_max\": {:.0},\n",
            "    \"max_readers\": {}\n",
            "  }},\n",
            "  \"query_many\": {{\n",
            "    \"batch\": {},\n",
            "    \"per_query_us_single\": {:.1},\n",
            "    \"per_query_us_batched\": {:.1},\n",
            "    \"amortization\": {:.2}\n",
            "  }},\n",
            "  \"note\": \"reader scaling measured on a {}-core host; with fewer than 4 cores the 4-reader row measures scheduling overhead, not speedup — the >=2x acceptance target applies to >=4-core hosts. query_many batches the fused dense layers (verified bit-identical); on this model the per-trajectory attention channels dominate query encoding, so end-to-end amortization stays near 1x\"\n",
            "}}\n"
        ),
        threads,
        naive_ns,
        packed_ns,
        naive_ns / packed_ns,
        qps_1,
        qps_4,
        qps_max,
        threads.max(1),
        queries.len(),
        single_us,
        batched_us,
        single_us / batched_us,
        threads,
    );
    std::fs::write("BENCH_pr7.json", &shard_json).expect("write BENCH_pr7.json");
    println!("{shard_json}");

    // ---- ground truth at 100K: pruned driver vs dense scan ------------
    // The PR 8 headline: exact top-k ground truth over a 100K-trajectory
    // database through the bucket-pruned driver, with the dense all-pairs
    // scan timed on a query prefix as the honest "before" number (each
    // dense query costs exactly |database| distance computations, so the
    // linear projection to the full query set is sound). run_gt_bench
    // verifies recall == 1.0 against the dense rows before returning.
    let gt_cfg = traj_bench::GtBenchConfig::full();
    eprintln!(
        "ground truth 100K   : generating {} trajectories...",
        gt_cfg.database + gt_cfg.queries
    );
    let gt = traj_bench::run_gt_bench(&gt_cfg);
    eprintln!("ground truth 100K   : {}", gt.summary());
    assert!(
        gt.pruning_rate >= 0.90,
        "pruning-rate gate failed: {:.1}% < 90% at 100K",
        gt.pruning_rate * 100.0
    );
    let gt_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_smoke_ground_truth\",\n",
            "  \"workload\": \"porto_like database=100000 queries=200 k=50, exact top-k ground truth\",\n",
            "  \"before_dense\": {{\n",
            "    \"queries_measured\": {},\n",
            "    \"secs_measured\": {:.3},\n",
            "    \"secs_projected_all_queries\": {:.3},\n",
            "    \"note\": \"dense scan timed on a query prefix and projected linearly; each dense query costs exactly |database| distance computations\"\n",
            "  }},\n",
            "  \"after_pruned\": {gt_report},\n",
            "  \"gate_pruning_rate_at_least_90pct\": true,\n",
            "  \"gate_recall_exactly_1\": true\n",
            "}}\n"
        ),
        gt.cfg.dense_queries,
        gt.dense_secs_measured,
        gt.dense_secs_projected,
        gt_report = gt.to_json().trim_start(),
    );
    std::fs::write("BENCH_pr8.json", &gt_json).expect("write BENCH_pr8.json");
    println!("{gt_json}");

    // ---- obs: disabled-recorder overhead gate -------------------------
    // Everything above ran with no recorder installed, i.e. on exactly
    // the instrumented-but-disabled path shipped by default. Measure
    // that path's per-call cost, count how many emissions one epoch
    // actually makes, and bound the total against the epoch itself.
    let disabled_ns = bench_disabled_record();
    eprintln!("obs disabled call   : {disabled_ns:10.2} ns/record");

    let counting = Arc::new(traj_obs::InMemoryRecorder::default());
    traj_obs::install(counting.clone());
    let epoch_enabled = {
        let cfg = TrainConfig { num_threads: 1, ..tcfg.clone() };
        let t = Instant::now();
        let mut m = Traj2Hash::new(mcfg.clone(), &ctx, 7);
        let report = traj2hash::train(&mut m, &data, &cfg).unwrap();
        assert_eq!(report.epoch_losses.len(), 1);
        t.elapsed().as_secs_f64()
    };
    traj_obs::uninstall();
    let records_per_epoch = counting.record_count();
    let overhead_pct = disabled_ns * records_per_epoch as f64 / (epoch_1t * 1e9) * 100.0;
    eprintln!(
        "obs overhead        : {records_per_epoch} records/epoch, disabled {overhead_pct:.5}% \
         of the 1-thread epoch ({epoch_enabled:.3} s with in-memory recorder)"
    );
    assert!(
        overhead_pct < 1.0,
        "disabled-recorder overhead gate failed: {overhead_pct:.4}% >= 1% of the epoch"
    );

    // ---- obs: instrumented train/serve workload -----------------------
    // With a real recorder installed (JSONL when OBS_JSONL=path is set,
    // in-memory otherwise): two validated training epochs, all five
    // query strategies, live churn, a snapshot round-trip, and a forced
    // degradation drill, so every span/metric family in DESIGN.md §11
    // shows up in the export.
    let handle = traj_obs::init_from_env().expect("install obs recorder");
    let tele_cfg =
        TrainConfig { epochs: 2, validate: true, num_threads: 1, ..tcfg.clone() };
    let mut trained = Traj2Hash::new(mcfg.clone(), &ctx, 7);
    let report = traj2hash::train(&mut trained, &data, &tele_cfg).unwrap();
    eprintln!(
        "instrumented train  : {:10.3} s over {} epoch(s), {:.3} s validation",
        report.timings.epoch_seconds.iter().sum::<f64>(),
        report.timings.epoch_seconds.len(),
        report.timings.validation_seconds,
    );

    let one_shard = ShardConfig { shards: 1, fan_out_threads: 0 };
    let mut engine = ShardedEngine::build_from(
        &trained,
        dataset.database.clone(),
        EngineConfig::default(),
        one_shard.clone(),
    )
    .unwrap();
    for strategy in Strategy::ALL {
        for q in &dataset.query {
            let _ = engine.query(q, 10, strategy).unwrap();
        }
    }
    let inserted: Vec<u64> =
        dataset.corpus.iter().take(8).map(|t| engine.insert(t.clone())).collect();
    for id in &inserted[..4] {
        engine.remove(*id).unwrap();
    }
    engine.compact();
    let snap = std::env::temp_dir().join(format!("perf_smoke_{}.t2hsnap", std::process::id()));
    engine.save_snapshot(&snap).unwrap();
    let reloaded = ShardedEngine::load_snapshot(&snap, one_shard).unwrap();
    assert_eq!(reloaded.len(), engine.len());
    let _ = std::fs::remove_file(&snap);
    engine.force_degrade();
    for strategy in Strategy::ALL {
        let (_, info) = engine.query_with_info(&dataset.query[0], 10, strategy).unwrap();
        assert!(info.degraded, "{strategy:?} must report degraded mode after force_degrade");
    }

    // ---- ops: scrape-under-load self-test -----------------------------
    // With the recorder still installed: stand up the flight recorder
    // and the ops HTTP server, run query load so traces land in the
    // ring, then scrape /metrics, /healthz, and /traces over real TCP
    // and validate each payload with the offline validators.
    traj_obs::flight::install(traj_obs::FlightConfig {
        capacity: 32,
        tail_threshold_seconds: 0.0,
        dump_path: None,
    });
    let health = traj_obs::OpsHealth::new();
    let mut ops = traj_obs::OpsServer::start(0, Arc::clone(&health)).expect("start ops server");
    for strategy in Strategy::ALL {
        for q in &dataset.query {
            let hits = sharded.query(q, 10, strategy).unwrap();
            std::hint::black_box(hits);
        }
    }
    let (status, metrics) = http_get(ops.addr(), "/metrics");
    assert_eq!(status, 200, "/metrics must answer 200");
    let samples = traj_obs::validate_exposition(&metrics)
        .unwrap_or_else(|e| panic!("invalid Prometheus exposition: {e}"));
    assert!(
        metrics.contains("# TYPE engine_query_candidates histogram"),
        "scrape must carry the query-path histograms:\n{metrics}"
    );
    let (status, body) = http_get(ops.addr(), "/healthz");
    assert_eq!(status, 200, "/healthz must answer 200 while healthy");
    assert!(body.starts_with("ok"), "healthz body: {body}");
    health.set(false, "bench drill");
    let (status, body) = http_get(ops.addr(), "/healthz");
    assert_eq!(status, 503, "/healthz must answer 503 once degraded");
    assert!(body.starts_with("degraded"), "healthz body: {body}");
    health.set(true, "bench");
    let (status, traces) = http_get(ops.addr(), "/traces");
    assert_eq!(status, 200, "/traces must answer 200");
    let mut n_traces = 0usize;
    for line in traces.lines().filter(|l| !l.trim().is_empty()) {
        traj_obs::validate_record(line)
            .unwrap_or_else(|e| panic!("invalid trace line: {e}\n  {line}"));
        n_traces += 1;
    }
    assert!(n_traces > 0, "flight recorder captured no traces under load");
    eprintln!(
        "ops scrape          : {samples} metric samples, {n_traces} flight traces via \
         127.0.0.1:{}",
        ops.port()
    );
    ops.shutdown();
    traj_obs::flight::uninstall();

    let tele = engine.telemetry();
    traj_obs::flush();
    eprint!("{}", tele.summary());
    eprint!("{}", handle.summary());

    // Self-validate the JSONL export: every line must round-trip through
    // the hand-rolled parser and the per-kind schema check.
    if let Some(path) = std::env::var_os("OBS_JSONL") {
        let text = std::fs::read_to_string(&path).expect("read OBS_JSONL back");
        let mut kinds = std::collections::BTreeMap::<String, usize>::new();
        for line in text.lines() {
            let rec = traj_obs::validate_record(line)
                .unwrap_or_else(|e| panic!("invalid JSONL record: {e}\n  {line}"));
            *kinds.entry(rec.kind).or_insert(0) += 1;
        }
        eprintln!("OBS_JSONL validated : {} records {:?}", text.lines().count(), kinds);
    }

    // Pre-PR baseline, measured on this machine at commit 3c995e9 with
    // the identical workload (sequential trainer, naive tape): kept as
    // literals so the speedup is visible in every regenerated file.
    let baseline = format!(
        concat!(
            "  \"baseline_pr1\": {{\n",
            "    \"commit\": \"3c995e9\",\n",
            "    \"matmul_64x64x64_ns\": {},\n",
            "    \"matmul_128x32x32_ns\": {},\n",
            "    \"epoch_seconds\": {},\n",
            "    \"corpus_encode_seconds\": {},\n",
            "    \"validation_hr10_seconds\": {}\n",
            "  }}"
        ),
        BASELINE.0, BASELINE.1, BASELINE.2, BASELINE.3, BASELINE.4
    );
    let current = format!(
        concat!(
            "  \"pr2\": {{\n",
            "    \"machine_cores\": {},\n",
            "    \"matmul_64x64x64_ns\": {:.0},\n",
            "    \"matmul_128x32x32_ns\": {:.0},\n",
            "    \"epoch_seconds_1_thread\": {:.3},\n",
            "    \"epoch_seconds_best\": {:.3},\n",
            "    \"epoch_seconds_4_workers\": {:.3},\n",
            "    \"corpus_encode_seconds_1_thread\": {:.3},\n",
            "    \"corpus_encode_seconds_best\": {:.3},\n",
            "    \"validation_hr10_seconds\": {:.3},\n",
            "    \"note\": \"4-worker epoch on a {}-core machine; with fewer than 4 cores it measures pool overhead, not speedup\"\n",
            "  }}"
        ),
        threads, mm_64, mm_seq, epoch_1t, epoch_nt, epoch_4t, corpus_1t, corpus_nt, val, threads
    );
    let json = format!(
        "{{\n  \"bench\": \"perf_smoke\",\n  \"workload\": \"porto_like seeds=40 corpus=600, ModelConfig::small, 1 epoch\",\n{baseline},\n{current}\n}}\n"
    );
    std::fs::write("BENCH_pr2.json", &json).expect("write BENCH_pr2.json");
    println!("{json}");

    let strategy_p50s = Strategy::ALL
        .iter()
        .map(|s| {
            format!(
                "    \"{}\": {:.1}",
                s.metric_name(),
                tele.strategy(*s).latency.p50() * 1e6
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let obs_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_smoke_obs\",\n",
            "  \"workload\": \"porto_like seeds=40 corpus=600, ModelConfig::small; instrumented 2-epoch train + 5-strategy serve + degradation drill\",\n",
            "  \"disabled_ns_per_record\": {:.2},\n",
            "  \"records_per_epoch\": {},\n",
            "  \"epoch_seconds_disabled\": {:.3},\n",
            "  \"epoch_seconds_inmemory_recorder\": {:.3},\n",
            "  \"disabled_overhead_pct_of_epoch\": {:.5},\n",
            "  \"gate_disabled_overhead_under_1pct\": true,\n",
            "  \"enabled_query_p50_us\": {{\n{}\n  }},\n",
            "  \"total_queries\": {},\n",
            "  \"linear_fallbacks\": {},\n",
            "  \"degraded_rebuilds\": {}\n",
            "}}\n"
        ),
        disabled_ns,
        records_per_epoch,
        epoch_1t,
        epoch_enabled,
        overhead_pct,
        strategy_p50s,
        tele.total_queries(),
        tele.total_linear_fallbacks(),
        tele.degraded_rebuilds,
    );
    std::fs::write("BENCH_pr5.json", &obs_json).expect("write BENCH_pr5.json");
    println!("{obs_json}");

    let trace_json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"perf_smoke_trace\",\n",
            "  \"workload\": \"porto_like corpus=600 sharded HammingBf k=10; inert TraceCtx per query vs measured query latency; scrape-under-load via the ops HTTP server\",\n",
            "  \"disabled_trace_ns_per_query\": {:.2},\n",
            "  \"sharded_query_us\": {:.1},\n",
            "  \"disabled_trace_overhead_pct_of_query\": {:.4},\n",
            "  \"gate_disabled_trace_under_1pct\": true,\n",
            "  \"ops_scrape\": {{\n",
            "    \"metric_samples\": {},\n",
            "    \"flight_traces_drained\": {},\n",
            "    \"endpoints\": [\"/metrics\", \"/healthz\", \"/traces\"]\n",
            "  }}\n",
            "}}\n"
        ),
        trace_ns,
        single_us,
        trace_overhead_pct,
        samples,
        n_traces,
    );
    std::fs::write("BENCH_pr10.json", &trace_json).expect("write BENCH_pr10.json");
    println!("{trace_json}");
}

/// Pre-PR numbers (matmul 64/seq ns, epoch s, corpus-encode s, HR@10 s).
const BASELINE: (f64, f64, f64, f64, f64) = (30877.0, 21729.0, 0.276, 0.789, 0.065);
