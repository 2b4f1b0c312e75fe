//! The traced run: spans around every call into a layer, the replay
//! ladder on the benchmark's own single-shard copies, the layer
//! micro-measurements, and the per-layer metrics of `BENCHMARK.json`.
//!
//! Every layer is measured from outside, by timing calls into public
//! functions. End-to-end numbers never come from this run: it pays for
//! spans, for the ladder, and for its own encode of the whole database.

use crate::api::{
    self, BinaryCode, Engine, Hit, Model, QueryInfo, Strategy, Trajectory, STRATEGY_KEYS,
};
use crate::host::{self, Pacer};
use crate::inputs::{Spec, K};
use crate::report::{Metrics, RunResult};
use crate::run::{self, Bench};
use crate::spans::Recorder;
use crate::stats;

/// Sample tags of the traced run, beside `run::tag`.
mod tag {
    /// `TRACED + s`: an `engine.query` call inside a span.
    pub const TRACED: usize = 10;
    pub const EMBED: usize = 20;
    pub const PACK: usize = 21;
    pub const EUCLID_SCAN: usize = 22;
    pub const PACKED_SCAN: usize = 23;
    pub const SELECT: usize = 24;
    pub const TABLE: usize = 25;
    pub const MIH: usize = 26;
    pub const HYBRID: usize = 27;
    pub const VPTREE: usize = 28;
    /// `FANOUT + s`: the engine's own fan-out seconds of a query.
    pub const FANOUT: usize = 30;
    pub const MERGE: usize = 35;
    /// query − embed − pack − fan-out − merge of one traced query.
    pub const OVERHEAD: usize = 36;
}

/// The benchmark's own single-shard structures over the whole database,
/// built from the codes it computed itself.
struct Copies {
    embeddings: Vec<Vec<f32>>,
    packed: api::Packed,
    table: api::Table,
    mih: api::Mih,
    vp: api::Vp,
    /// Normalised build seconds: table, mih, packed, vptree.
    build_s: [f64; 4],
}

impl Copies {
    fn build(pacer: &mut Pacer, embeddings: Vec<Vec<f32>>) -> api::Res<Copies> {
        let codes: Vec<BinaryCode> = embeddings.iter().map(|e| api::pack(e)).collect();
        let (table, _, t_table) = pacer.long(|| api::Table::build(codes.clone()));
        let (mih, _, t_mih) = pacer.long(|| api::Mih::build(codes.clone()));
        let (packed, _, t_packed) = pacer.long(|| api::Packed::build(&codes));
        let (vp, _, t_vp) = pacer.long(|| api::Vp::build(embeddings.clone()));
        Ok(Copies {
            embeddings,
            packed: packed?,
            table: table?,
            mih: mih?,
            vp,
            build_s: [t_table, t_mih, t_packed, t_vp],
        })
    }
}

/// Records the spans of traced queries and the counts the ladder sees.
pub struct Tracer {
    pub rec: Recorder,
    copies: Copies,
    /// `core.embed` over `engine.query`, per traced Hamming query.
    encode_share: Vec<f64>,
    table_candidates: Vec<f64>,
    hybrid_lookups: usize,
    hybrid_short: usize,
    vp_visited_frac: Vec<f64>,
    ladder_failures: Vec<String>,
}

impl Tracer {
    /// One traced query: `engine.query` in a span with its fan-out and
    /// merge rebuilt from `QueryInfo`, then the replay ladder for the
    /// same query id through the public functions of each layer.
    pub fn query(
        &mut self,
        pacer: &mut Pacer,
        engine: &Engine,
        model: &Model,
        q: &Trajectory,
        s: Strategy,
        query_id: usize,
    ) -> api::Res<(Vec<Hit>, QueryInfo)> {
        let rec = &mut self.rec;
        let (root, answer) = rec.span("engine.query", None, query_id, || engine.query(q, K, s));
        let query_ns = rec.duration_ns(root);
        pacer.record(tag::TRACED + s.index(), query_ns);
        let (mut fan_ns, mut merge_ns) = (0.0, 0.0);
        if let Ok((_, info)) = &answer {
            (fan_ns, merge_ns) = (info.fanout_seconds * 1e9, info.merge_seconds * 1e9);
            // The engine reports durations, not instants: the children are
            // laid against the end of the call, where fan-out and merge run.
            let fan_start = rec.spans[root]
                .end_ns
                .saturating_sub((fan_ns + merge_ns) as u64);
            rec.reconstructed("engine.fanout", root, fan_start, fan_ns as u64);
            rec.reconstructed(
                "engine.merge",
                root,
                fan_start + fan_ns as u64,
                merge_ns as u64,
            );
        }

        let replay = rec.open("replay", None, query_id);
        let (i, emb) = rec.span("core.embed", Some(replay), query_id, || model.embed(q));
        let embed_ns = rec.duration_ns(i);
        pacer.record(tag::EMBED, embed_ns);
        let (i, code) = rec.span("index.pack", Some(replay), query_id, || api::pack(&emb));
        let pack_ns = rec.duration_ns(i);
        pacer.record(tag::PACK, pack_ns);
        let c = &self.copies;
        let mut leaf = |name: &'static str, tag: usize, f: &mut dyn FnMut()| {
            let (i, ()) = rec.span(name, Some(replay), query_id, f);
            pacer.record(tag, rec.duration_ns(i));
        };
        match s {
            Strategy::EuclideanBf => {
                leaf("index.euclid_scan", tag::EUCLID_SCAN, &mut || {
                    std::hint::black_box(api::euclidean_top_k(&c.embeddings, &emb, K));
                });
                let mut visited = 0;
                leaf("index.vptree", tag::VPTREE, &mut || {
                    visited = c.vp.top_k(&emb, K).1
                });
                self.vp_visited_frac
                    .push(visited as f64 / c.embeddings.len().max(1) as f64);
            }
            Strategy::HammingBf => {
                let mut candidates = Vec::with_capacity(c.embeddings.len());
                leaf("index.packed_scan", tag::PACKED_SCAN, &mut || {
                    c.packed
                        .scan(&code, |row, d| candidates.push((row, d as f64)));
                });
                leaf("index.topk_select", tag::SELECT, &mut || {
                    std::hint::black_box(api::top_k_select(&candidates, K));
                });
            }
            Strategy::Table => {
                let mut found = Ok(0);
                leaf("index.table", tag::TABLE, &mut || {
                    found = c.table.lookup(&code)
                });
                match found {
                    Ok(n) => self.table_candidates.push(n as f64),
                    Err(e) => self.ladder_failures.push(format!("table lookup: {e}")),
                }
            }
            Strategy::Mih => {
                let mut found = Ok(Vec::new());
                leaf("index.mih", tag::MIH, &mut || found = c.mih.top_k(&code, K));
                if let Err(e) = found {
                    self.ladder_failures.push(format!("mih: {e}"));
                }
            }
            Strategy::Hybrid => {
                let mut found = Ok(Vec::new());
                leaf("index.hybrid", tag::HYBRID, &mut || {
                    found = c.table.hybrid(&code, K)
                });
                if let Err(e) = found {
                    self.ladder_failures.push(format!("hybrid: {e}"));
                }
                // Untimed: whether this query's radius-2 ball spills.
                self.hybrid_lookups += 1;
                self.hybrid_short += usize::from(c.table.lookup(&code).is_ok_and(|n| n < K));
            }
        }
        rec.close(replay);

        if answer.is_ok() {
            pacer.record(
                tag::OVERHEAD,
                query_ns - embed_ns - pack_ns - fan_ns - merge_ns,
            );
            if s != Strategy::EuclideanBf {
                self.encode_share.push(embed_ns / query_ns);
            }
        }
        answer
    }

    /// The engine's own fan-out and merge seconds of any query of the run.
    pub fn fan_info(&mut self, pacer: &mut Pacer, s: Strategy, info: &QueryInfo) {
        pacer.record(tag::FANOUT + s.index(), info.fanout_seconds * 1e9);
        pacer.record(tag::MERGE, info.merge_seconds * 1e9);
    }
}

fn p50_us(pacer: &Pacer, tag: usize) -> (f64, usize) {
    let us = pacer.norm_us(tag);
    (stats::median(&us), us.len())
}

/// Normalised microseconds of the samples with `tag` recorded since `from`.
fn us_since(pacer: &Pacer, from: usize, tag: usize) -> Vec<f64> {
    let since = pacer.samples[from..].iter().filter(|s| s.tag == tag);
    since.map(|s| s.norm_ns / 1e3).collect()
}

/// The same per trajectory, where timed group `i` held `sizes[i]` of them.
fn per_traj_us(pacer: &Pacer, from: usize, tag: usize, sizes: &[usize]) -> Vec<f64> {
    let groups = us_since(pacer, from, tag);
    groups
        .iter()
        .zip(sizes)
        .map(|(us, &n)| us / n.max(1) as f64)
        .collect()
}

const T_SINGLE: usize = 40;
const T_BATCH: usize = 41;
const BATCH: usize = 16;
const SHORT_POINTS: usize = 40;
/// The generator caps a trip at 100 points, so "long" starts at 90.
const LONG_POINTS: usize = 90;

/// Layer micro-measurements on fresh trajectories the program has not seen.
fn ladder(b: &mut Bench, m: &mut Metrics) {
    let micro_ms = if cfg!(debug_assertions) { 2.0 } else { 60.0 };
    let p = &mut b.pacer;
    type Kernel = Box<dyn Fn() -> f32>;
    let kernels: [(&str, Kernel); 4] = [
        (
            "tinynn.matmul_ns.seq",
            Box::new(api::matmul_kernel(72, 32, 32)),
        ),
        (
            "tinynn.matmul_ns.square",
            Box::new(api::matmul_kernel(64, 64, 64)),
        ),
        (
            "tinynn.attention_us",
            Box::new(api::attention_kernel(72, 32, 2)),
        ),
        (
            "tinynn.encoder_block_us",
            Box::new(api::encoder_block_kernel(72, 32, 2)),
        ),
    ];
    for (name, kernel) in kernels {
        let ns = host::micro(p, micro_ms, 10, || {
            std::hint::black_box(kernel());
        });
        let (unit, value) = if name.ends_with("_us") {
            ("us", ns / 1e3)
        } else {
            ("ns", ns)
        };
        m.put(name, unit, value, 1);
    }

    let spare = std::mem::take(&mut b.inputs.spare);
    let part = (spare.len() / 6).max(1);
    let parts: Vec<&[Trajectory]> = spare.chunks(part).collect();
    let part_of = |i: usize| parts.get(i).copied().unwrap_or(&[]);

    // Cold single embeds, then the same trajectories again: the second
    // pass hits the content-keyed grid-input cache.
    let from = p.samples.len();
    let cold = part_of(0);
    for pass in [T_SINGLE, T_BATCH] {
        p.resume();
        for chunk in cold.chunks(host::CHUNK) {
            for t in chunk {
                p.op(pass, || std::hint::black_box(b.model.embed(t)));
            }
            p.close_chunk();
        }
    }
    let (first, again) = (us_since(p, from, T_SINGLE), us_since(p, from, T_BATCH));
    let by_len = |keep: &dyn Fn(usize) -> bool| -> Vec<f64> {
        first
            .iter()
            .zip(cold)
            .filter(|(_, t)| keep(t.len()))
            .map(|(&us, _)| us)
            .collect()
    };
    let (short, long) = (
        by_len(&|n| n <= SHORT_POINTS),
        by_len(&|n| n >= LONG_POINTS),
    );
    let points: usize = cold.iter().map(|t| t.len()).sum();
    m.put(
        "core.embed_us.p50",
        "us",
        stats::median(&first),
        first.len(),
    );
    m.put(
        "core.embed_us.p99",
        "us",
        stats::quantile(&first, 0.99),
        first.len(),
    );
    m.put(
        "core.embed_us.short",
        "us",
        stats::median(&short),
        short.len(),
    );
    m.put("core.embed_us.long", "us", stats::median(&long), long.len());
    m.put(
        "core.embed_ns_per_point",
        "ns",
        first.iter().sum::<f64>() * 1e3 / points.max(1) as f64,
        points,
    );
    m.put(
        "core.embed_repeat_us",
        "us",
        stats::median(&again),
        again.len(),
    );

    // Batches of 16 against singles, alternating so both see the same host.
    let from = p.samples.len();
    let (batches, singles) = (part_of(1), part_of(2));
    let mut sizes = Vec::new();
    p.resume();
    for (batch, single) in batches.chunks(BATCH).zip(singles.chunks(BATCH)) {
        p.op(T_BATCH, || std::hint::black_box(b.model.embed_batch(batch)));
        sizes.push(batch.len());
        for t in single {
            p.op(T_SINGLE, || std::hint::black_box(b.model.embed(t)));
        }
        p.close_chunk();
    }
    let batch_us = stats::median(&per_traj_us(p, from, T_BATCH, &sizes));
    let single_us = stats::median(&us_since(p, from, T_SINGLE));
    m.put(
        "core.embed_batch_us_per_traj.b16",
        "us",
        batch_us,
        sizes.len(),
    );
    m.put(
        "core.batch_amortization",
        "ratio",
        single_us / batch_us,
        sizes.len(),
    );

    let from = p.samples.len();
    let (batches, singles) = (part_of(3), part_of(4));
    let mut sizes = Vec::new();
    let mut failed = 0;
    p.resume();
    for (batch, single) in batches.chunks(BATCH).zip(singles.chunks(BATCH)) {
        failed += usize::from(
            p.op(T_BATCH, || {
                b.engine.query_many(batch, K, Strategy::HammingBf)
            })
            .is_err(),
        );
        sizes.push(batch.len());
        for t in single {
            failed += usize::from(
                p.op(T_SINGLE, || b.engine.query(t, K, Strategy::HammingBf))
                    .is_err(),
            );
        }
        p.close_chunk();
    }
    let many_us = stats::median(&per_traj_us(p, from, T_BATCH, &sizes));
    m.put(
        "engine.query_many_us_per_query.b16",
        "us",
        many_us,
        sizes.len(),
    );
    b.phases.push(crate::report::Phase {
        name: "query_many",
        sent: batches.len() + singles.len(),
        failed,
    });

    // Bulk encode at one thread and at one per core, alternating calls.
    let (mut t1, mut tn) = (Vec::new(), Vec::new());
    for (i, chunk) in part_of(5).chunks((part / 8).max(1)).enumerate() {
        let threads = if i % 2 == 0 { 1 } else { b.readers };
        let (_, _, norm_s) = p.long(|| std::hint::black_box(b.model.embed_all(chunk, threads)));
        (if i % 2 == 0 { &mut t1 } else { &mut tn }).push(chunk.len() as f64 / norm_s);
    }
    m.put(
        "core.embed_all_traj_per_s.t1",
        "1/s",
        stats::median(&t1),
        t1.len(),
    );
    m.put(
        "core.embed_all_traj_per_s.tN",
        "1/s",
        stats::median(&tn),
        tn.len(),
    );
    m.put(
        "core.embed_all_scaling",
        "ratio",
        stats::median(&tn) / stats::median(&t1),
        tn.len(),
    );

    m.put("core.train_prepare_s", "s", b.facts.train_prepare.norm_s, 1);
    m.put(
        "core.train_epoch_s",
        "s",
        stats::median(&b.facts.epochs_norm_s),
        b.facts.epochs_norm_s.len(),
    );
    let (_, _, validation_s) =
        p.long(|| std::hint::black_box(api::validation_hr10(&b.model, &b.training)));
    m.put("core.validation_hr10_s", "s", validation_s, 1);
    let replica_ns = host::micro(p, micro_ms, 5, || {
        std::hint::black_box(b.model.replica());
    });
    m.put("core.replica_build_us", "us", replica_ns / 1e3, 1);

    let pairs: Vec<(&Trajectory, &Trajectory)> =
        spare.iter().zip(spare.iter().skip(1)).take(256).collect();
    let mut next = 0;
    let frechet_ns = host::micro(p, micro_ms, 64, || {
        let (x, y) = pairs[next % pairs.len().max(1)];
        next += 1;
        std::hint::black_box(api::frechet(x, y));
    });
    m.put(
        "dist.frechet_us_per_pair",
        "us",
        frechet_ns / 1e3,
        pairs.len(),
    );

    assert!(
        !api::obs_enabled(),
        "the disabled-recorder cost needs no recorder installed"
    );
    let mut i = 0;
    let record_ns = host::micro(p, micro_ms, 1_000, || {
        i += 1;
        api::obs_disabled_record(i);
    });
    m.put("obs.disabled_record_ns", "ns", record_ns, 1);
    b.inputs.spare = spare;
}

/// The traced run: every per-layer metric of `BENCHMARK.json`.
pub fn traced(spec: Spec, seed: u64, seconds: u64) -> api::Res<RunResult> {
    let workload = spec.name;
    let mut b = Bench::set_up(spec, seed, true)?;
    let mut m = Metrics::default();

    // The copies cover the whole database, so a sampled oracle's rows
    // are topped up by one more encode of everything else.
    let embeddings = if b.own_embeddings.len() == b.inputs.database.len() {
        b.own_embeddings.clone()
    } else {
        let (readers, database) = (b.readers, &b.inputs.database);
        b.pacer.long(|| b.model.embed_all(database, readers)).0
    };
    let copies = Copies::build(&mut b.pacer, embeddings)?;
    let rows = copies.embeddings.len().max(1) as f64;
    let buckets = copies.table.buckets() as f64;
    let build_s = copies.build_s;

    // engine.compact() right after the build is one index build per shard
    // with nothing to compact: the index share of engine.build_s.
    let ((), _, index_s) = b.pacer.long(|| b.engine.compact());
    let rebuilds_after_build = b.engine.counters().rebuilds;
    let spills_before = b.engine.counters().hybrid_spills;

    let mut tracer = Tracer {
        rec: Recorder::new(),
        copies,
        encode_share: Vec::new(),
        table_candidates: Vec::new(),
        hybrid_lookups: 0,
        hybrid_short: 0,
        vp_visited_frac: Vec::new(),
        ladder_failures: Vec::new(),
    };
    let ops = b.inputs.schedule.clone();
    let counts = b.single_client(&ops, Some(&mut tracer));
    let spills = b.engine.counters().hybrid_spills - spills_before;

    // One reader, then one per core, on disjoint halves of the queries.
    let halves: Vec<(Vec<Trajectory>, Vec<Trajectory>)> = b
        .inputs
        .b_queries
        .iter()
        .map(|qs| (qs[..qs.len() / 2].to_vec(), qs[qs.len() / 2..].to_vec()))
        .collect();
    let one = b.reader_phase("readers_1", &[halves[0].0.clone()]);
    let all: Vec<Vec<Trajectory>> = halves.into_iter().map(|(_, second)| second).collect();
    let many = b.reader_phase("readers_n", &all);

    b.write_probe(b.spec.w_inserts / 2);
    let rss_end = host::rss_mb();
    let (compact_s, save_s, load_s, snapshot_bytes) = b.epilogue();
    let live = b.engine.len().max(1) as f64;

    ladder(&mut b, &mut m);

    // ---- from the traced pass ------------------------------------------
    let p = &b.pacer;
    let put_p50 = |m: &mut Metrics, name: &str, unit: &'static str, tag: usize, scale: f64| {
        let (us, n) = p50_us(p, tag);
        m.put(name, unit, us * scale, n);
    };
    put_p50(&mut m, "index.pack_ns", "ns", tag::PACK, 1e3);
    put_p50(
        &mut m,
        "index.packed_scan_ns_per_code",
        "ns",
        tag::PACKED_SCAN,
        1e3 / rows,
    );
    let (scan_us, n) = p50_us(p, tag::PACKED_SCAN);
    let (select_us, _) = p50_us(p, tag::SELECT);
    m.put("index.hamming_topk_us", "us", scan_us + select_us, n);
    m.put("index.topk_select_us", "us", select_us, n);
    put_p50(
        &mut m,
        "index.euclid_scan_ns_per_row",
        "ns",
        tag::EUCLID_SCAN,
        1e3 / rows,
    );
    put_p50(&mut m, "index.vptree_us", "us", tag::VPTREE, 1.0);
    m.put(
        "index.vptree_visited_frac",
        "ratio",
        stats::mean(&tracer.vp_visited_frac),
        tracer.vp_visited_frac.len(),
    );
    put_p50(&mut m, "index.table_lookup_us", "us", tag::TABLE, 1.0);
    let tc = &tracer.table_candidates;
    m.put("index.table_candidates", "count", stats::mean(tc), tc.len());
    let short = tc.iter().filter(|&&n| n < K as f64).count();
    m.put(
        "index.table_short_rate",
        "ratio",
        short as f64 / tc.len().max(1) as f64,
        tc.len(),
    );
    put_p50(&mut m, "index.hybrid_us", "us", tag::HYBRID, 1.0);
    let spill_rate = tracer.hybrid_short as f64 / tracer.hybrid_lookups.max(1) as f64;
    m.put(
        "index.hybrid_spill_rate",
        "ratio",
        spill_rate,
        tracer.hybrid_lookups,
    );
    put_p50(&mut m, "index.mih_us", "us", tag::MIH, 1.0);
    m.put("index.buckets_per_code", "ratio", buckets / rows, 1);
    for (name, s) in ["table", "mih", "packed", "vptree"].iter().zip(build_s) {
        m.put(format!("index.build_s.{name}"), "s", s, 1);
    }

    for (s, key) in STRATEGY_KEYS.iter().enumerate() {
        put_p50(&mut m, &format!("engine.query_us.{key}"), "us", s, 1.0);
    }
    for (s, key) in STRATEGY_KEYS.iter().enumerate() {
        put_p50(
            &mut m,
            &format!("engine.fanout_us.{key}"),
            "us",
            tag::FANOUT + s,
            1.0,
        );
    }
    put_p50(&mut m, "engine.merge_us", "us", tag::MERGE, 1.0);
    // The ladder's embed is a repeat embed; the engine's is a first one.
    // The difference is measured above and taken back out of the overhead.
    let cold_gap_us =
        m.get("core.embed_us.p50").unwrap_or(0.0) - m.get("core.embed_repeat_us").unwrap_or(0.0);
    let (overhead_us, n) = p50_us(p, tag::OVERHEAD);
    m.put("engine.overhead_us", "us", overhead_us - cold_gap_us, n);
    let warm_to_cold =
        m.get("core.embed_us.p50").unwrap_or(1.0) / m.get("core.embed_repeat_us").unwrap_or(1.0);
    let share = stats::median(&tracer.encode_share) * warm_to_cold;
    m.put(
        "engine.encode_share",
        "ratio",
        share,
        tracer.encode_share.len(),
    );
    let total_queries: usize = counts.queries.iter().sum();
    for (s, key) in STRATEGY_KEYS.iter().enumerate() {
        let mean = counts.candidates[s] as f64 / counts.queries[s].max(1) as f64;
        m.put(
            format!("engine.candidates.{key}"),
            "count",
            mean,
            counts.queries[s],
        );
    }
    m.put(
        "engine.fallback_rate",
        "ratio",
        counts.fallbacks as f64 / total_queries.max(1) as f64,
        total_queries,
    );
    let hybrid = counts.queries[Strategy::Hybrid.index()];
    m.put(
        "engine.spill_rate",
        "ratio",
        spills as f64 / hybrid.max(1) as f64,
        hybrid,
    );
    m.put(
        "engine.short_result_rate",
        "ratio",
        counts.short_results as f64 / total_queries.max(1) as f64,
        total_queries,
    );
    // Wall-clock rates: each reader's normalised time is scaled by readings
    // taken beside the other readers, which would cancel the very
    // slowdown of sharing the cores that this ratio is about.
    m.put(
        "engine.reader_scaling",
        "ratio",
        many.qps_raw / one.qps_raw,
        many.queries,
    );
    m.put("engine.build_s", "s", b.facts.engine_build.norm_s, 1);
    m.put("engine.build_index_s", "s", index_s, 1);
    let built_mb = b.facts.rss_after_build_mb - b.facts.rss_before_build_mb;
    m.put(
        "engine.bytes_per_traj",
        "B",
        built_mb * 1048576.0 / b.inputs.database.len().max(1) as f64,
        1,
    );
    m.put(
        "engine.rss_growth_mb",
        "MiB",
        rss_end - b.facts.rss_after_warmup_mb,
        1,
    );
    let inserts = p.norm_us(run::tag::INSERT);
    m.put(
        "engine.insert_us.p50",
        "us",
        stats::median(&inserts),
        inserts.len(),
    );
    m.put(
        "engine.insert_us.p99",
        "us",
        stats::quantile(&inserts, 0.99),
        inserts.len(),
    );
    m.put(
        "engine.insert_us.max",
        "us",
        stats::quantile(&inserts, 1.0),
        inserts.len(),
    );
    put_p50(&mut m, "engine.remove_us", "us", run::tag::REMOVE, 1.0);
    let rebuilds = b.engine.counters().rebuilds - rebuilds_after_build;
    // The epilogue's compact is one rebuild per shard; the rest were
    // triggered by the thresholds while serving.
    m.put(
        "engine.rebuilds",
        "count",
        rebuilds.saturating_sub(api::SHARDS as u64) as f64,
        1,
    );
    m.put("engine.compact_ms", "ms", compact_s * 1e3, 1);
    m.put("engine.snapshot_save_ms", "ms", save_s * 1e3, 1);
    m.put("engine.snapshot_load_ms", "ms", load_s * 1e3, 1);
    m.put(
        "engine.snapshot_bytes_per_traj",
        "B",
        snapshot_bytes as f64 / live,
        1,
    );

    for (s, key) in STRATEGY_KEYS.iter().enumerate() {
        m.put(
            format!("eval.hr10.{key}"),
            "ratio",
            b.facts.hr10_by_strategy[s],
            b.inputs.quality.len(),
        );
    }
    m.put("eval.ground_truth_s", "s", b.facts.truth.norm_s, 1);
    m.put("eval.pruning_rate", "ratio", b.facts.truth_pruning_rate, 1);
    m.put(
        "eval.pairs_exact",
        "count",
        b.facts.truth_pairs_exact as f64,
        1,
    );
    let generated = b.inputs.total_generated;
    m.put(
        "data.generate_traj_per_s",
        "1/s",
        generated as f64 / b.facts.generate.norm_s,
        generated,
    );
    m.put("data.mean_points", "count", b.inputs.mean_points, generated);

    let untraced: Vec<f64> = run::tag::HAMMING
        .iter()
        .flat_map(|&s| p.norm_us(s))
        .collect();
    let traced: Vec<f64> = run::tag::HAMMING
        .iter()
        .flat_map(|&s| p.norm_us(tag::TRACED + s))
        .collect();
    let overhead_pct = (stats::median(&traced) / stats::median(&untraced) - 1.0) * 100.0;
    m.put("obs.tracing_overhead_pct", "%", overhead_pct, traced.len());
    let mut refs = p.refs.clone();
    refs.extend(one.refs);
    refs.extend(many.refs);
    run::host_metrics(&mut m, &refs);

    let mut info = Metrics::default();
    for (s, key) in STRATEGY_KEYS.iter().enumerate() {
        put_p50(
            &mut info,
            &format!("traced.query_p50_us.{key}"),
            "us",
            tag::TRACED + s,
            1.0,
        );
    }
    let roots: Vec<usize> = (0..tracer.rec.spans.len())
        .filter(|&i| tracer.rec.spans[i].name == "engine.query")
        .collect();
    let self_us: Vec<f64> = roots
        .iter()
        .map(|&i| tracer.rec.self_time_ns(i) / 1e3)
        .collect();
    info.put(
        "raw.engine.query_self_us",
        "us",
        stats::median(&self_us),
        self_us.len(),
    );
    info.put("spans", "count", tracer.rec.spans.len() as f64, 1);
    info.put("raw.setup_s", "s", b.setup.raw_s, 1);

    let mut failures = b.failures;
    let mut phases = b.phases;
    let ladder_failed = tracer.ladder_failures.len();
    for f in tracer.ladder_failures.drain(..) {
        run::note(&mut failures, f);
    }
    phases.push(crate::report::Phase {
        name: "ladder",
        sent: roots.len(),
        failed: ladder_failed.min(roots.len()),
    });

    Ok(RunResult {
        workload,
        seed,
        seconds,
        trace: true,
        metrics: m,
        info,
        phases,
        failures,
        spans_jsonl: Some(tracer.rec.to_jsonl()),
    })
}
