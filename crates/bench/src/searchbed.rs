//! The search bed: the one program behind Fig. 5, Fig. 6 and the index
//! extension (Section V-E).
//!
//! It trains the `--scale` model the way `table12` does (Porto,
//! Fréchet), generates trips from the same city, builds a **one-shard
//! [`ShardedEngine`]** over them and answers every query through
//! [`ShardedEngine::query_with_info`]. Every number it reports is the
//! engine's own: search time is `QueryInfo::fanout_seconds +
//! merge_seconds`, the work column is `QueryInfo::candidates`, spills
//! are the answers whose `QueryInfo::spill` is set. There is no second timer,
//! no second top-k and no second code generator — the codes searched are
//! the ones the trained model emits.

use crate::methods::train_traj2hash;
use crate::scale::{build_dataset, City, Scale};
use std::time::Instant;
use traj2hash::{ModelContext, TrainData, Traj2Hash};
use traj_data::{CityGenerator, Trajectory};
use traj_dist::Measure;
use traj_engine::{
    EngineConfig, EuclideanBackend, Hit, QueryInfo, ShardConfig, ShardedEngine, Strategy,
};
use traj_eval::{fmt_ms, TextTable};

/// The city the model trains on and every trip is drawn from.
const CITY: City = City::Porto;
/// Queries behind every cell.
pub const QUERIES: usize = 200;
/// Worker threads for bulk encoding at engine build.
const ENCODE_THREADS: usize = 2;
/// Trip-stream salts: database rows and queries are disjoint streams
/// over the training city's hubs.
const DATABASE_STREAM: u64 = 0xDA7A_BA5E;
const QUERY_STREAM: u64 = 0x9E37_79B9;

/// Lower quartile, median and upper quartile (nearest rank).
fn quartiles(mut samples: Vec<f64>) -> [f64; 3] {
    samples.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| samples[(samples.len() - 1) * q / 4])
}

/// A trained model, its query set and the row-count rule of one scale.
pub struct SearchBed {
    model: Traj2Hash,
    seed: u64,
    scale: &'static str,
    queries: Vec<Trajectory>,
    train_seconds: f64,
    /// `QueryInfo::encode_seconds` of every measured query so far.
    encode_seconds: Vec<f64>,
}

/// One measured pass of one strategy at one `k` over one engine: the
/// engine's answer and its [`QueryInfo`] for every query.
pub struct Pass {
    /// Neighbours asked for.
    pub k: usize,
    /// Per query, what `query_with_info` returned.
    pub answers: Vec<(Vec<Hit>, QueryInfo)>,
}

impl Pass {
    /// Result columns of a table row, after the caller's label columns.
    pub const COLUMNS: [&'static str; 6] =
        ["search ms (p50)", "IQR ms (p25-p75)", "candidates (p50)", "spills", "short", "fallbacks"];

    /// Queries answered with fewer than `k` hits.
    pub fn short(&self) -> usize {
        self.answers.iter().filter(|(hits, _)| hits.len() < self.k).count()
    }

    /// Queries whose radius-2 ball came up short and spilled into a
    /// scan — what they add to the engine's `hybrid_spills`.
    pub fn spills(&self) -> usize {
        self.answers.iter().filter(|(_, i)| i.spill).count()
    }

    /// Queries a scan answered because the index could not.
    pub fn fallbacks(&self) -> usize {
        self.answers.iter().filter(|(_, i)| i.linear_fallback).count()
    }

    /// The [`Pass::COLUMNS`] cells: quartiles of the engine's search
    /// clock, median rows evaluated, then the counts.
    pub fn cells(&self) -> Vec<String> {
        let infos = || self.answers.iter().map(|(_, info)| info);
        let [p25, p50, p75] =
            quartiles(infos().map(|i| i.fanout_seconds + i.merge_seconds).collect());
        let candidates = quartiles(infos().map(|i| i.candidates as f64).collect())[1];
        vec![
            fmt_ms(p50),
            format!("{}-{}", fmt_ms(p25), fmt_ms(p75)),
            format!("{candidates:.0}"),
            self.spills().to_string(),
            self.short().to_string(),
            self.fallbacks().to_string(),
        ]
    }
}

impl SearchBed {
    /// Trains the scale's model on Porto / Fréchet under the shared
    /// protocol and draws the query set.
    pub fn train(scale: &Scale, seed: u64) -> SearchBed {
        let t0 = Instant::now();
        let dataset = build_dataset(CITY, scale, seed);
        let ctx = ModelContext::prepare(&dataset.training_visible(), &scale.model, seed);
        let data = TrainData::prepare(&dataset, Measure::Frechet, &scale.train)
            .expect("failed to prepare training supervision");
        let (model, _) = train_traj2hash(&dataset, &ctx, &data, scale, seed);
        let train_seconds = t0.elapsed().as_secs_f64();
        let queries = CityGenerator::with_trip_seed(CITY.params(), seed, seed ^ QUERY_STREAM)
            .generate(QUERIES);
        let encode_seconds = Vec::new();
        SearchBed { model, seed, scale: scale.name, queries, train_seconds, encode_seconds }
    }

    /// A one-shard engine over the first `paper_rows` (1/100 of them at
    /// `tiny`) generated trips, encoded by the bed's model.
    pub fn engine(&self, paper_rows: usize, backend: EuclideanBackend) -> ShardedEngine {
        let rows = if self.scale == "tiny" { paper_rows / 100 } else { paper_rows };
        let trips =
            CityGenerator::with_trip_seed(CITY.params(), self.seed, self.seed ^ DATABASE_STREAM)
                .generate(rows);
        let cfg = EngineConfig {
            euclidean_backend: backend,
            encode_threads: ENCODE_THREADS,
            ..EngineConfig::default()
        };
        let scfg = ShardConfig { shards: 1, ..ShardConfig::default() };
        ShardedEngine::build_from(&self.model, trips, cfg, scfg).expect("engine build")
    }

    /// Answers every query twice through `query_with_info` — a warm-up
    /// pass that is discarded, then the measured one.
    pub fn measure(&mut self, engine: &ShardedEngine, strategy: Strategy, k: usize) -> Pass {
        let run = |queries: &[Trajectory]| -> Vec<(Vec<Hit>, QueryInfo)> {
            queries
                .iter()
                .map(|q| engine.query_with_info(q, k, strategy).expect("engine query"))
                .collect()
        };
        run(&self.queries);
        let answers = run(&self.queries);
        self.encode_seconds.extend(answers.iter().map(|(_, i)| i.encode_seconds));
        Pass { k, answers }
    }

    /// An empty result table: the caller's label columns, then
    /// [`Pass::COLUMNS`].
    pub fn table(labels: &[&str]) -> TextTable {
        TextTable::new(labels.iter().chain(&Pass::COLUMNS).copied().collect())
    }

    /// The header every result file opens with: what was measured, by
    /// which clocks, over how many queries, and the encode median over
    /// every query measured so far.
    pub fn header(&self, title: &str) -> String {
        let bits = self.model.embedding_dim();
        let cores = std::thread::available_parallelism().map_or(1, usize::from);
        format!(
            "# {title}\n\
             # engine: traj_engine::ShardedEngine::query_with_info, shards = 1; \
             model: Traj2Hash scale={} seed={} trained on {} / Frechet in {:.1} s\n\
             # code width: {bits} bits ({} B a row) beside a {bits} x f32 embedding ({} B a row)\n\
             # queries: {QUERIES} per row; passes: 1 warm-up (discarded) + 1 measured; \
             search ms = QueryInfo::fanout_seconds + merge_seconds, median and p25-p75\n\
             # candidates = QueryInfo::candidates (rows whose distance was evaluated); \
             spills = hybrid_spills delta; short = answers under k; fallbacks = linear_fallback\n\
             # encode (QueryInfo::encode_seconds, every measured query): median {} ms; \
             host: {cores} cores, {ENCODE_THREADS} encode threads at build\n",
            self.scale,
            self.seed,
            CITY.name(),
            self.train_seconds,
            bits.div_ceil(8),
            bits * 4,
            fmt_ms(quartiles(self.encode_seconds.clone())[1]),
        )
    }
}
