//! The only file that names the program under test.
//!
//! Everything the benchmark measures is reached through the wrappers
//! below, so a later refactor of the workspace (one engine instead of
//! two, a flat embedding matrix, a tape-free encoder) breaks the
//! benchmark here and nowhere else. The wrappers add nothing: each is
//! one call into a `pub` item, timed by the caller from outside.

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use tinynn::{EncoderBlock, MultiHeadSelfAttention, ParamSet, Tape, Tensor};
use traj2hash::{ModelConfig, ModelContext, TrainConfig, TrainData, TrainHooks, Traj2Hash};
use traj_data::{CityGenerator, CityParams, Dataset};
use traj_dist::Measure;
use traj_engine::{EngineConfig, ShardConfig, ShardReader, ShardedEngine};
use traj_eval::GroundTruthOptions;
use traj_index::{HammingTable, MultiIndexHashing, PackedCodes, VpTree};

pub use traj_data::Trajectory;
pub use traj_engine::{Hit, QueryInfo, Strategy};
pub use traj_index::BinaryCode;

/// Result of an operation sent to the program; the text is only printed.
pub type Res<T> = Result<T, String>;

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Column of [`Strategy::ALL`] and suffix of the per-strategy metrics.
pub const STRATEGY_KEYS: [&str; 5] = ["euclidean_bf", "hamming_bf", "table", "mih", "hybrid"];

// ---- traj-data -------------------------------------------------------

/// The hub layout is part of the workload, not of the seed: trip lengths
/// follow hub distances, so a city per seed would move every latency by
/// the city's mean trip length before the program did anything.
const CITY_SEED: u64 = 2024;

/// `n` trips through the fixed porto-like city, drawn from one generator
/// stream seeded by `seed`.
pub fn generate(seed: u64, n: usize) -> Vec<Trajectory> {
    CityGenerator::with_trip_seed(CityParams::porto_like(), CITY_SEED, seed).generate(n)
}

// ---- traj2hash -------------------------------------------------------

/// Model size under test: `small()` for every workload, `tiny()` for the
/// debug-build self-test.
#[derive(Clone, Copy, PartialEq)]
pub enum ModelSize {
    Small,
    #[cfg_attr(not(test), allow(dead_code))]
    Tiny,
}

pub struct Model(Traj2Hash);

/// Supervision plus what `train` needs to run again.
pub struct Training {
    data: TrainData,
    cfg: TrainConfig,
}

fn train_config(size: ModelSize, epochs: usize, threads: usize, seed: u64) -> TrainConfig {
    let cfg = TrainConfig {
        epochs,
        validate: false,
        num_threads: threads,
        seed,
        ..TrainConfig::default()
    };
    match size {
        ModelSize::Small => cfg,
        ModelSize::Tiny => TrainConfig {
            triplets_per_epoch: 32,
            triplet_batch: 16,
            ..cfg
        },
    }
}

/// `TrainData::prepare` over the Fréchet measure.
pub fn train_prepare(
    seeds: &[Trajectory],
    validation: &[Trajectory],
    corpus: &[Trajectory],
    size: ModelSize,
    epochs: usize,
    threads: usize,
    seed: u64,
) -> Res<Training> {
    let dataset = Dataset {
        seeds: seeds.to_vec(),
        validation: validation.to_vec(),
        corpus: corpus.to_vec(),
        query: Vec::new(),
        database: Vec::new(),
    };
    let cfg = train_config(size, epochs, threads, seed);
    let data = TrainData::prepare(&dataset, Measure::Frechet, &cfg).map_err(err)?;
    Ok(Training { data, cfg })
}

/// `ModelContext::prepare` + a freshly initialised model.
pub fn new_model(visible: &[Trajectory], size: ModelSize, seed: u64) -> Model {
    let cfg = match size {
        ModelSize::Small => ModelConfig::small(),
        ModelSize::Tiny => ModelConfig::tiny(),
    };
    let ctx = ModelContext::prepare(visible, &cfg, seed);
    Model(Traj2Hash::new(cfg, &ctx, seed))
}

/// Trains in place; `between_epochs` runs after every epoch (the caller
/// samples the host reference there). Returns raw seconds per epoch.
pub fn train(model: &mut Model, t: &Training, mut between_epochs: impl FnMut()) -> Res<Vec<f64>> {
    let hooks = TrainHooks::with_loss_hook(|_, loss| {
        between_epochs();
        loss
    });
    let report = traj2hash::train_with_hooks(&mut model.0, &t.data, &t.cfg, hooks).map_err(err)?;
    Ok(report.timings.epoch_seconds)
}

pub fn validation_hr10(model: &Model, t: &Training) -> f64 {
    traj2hash::validation_hr10(&model.0, &t.data)
}

impl Model {
    pub fn embed(&self, t: &Trajectory) -> Vec<f32> {
        self.0.embed(t).data().to_vec()
    }

    pub fn embed_batch(&self, ts: &[Trajectory]) -> Vec<Vec<f32>> {
        self.0.embed_batch(ts)
    }

    pub fn embed_all(&self, ts: &[Trajectory], threads: usize) -> Vec<Vec<f32>> {
        self.0.embed_all_with_threads(ts, threads)
    }

    /// `Traj2Hash::from_spec` — what every reader thread pays at start-up.
    pub fn replica(&self) -> Model {
        Model(Traj2Hash::from_spec(
            &self.0.spec(),
            &self.0.params.clone_values(),
        ))
    }
}

pub fn pack(embedding: &[f32]) -> BinaryCode {
    BinaryCode::from_floats(embedding)
}

// ---- traj-engine -----------------------------------------------------

pub struct Engine(ShardedEngine);
pub struct Reader(ShardReader);

/// Cumulative engine counters the benchmark reads back.
pub struct Counters {
    pub rebuilds: u64,
    pub hybrid_spills: u64,
}

fn shard_config() -> ShardConfig {
    ShardConfig {
        shards: SHARDS,
        fan_out_threads: 0,
    }
}

/// Shards of every engine the benchmark builds (the load model's
/// `ShardConfig { shards: 2, fan_out_threads: 0 }`).
pub const SHARDS: usize = 2;

impl Engine {
    /// `ShardedEngine::build_from` with default rebuild thresholds.
    pub fn build(model: &Model, database: Vec<Trajectory>, encode_threads: usize) -> Res<Engine> {
        let cfg = EngineConfig {
            encode_threads,
            ..EngineConfig::default()
        };
        ShardedEngine::build_from(&model.0, database, cfg, shard_config())
            .map(Engine)
            .map_err(err)
    }

    pub fn query(&self, q: &Trajectory, k: usize, s: Strategy) -> Res<(Vec<Hit>, QueryInfo)> {
        self.0.query_with_info(q, k, s).map_err(err)
    }

    pub fn query_many(&self, qs: &[Trajectory], k: usize, s: Strategy) -> Res<Vec<Vec<Hit>>> {
        self.0.query_many(qs, k, s).map_err(err)
    }

    pub fn get(&self, id: u64) -> Option<Trajectory> {
        self.0.get(id)
    }

    pub fn insert(&mut self, t: Trajectory) -> u64 {
        self.0.insert(t)
    }

    pub fn remove(&mut self, id: u64) -> Res<()> {
        self.0.remove(id).map_err(err)
    }

    pub fn compact(&mut self) {
        self.0.compact()
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn snapshot_bytes(&self) -> Res<Vec<u8>> {
        self.0.snapshot_bytes().map_err(err)
    }

    pub fn from_snapshot_bytes(bytes: &[u8]) -> Res<Engine> {
        ShardedEngine::from_snapshot_bytes(bytes, shard_config())
            .map(Engine)
            .map_err(err)
    }

    pub fn counters(&self) -> Counters {
        let t = self.0.telemetry();
        Counters {
            rebuilds: t.rebuilds,
            hybrid_spills: t.hybrid_spills,
        }
    }

    /// Runs `body` on a new thread that owns a `ShardReader` (the model
    /// replica is built on that thread, as the engine requires).
    pub fn spawn_reader<'scope, T: Send + 'scope>(
        &self,
        scope: &'scope std::thread::Scope<'scope, '_>,
        body: impl FnOnce(Reader) -> T + Send + 'scope,
    ) -> std::thread::ScopedJoinHandle<'scope, T> {
        let spec = self.0.reader();
        scope.spawn(move || body(Reader(spec.into_reader())))
    }
}

impl Reader {
    pub fn query(&mut self, q: &Trajectory, k: usize, s: Strategy) -> Res<Vec<Hit>> {
        self.0.query(q, k, s).map_err(err)
    }
}

// ---- traj-index: the benchmark's own single-shard copies -------------

/// A search hit of a single structure: `(row, distance)`.
pub type RowHit = (usize, f64);

fn rows(hits: Vec<traj_index::Hit>) -> Vec<RowHit> {
    hits.into_iter().map(|h| (h.index, h.distance)).collect()
}

pub struct Packed(PackedCodes);
pub struct Table(HammingTable);
pub struct Mih(MultiIndexHashing);
pub struct Vp(VpTree);

impl Packed {
    pub fn build(codes: &[BinaryCode]) -> Res<Packed> {
        PackedCodes::build(codes).map(Packed).map_err(err)
    }

    pub fn scan(&self, q: &BinaryCode, out: impl FnMut(usize, u32)) {
        self.0.scan_into(q, out)
    }
}

impl Table {
    pub fn build(codes: Vec<BinaryCode>) -> Res<Table> {
        HammingTable::try_build(codes).map(Table).map_err(err)
    }

    /// Rows within Hamming radius 2 of `q`.
    pub fn lookup(&self, q: &BinaryCode) -> Res<usize> {
        let grouped = self.0.lookup_within(q, 2).map_err(err)?;
        Ok(grouped.iter().map(|(_, rows)| rows.len()).sum())
    }

    pub fn hybrid(&self, q: &BinaryCode, k: usize) -> Res<Vec<RowHit>> {
        self.0.hybrid_top_k(q, k).map(rows).map_err(err)
    }

    pub fn buckets(&self) -> usize {
        self.0.bucket_count()
    }
}

impl Mih {
    pub fn build(codes: Vec<BinaryCode>) -> Res<Mih> {
        let tables = EngineConfig::default().mih_tables;
        MultiIndexHashing::try_build(codes, tables)
            .map(Mih)
            .map_err(err)
    }

    pub fn top_k(&self, q: &BinaryCode, k: usize) -> Res<Vec<RowHit>> {
        self.0.top_k(q, k).map(rows).map_err(err)
    }
}

impl Vp {
    pub fn build(embeddings: Vec<Vec<f32>>) -> Vp {
        Vp(VpTree::build(embeddings))
    }

    /// Hits plus the number of distance evaluations spent.
    pub fn top_k(&self, q: &[f32], k: usize) -> (Vec<RowHit>, usize) {
        let (hits, visited) = self.0.top_k_counted(q, k);
        (rows(hits), visited)
    }
}

pub fn euclidean_top_k(embeddings: &[Vec<f32>], q: &[f32], k: usize) -> Vec<RowHit> {
    rows(traj_index::euclidean_top_k(embeddings, q, k))
}

/// The shared top-k selection over `(row, distance)` candidates.
pub fn top_k_select(candidates: &[RowHit], k: usize) -> Vec<RowHit> {
    let hits = candidates
        .iter()
        .map(|&(index, distance)| traj_index::Hit { index, distance });
    rows(traj_index::top_k_hits(hits.collect(), k))
}

// ---- traj-eval / traj-dist -------------------------------------------

pub struct Truth {
    /// Per query, database rows nearest first.
    pub rows: Vec<Vec<usize>>,
    pub pruning_rate: f64,
    pub pairs_exact: u64,
}

/// Exact Fréchet top-k through the pruned driver.
pub fn ground_truth(
    queries: &[Trajectory],
    database: &[Trajectory],
    k: usize,
    threads: usize,
) -> Res<Truth> {
    let opts = GroundTruthOptions {
        threads: Some(threads),
        ..GroundTruthOptions::default()
    };
    let (rows, stats) =
        traj_eval::ground_truth_top_k_with(queries, database, Measure::Frechet, k, &opts)
            .map_err(err)?;
    Ok(Truth {
        rows,
        pruning_rate: stats.pruned_fraction(),
        pairs_exact: stats.pairs_exact,
    })
}

pub fn frechet(a: &Trajectory, b: &Trajectory) -> f64 {
    Measure::Frechet.distance(a, b)
}

// ---- tinynn kernels ---------------------------------------------------

fn filled(rows: usize, cols: usize, salt: f32) -> Tensor {
    let data = (0..rows * cols)
        .map(|i| (i as f32 * 0.37 + salt).sin() * 0.5)
        .collect();
    Tensor::from_vec(rows, cols, data)
}

/// Returns a closure computing one `n x m` by `m x p` matmul.
pub fn matmul_kernel(n: usize, m: usize, p: usize) -> impl Fn() -> f32 {
    let (a, b) = (filled(n, m, 1.0), filled(m, p, 2.0));
    move || a.matmul(&b).get(0, 0)
}

/// Forward pass of one self-attention layer on a fresh tape.
pub fn attention_kernel(n: usize, dim: usize, heads: usize) -> impl Fn() -> f32 {
    let mut params = ParamSet::new();
    let layer = MultiHeadSelfAttention::new(&mut StdRng::seed_from_u64(1), &mut params, dim, heads);
    let x = Arc::new(filled(n, dim, 3.0));
    move || {
        let tape = Tape::new();
        layer
            .forward(&tape, &tape.constant_arc(Arc::clone(&x)))
            .value()
            .get(0, 0)
    }
}

/// Forward pass of one Attention–MLP block on a fresh tape.
pub fn encoder_block_kernel(n: usize, dim: usize, heads: usize) -> impl Fn() -> f32 {
    let mut params = ParamSet::new();
    let block = EncoderBlock::new(
        &mut StdRng::seed_from_u64(2),
        &mut params,
        dim,
        2 * dim,
        heads,
    );
    let x = Arc::new(filled(n, dim, 4.0));
    move || {
        let tape = Tape::new();
        block
            .forward(&tape, &tape.constant_arc(Arc::clone(&x)))
            .value()
            .get(0, 0)
    }
}

// ---- traj-obs ----------------------------------------------------------

/// One emission-site call with no recorder installed.
pub fn obs_disabled_record(i: u64) {
    traj_obs::counter(std::hint::black_box("t2h_bench.noop"), i);
}

pub fn obs_enabled() -> bool {
    traj_obs::enabled()
}
