//! The serving engine: sharded, concurrently readable, exact.
//!
//! [`ShardedEngine`] serves the five Section V-E strategies over a live
//! corpus on every core:
//!
//! * the corpus is partitioned across N shards by stable id
//!   (`id % shards`, so the mapping survives compaction and reload); a
//!   caller that wants one shard writes `ShardConfig { shards: 1, .. }`;
//! * each shard's state is an **immutable per-generation snapshot**
//!   ([`crate::shard::ShardState`]) published behind an `Arc` swap —
//!   readers pin a generation with one brief read-lock `Arc::clone`,
//!   then search entirely lock-free; the writer builds the next state
//!   off to the side and publishes it atomically;
//! * every query fans out across shards (sequentially or on a scoped
//!   thread pool, [`ShardConfig::fan_out_threads`]) and per-shard hits
//!   merge through the shared NaN-sound `topk` helper under the
//!   `(distance, id)` total order — so the answer is **independent of
//!   the shard count**, and equal to an exact scan of the live rows for
//!   every exact strategy; the `shard_parity` suite checks both against
//!   a scan oracle;
//! * rebuild/compaction is **per shard**: one shard compacting never
//!   blocks reads on the others, and even the compacting shard keeps
//!   serving its previous generation until the new one is published;
//! * [`ShardedEngine::query_many`] answers request batches against
//!   shards pinned once for the whole batch; each member then takes the
//!   single-query path.
//!
//! ## Reading from other threads
//!
//! The model's parameters live in `Rc<RefCell<..>>` cells (the autodiff
//! tape mutates them in place during training), so the engine itself —
//! the writer — is not `Sync`. Readers therefore get their own
//! byte-identical model replica: call [`ShardedEngine::reader`] for a
//! [`ReaderSpec`] (cheap, `Send`), move it into the reader thread, and
//! [`ReaderSpec::into_reader`] builds the replica locally. A
//! [`ShardReader`] shares the engine's shard set and telemetry,
//! refreshes its replica automatically after a hot swap, and answers
//! queries bit-identically to the writer.

use crate::cell::{PublishCell, Sequenced};
use crate::engine::{tlock, EngineConfig, EngineStats, Hit, Strategy};
use crate::error::EngineError;
use crate::shard::{self, Rows, ShardState};
use crate::snapshot::{self, SnapshotView};
use crate::telemetry::{EngineTelemetry, QueryInfo};
use crate::trace::{self, QueryTrace, ShardTrace, ShardTraceRow, TraceCtx};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;
use traj_data::Trajectory;
use traj_index::search::Hit as SlotHit;
use traj_index::topk::top_k_hits;
use traj_index::BinaryCode;
use traj2hash::{EmbedError, ModelSpec, Traj2Hash};
use tinynn::Tensor;

/// Every live row across the pinned shards as `(block, row)`, in
/// ascending-id order.
fn live_rows(states: &[Arc<ShardState>]) -> Vec<(&Rows, usize)> {
    let mut rows: Vec<(&Rows, usize)> =
        states.iter().flat_map(|st| st.live_slots().map(|slot| st.row_at(slot))).collect();
    rows.sort_unstable_by_key(|&(block, i)| block.ids()[i]);
    rows
}

/// Encodes `trajs` with `model` into one block; row `i` gets `ids[i]`
/// and the sign code of its embedding (Eq. 16).
fn encode_rows(
    model: &Traj2Hash,
    ids: impl IntoIterator<Item = u64>,
    trajs: Vec<Trajectory>,
    threads: usize,
) -> Result<Rows, EngineError> {
    let embeddings = model.embed_all_with_threads(&trajs, threads.max(1));
    let mut rows = Rows::default();
    for ((id, traj), e) in ids.into_iter().zip(trajs).zip(embeddings) {
        rows.push(id, traj, &e, &BinaryCode::from_floats(&e))?;
    }
    Ok(rows)
}

/// Sharding knobs, on top of the per-shard [`EngineConfig`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the corpus partitions into (`id % shards`).
    pub shards: usize,
    /// Scoped worker threads a single query fans out on. `0` or `1`
    /// searches the shards sequentially on the calling thread — the
    /// right default when throughput comes from many reader threads
    /// each running their own queries.
    pub fan_out_threads: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig { shards: 4, fan_out_threads: 0 }
    }
}

impl ShardConfig {
    fn validate(&self) -> Result<(), EngineError> {
        if self.shards == 0 {
            return Err(EngineError::InvalidConfig("shards must be >= 1".into()));
        }
        Ok(())
    }
}

/// The `Send + Sync` recipe readers rebuild their model replica from.
/// Published behind a [`PublishCell`] whose sequence (`version`) bumps
/// on every hot swap, so readers know to refresh their replica.
pub struct ModelBlueprint {
    spec: ModelSpec,
    values: Vec<Tensor>,
    version: u64,
}

impl ModelBlueprint {
    /// Captures `model`'s spec and parameter values. The version starts
    /// at 0 and is stamped by the cell on publish.
    pub fn of(model: &Traj2Hash) -> ModelBlueprint {
        ModelBlueprint { spec: model.spec(), values: model.params.clone_values(), version: 0 }
    }

    /// Builds a byte-identical model replica from the blueprint.
    pub fn instantiate(&self) -> Traj2Hash {
        Traj2Hash::from_spec(&self.spec, &self.values)
    }

    /// The blueprint's publish version (bumps on every hot swap).
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl Sequenced for ModelBlueprint {
    fn seq(&self) -> u64 {
        self.version
    }
    fn set_seq(&mut self, seq: u64) {
        self.version = seq;
    }
}

/// One shard's publish point: readers pin the current generation, the
/// writer swaps in the next. The cell stamps the strictly monotone
/// per-shard `publish_seq` the concurrency and loomlet suites assert
/// never moves backwards under a pinned reader.
pub type ShardCell = PublishCell<ShardState>;

/// Everything shared between the writer and its readers: the shard
/// cells, the cumulative telemetry, and the model blueprint.
struct ShardSet {
    cells: Vec<ShardCell>,
    telemetry: Mutex<EngineTelemetry>,
    model: PublishCell<ModelBlueprint>,
    /// Process-unique trace instance id: flight-recorder traces carry
    /// it so offline validation can group per-shard publish-seq checks
    /// by the engine that produced them.
    trace_instance: u64,
}

impl ShardSet {
    fn pin_all(&self) -> Vec<Arc<ShardState>> {
        self.cells.iter().map(|c| c.pin()).collect()
    }
}

/// A pinned, fully consistent view of every shard at one instant. The
/// corpus it describes cannot change underneath the holder — that is
/// the generation-pinning read protocol.
pub struct PinnedView {
    states: Vec<Arc<ShardState>>,
}

impl PinnedView {
    /// Per-shard publish sequence numbers (strictly monotone per shard).
    pub fn publish_seqs(&self) -> Vec<u64> {
        self.states.iter().map(|s| s.publish_seq).collect()
    }

    /// Per-shard rebuild generation counters.
    pub fn generations(&self) -> Vec<u64> {
        self.states.iter().map(|s| s.generation).collect()
    }

    /// Live entries across all shards.
    pub fn live(&self) -> usize {
        self.states.iter().map(|s| s.live()).sum()
    }

    /// Verifies every structural invariant of every pinned shard state
    /// (tombstone counts, slot ordering, indexes reading the base's own
    /// columns). A torn publish would trip this; the concurrency suite
    /// runs it continuously under writer churn.
    pub fn check_consistent(&self) -> Result<(), String> {
        for (i, s) in self.states.iter().enumerate() {
            s.check_consistent().map_err(|e| format!("shard {i}: {e}"))?;
        }
        Ok(())
    }
}

/// Aggregated fan-out outcome for one query.
struct FanInfo {
    candidates: usize,
    fallback: bool,
    degraded: bool,
    spill: bool,
    overfetch: usize,
    fanout_seconds: f64,
    merge_seconds: f64,
}

/// Searches every pinned shard and merges to the global top-k. Each
/// shard orders its hits by `(distance, slot)` and its slots ascend in
/// id, so merging under `(distance, id)` yields the same list at every
/// shard count: the top-k of all live rows under `(distance, id)`.
fn fan_out(
    states: &[Arc<ShardState>],
    strategy: Strategy,
    q_emb: &[f32],
    q_code: &BinaryCode,
    k: usize,
    threads: usize,
    trace: &mut TraceCtx,
) -> (Vec<Hit>, FanInfo) {
    let t0 = Instant::now();
    trace.step("fanout");
    let tracing = trace.active();
    let n = states.len();
    let mut results: Vec<(Vec<SlotHit>, shard::PathInfo, ShardTrace)> = (0..n)
        .map(|_| (Vec::new(), shard::PathInfo::scan(0, false), ShardTrace::new(tracing)))
        .collect();
    if threads <= 1 || n <= 1 {
        for (st, slot) in states.iter().zip(results.iter_mut()) {
            let (hits, path) = shard::search(&st.ctx(), strategy, q_emb, q_code, k, &mut slot.2);
            slot.0 = hits;
            slot.1 = path;
        }
    } else {
        let workers = threads.min(n);
        let chunk = n.div_ceil(workers);
        std::thread::scope(|scope| {
            for (ci, out_chunk) in results.chunks_mut(chunk).enumerate() {
                let base = ci * chunk;
                scope.spawn(move || {
                    for (j, slot) in out_chunk.iter_mut().enumerate() {
                        let st = &states[base + j];
                        let (hits, path) =
                            shard::search(&st.ctx(), strategy, q_emb, q_code, k, &mut slot.2);
                        slot.0 = hits;
                        slot.1 = path;
                    }
                });
            }
        });
    }
    let fanout_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    trace.step("merge");
    let mut merged: Vec<SlotHit> = Vec::new();
    let mut info = FanInfo {
        candidates: 0,
        fallback: false,
        degraded: false,
        spill: false,
        overfetch: 0,
        fanout_seconds,
        merge_seconds: 0.0,
    };
    for (si, (st, (hits, path, strace))) in states.iter().zip(results).enumerate() {
        let shard_degraded = st.degraded();
        info.candidates += path.candidates;
        info.fallback |= path.fallback;
        info.degraded |= shard_degraded;
        info.spill |= path.spill;
        info.overfetch += path.overfetch;
        if tracing {
            trace.push_shard(ShardTraceRow {
                shard: si,
                publish_seq: st.publish_seq,
                generation: st.generation,
                degraded: shard_degraded,
                candidates: path.candidates,
                fallback: path.fallback,
                spill: path.spill,
                steps: strace.into_steps(),
            });
        }
        // Re-key per-shard slot hits by stable id: `top_k_hits` breaks
        // distance ties by ascending index, so keying by id makes the
        // merged tie-break ascending id, whatever the shard layout.
        merged.extend(hits.into_iter().map(|h| SlotHit {
            // lint: allow(lossy-cast) — stable ids are assigned from a usize-ranged monotone counter
            index: st.id_at(h.index) as usize,
            distance: h.distance,
        }));
    }
    let top = top_k_hits(merged, k);
    let hits = top
        .into_iter()
        .map(|h| Hit { id: h.index as u64, distance: h.distance })
        .collect();
    info.merge_seconds = t1.elapsed().as_secs_f64();
    (hits, info)
}

/// Folds one answered query into telemetry and the obs recorder, seals
/// the trace, and offers it to the flight recorder as a tail-latency
/// exemplar. Returns the [`QueryInfo`] and the sealed [`QueryTrace`].
fn record_query(
    set: &ShardSet,
    strategy: Strategy,
    k_shards: usize,
    info: &FanInfo,
    encode_seconds: f64,
    seconds: f64,
    mut trace: TraceCtx,
) -> (QueryInfo, QueryTrace) {
    let q = QueryInfo {
        strategy,
        degraded: info.degraded,
        linear_fallback: info.fallback,
        candidates: info.candidates,
        overfetch: info.overfetch,
        seconds,
        shards: k_shards,
        encode_seconds,
        fanout_seconds: info.fanout_seconds,
        merge_seconds: info.merge_seconds,
    };
    {
        let mut t = tlock(&set.telemetry);
        let s = &mut t.strategies[strategy.index()];
        s.queries += 1;
        s.latency.record(seconds);
        s.candidates.record(info.candidates as f64);
        if info.fallback {
            s.linear_fallbacks += 1;
        }
        if info.degraded {
            s.degraded_queries += 1;
        }
        if info.spill {
            t.hybrid_spills += 1;
        }
        t.overfetch.record(info.overfetch as f64);
    }
    if traj_obs::enabled() {
        traj_obs::observe_secs(strategy.metric_name(), seconds);
        traj_obs::observe_value("engine.query.candidates", info.candidates as f64);
        traj_obs::observe_value("engine.query.overfetch", info.overfetch as f64);
        traj_obs::observe_secs("engine.query.encode_secs", encode_seconds);
        traj_obs::observe_secs("engine.query.fanout_secs", info.fanout_seconds);
        traj_obs::observe_secs("engine.query.merge_secs", info.merge_seconds);
        traj_obs::observe_value("engine.query.shards", k_shards as f64);
        if info.fallback {
            traj_obs::counter("engine.linear_fallbacks", 1);
        }
        if info.degraded {
            traj_obs::counter("engine.degraded_queries", 1);
        }
        if info.spill {
            traj_obs::counter("engine.hybrid_spills", 1);
        }
    }
    trace.step("record");
    let qt = trace.finish(strategy, seconds);
    qt.offer_to_flight("sharded", set.trace_instance);
    (q, qt)
}

fn empty_query_info(strategy: Strategy, degraded: bool, shards: usize) -> QueryInfo {
    QueryInfo {
        strategy,
        degraded,
        linear_fallback: false,
        candidates: 0,
        overfetch: 0,
        seconds: 0.0,
        shards,
        encode_seconds: 0.0,
        fanout_seconds: 0.0,
        merge_seconds: 0.0,
    }
}

/// The serving engine: owns the model and the sharded corpus, answers
/// all five strategies, takes inserts and removes while serving, and
/// hands out lock-free readers ([`ShardedEngine::reader`]).
pub struct ShardedEngine {
    model: Traj2Hash,
    cfg: EngineConfig,
    scfg: ShardConfig,
    set: Arc<ShardSet>,
    next_id: u64,
    generation: u64,
}

impl ShardedEngine {
    /// Builds a sharded engine over `corpus`; trajectories receive ids
    /// `0..corpus.len()` and land on shard `id % shards`.
    pub fn build(
        model: Traj2Hash,
        corpus: Vec<Trajectory>,
        cfg: EngineConfig,
        scfg: ShardConfig,
    ) -> Result<Self, EngineError> {
        cfg.validate()?;
        scfg.validate()?;
        let n = corpus.len() as u64;
        let rows = encode_rows(&model, 0..n, corpus, cfg.encode_threads)?;
        Ok(Self::from_parts(model, cfg, scfg, rows, n))
    }

    /// Builds from a borrowed model (byte-identical replica via
    /// [`Traj2Hash::spec`]); the caller keeps the original.
    pub fn build_from(
        model: &Traj2Hash,
        corpus: Vec<Trajectory>,
        cfg: EngineConfig,
        scfg: ShardConfig,
    ) -> Result<Self, EngineError> {
        let replica = Traj2Hash::from_spec(&model.spec(), &model.params.clone_values());
        Self::build(replica, corpus, cfg, scfg)
    }

    /// Assembles the engine from pre-encoded rows in ascending-id
    /// order, distributing them across shards by `id % shards`. Both
    /// configs must already be validated.
    fn from_parts(
        model: Traj2Hash,
        cfg: EngineConfig,
        scfg: ShardConfig,
        rows: Rows,
        next_id: u64,
    ) -> Self {
        let n_shards = scfg.shards;
        let cells: Vec<ShardCell> = rows
            .partition(n_shards)
            .into_iter()
            .map(|part| ShardCell::new(ShardState::build(part, &cfg)))
            .collect();
        let set = Arc::new(ShardSet {
            cells,
            telemetry: Mutex::new(EngineTelemetry::default()),
            model: PublishCell::new(ModelBlueprint::of(&model)),
            trace_instance: trace::next_instance_id(),
        });
        // Construction counts as each shard's first rebuild.
        tlock(&set.telemetry).rebuilds += n_shards as u64;
        ShardedEngine { model, cfg, scfg, set, next_id, generation: 1 }
    }

    fn shard_of(&self, id: u64) -> usize {
        // lint: allow(lossy-cast) — residue mod the shard count, which is a small usize
        (id % self.scfg.shards as u64) as usize
    }

    /// The writer's model (for direct embedding access).
    pub fn model(&self) -> &Traj2Hash {
        &self.model
    }

    /// The per-shard engine configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.cfg
    }

    /// The sharding configuration.
    pub fn shard_config(&self) -> &ShardConfig {
        &self.scfg
    }

    /// Consumes the engine, returning the writer's model.
    pub fn into_model(self) -> Traj2Hash {
        self.model
    }

    /// Number of live trajectories across all shards.
    pub fn len(&self) -> usize {
        self.set.pin_all().iter().map(|s| s.live()).sum()
    }

    /// True when no live trajectory remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live ids in ascending order (collected across shards).
    pub fn ids(&self) -> Vec<u64> {
        live_rows(&self.set.pin_all()).into_iter().map(|(block, i)| block.ids()[i]).collect()
    }

    /// True when `id` refers to a live trajectory.
    pub fn contains(&self, id: u64) -> bool {
        self.set.cells[self.shard_of(id)].pin().slot_of(id).is_some()
    }

    /// The live trajectory with stable id `id` (cloned out of the
    /// pinned shard state).
    pub fn get(&self, id: u64) -> Option<Trajectory> {
        let state = self.set.cells[self.shard_of(id)].pin();
        state.slot_of(id).map(|s| state.traj_at(s).clone())
    }

    /// The embedding stored for the live trajectory with stable id `id`
    /// — the row the Euclidean strategies rank it by.
    pub fn embedding(&self, id: u64) -> Option<Vec<f32>> {
        let state = self.set.cells[self.shard_of(id)].pin();
        let (rows, i) = state.row_at(state.slot_of(id)?);
        Some(rows.embeddings().row(i).to_vec())
    }

    /// Cumulative telemetry (shared with every reader).
    pub fn telemetry(&self) -> EngineTelemetry {
        tlock(&self.set.telemetry).clone()
    }

    /// Aggregated lifecycle counters. `generation` is the engine-level
    /// swap/build counter; per-shard rebuild generations are visible
    /// through [`ShardedEngine::pin`].
    pub fn stats(&self) -> EngineStats {
        let states = self.set.pin_all();
        EngineStats {
            live: states.iter().map(|s| s.live()).sum(),
            indexed: states.iter().map(|s| s.indexed()).sum(),
            delta: states.iter().map(|s| s.slots() - s.indexed()).sum(),
            dead: states.iter().map(|s| s.dead_count).sum(),
            generation: self.generation,
            degraded: states.iter().any(|s| s.degraded()),
        }
    }

    /// Pins a consistent view of every shard (the generation-pinning
    /// read protocol, exposed for tests and diagnostics).
    pub fn pin(&self) -> PinnedView {
        PinnedView { states: self.set.pin_all() }
    }

    /// A `Send` handle for spawning readers on other threads.
    pub fn reader(&self) -> ReaderSpec {
        ReaderSpec { set: Arc::clone(&self.set) }
    }

    /// Top-k search over the live corpus.
    ///
    /// The query is encoded once with the owned model; the selected
    /// [`Strategy`] then runs on every shard against its generation
    /// indexes (with tombstone filtering and a linear merge of the
    /// delta) or falls back to an exact linear scan whenever an index
    /// cannot answer — a query never fails because an index degraded.
    ///
    /// `Table` is the one strategy that may return fewer than `k` hits:
    /// it reports exactly the radius-2 ball, like the paper's
    /// `Hamming-Table` row.
    pub fn query(
        &self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<Vec<Hit>, EngineError> {
        self.query_with_info(q, k, strategy).map(|(hits, _)| hits)
    }

    /// [`query`](ShardedEngine::query) plus per-query diagnostics,
    /// including the per-shard fan-out and merge timings.
    pub fn query_with_info(
        &self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryInfo), EngineError> {
        self.query_traced(q, k, strategy).map(|(hits, info, _)| (hits, info))
    }

    /// [`query_with_info`](ShardedEngine::query_with_info) plus the
    /// sealed per-query [`QueryTrace`]: per-shard pinned publish seqs,
    /// candidate counts, fallback taxonomy, and the fan-out/merge step
    /// clock. The trace is empty (inert) unless an obs recorder or a
    /// flight recorder is installed.
    pub fn query_traced(
        &self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryInfo, QueryTrace), EngineError> {
        let states = self.set.pin_all();
        query_pinned(&self.set, &states, &self.model, q, k, strategy, self.scfg.fan_out_threads)
    }

    /// Answers a batch of queries against shards pinned once for the
    /// whole batch, so every member sees the same corpus; each member
    /// then takes the single-query path, so results, telemetry and
    /// traces are those of calling [`ShardedEngine::query`] per query.
    /// One invalid member fails the batch before any work is done.
    pub fn query_many(
        &self,
        qs: &[Trajectory],
        k: usize,
        strategy: Strategy,
    ) -> Result<Vec<Vec<Hit>>, EngineError> {
        qs.iter().try_for_each(EmbedError::check)?;
        let states = self.set.pin_all();
        let threads = self.scfg.fan_out_threads;
        qs.iter()
            .map(|q| {
                query_pinned(&self.set, &states, &self.model, q, k, strategy, threads)
                    .map(|(hits, _, _)| hits)
            })
            .collect()
    }

    /// Encodes and inserts a trajectory, returning its stable id. Only
    /// the owning shard republishes; reads on every other shard are
    /// untouched, and reads on the owning shard keep their pinned
    /// generation. An empty or non-finite trajectory is refused with
    /// [`EngineError::InvalidInput`] (the same check as the query entry
    /// points), a row whose widths differ from the shard's with
    /// [`EngineError::Search`]; either way nothing is stored, counted or
    /// published.
    pub fn try_insert(&mut self, t: Trajectory) -> Result<u64, EngineError> {
        let embedding = self.model.try_embed(&t)?;
        let code = BinaryCode::from_floats(embedding.data());
        let id = self.next_id;
        let si = self.shard_of(id);
        let cell = &self.set.cells[si];
        let next = cell.pin().with_insert(id, t, embedding.data(), &code)?;
        self.next_id += 1;
        cell.publish(next);
        tlock(&self.set.telemetry).inserts += 1;
        traj_obs::counter("engine.inserts", 1);
        self.maybe_rebuild_shard(si);
        Ok(id)
    }

    /// [`try_insert`](ShardedEngine::try_insert) for callers that have
    /// already validated their input.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite trajectory.
    pub fn insert(&mut self, t: Trajectory) -> u64 {
        // lint: allow(panic) — documented precondition; `try_insert` is the fallible form
        self.try_insert(t).unwrap_or_else(|e| panic!("insert: {e}"))
    }

    /// Tombstones the trajectory with stable id `id` on its shard.
    pub fn remove(&mut self, id: u64) -> Result<(), EngineError> {
        let si = self.shard_of(id);
        let cell = &self.set.cells[si];
        let pinned = cell.pin();
        let slot = pinned.slot_of(id).ok_or(EngineError::UnknownId(id))?;
        cell.publish(pinned.with_remove(slot));
        tlock(&self.set.telemetry).removes += 1;
        traj_obs::counter("engine.removes", 1);
        self.maybe_rebuild_shard(si);
        Ok(())
    }

    fn maybe_rebuild_shard(&self, si: usize) {
        if self.set.cells[si].pin().needs_rebuild(&self.cfg) {
            self.rebuild_shard(si);
        }
    }

    /// Compacts and re-indexes one shard. The next generation is built
    /// entirely off the publish lock — readers (on this shard and all
    /// others) keep serving the previous generation until the single
    /// atomic publish at the end.
    fn rebuild_shard(&self, si: usize) {
        let t0 = Instant::now();
        let prev = self.set.cells[si].pin();
        let compacting = prev.dead_count > 0;
        let next = prev.rebuilt(&self.cfg);
        let degraded = next.degraded();
        let generation = next.generation;
        let covers = next.base.rows.len();
        self.set.cells[si].publish(next);
        {
            let mut t = tlock(&self.set.telemetry);
            t.rebuilds += 1;
            if compacting {
                t.compactions += 1;
            }
            if degraded {
                t.degraded_rebuilds += 1;
            }
        }
        if traj_obs::enabled() {
            traj_obs::counter("engine.rebuilds", 1);
            if compacting {
                traj_obs::counter("engine.compactions", 1);
            }
            traj_obs::event(
                "engine.shard.rebuild",
                &[
                    ("shard", si.into()),
                    ("generation", generation.into()),
                    ("covers", covers.into()),
                    ("compacted", compacting.into()),
                    ("degraded", degraded.into()),
                    ("seconds", t0.elapsed().as_secs_f64().into()),
                ],
            );
            if degraded {
                traj_obs::counter("engine.degraded_entries", 1);
            }
        }
        if degraded {
            // Dump tail exemplars the moment a shard drops to degraded
            // serving: the traces leading up to an index-build failure
            // are exactly what a post-mortem wants. Deliberately outside
            // the `enabled()` gate — the flight recorder can be
            // installed without an obs recorder.
            traj_obs::flight::force_dump("engine.degraded");
        }
    }

    /// Forces compaction + re-index of every shard, one at a time (each
    /// shard keeps serving while the others rebuild).
    pub fn compact(&mut self) {
        for si in 0..self.set.cells.len() {
            self.rebuild_shard(si);
        }
    }

    /// Drops every shard's indexes, forcing degraded linear-scan
    /// serving until [`recover`](ShardedEngine::recover) or a rebuild.
    /// Results stay exact; only the access path changes.
    pub fn force_degrade(&mut self) {
        for cell in &self.set.cells {
            let next = cell.pin().with_degraded();
            cell.publish(next);
        }
        tlock(&self.set.telemetry).degraded_rebuilds += 1;
        if traj_obs::enabled() {
            traj_obs::counter("engine.degraded_entries", 1);
            traj_obs::event(
                "engine.degraded",
                &[("reason", "forced".into()), ("generation", self.generation.into())],
            );
        }
        // Outside the `enabled()` gate: flight capture works standalone.
        traj_obs::flight::force_dump("engine.degraded");
    }

    /// Rebuilds every degraded shard; returns `true` when all shards
    /// are healthy afterwards.
    pub fn recover(&mut self) -> bool {
        let mut was_degraded = false;
        for si in 0..self.set.cells.len() {
            if self.set.cells[si].pin().degraded() {
                was_degraded = true;
                self.rebuild_shard(si);
            }
        }
        let healthy = !self.set.pin_all().iter().any(|s| s.degraded());
        if was_degraded && healthy {
            tlock(&self.set.telemetry).recoveries += 1;
            if traj_obs::enabled() {
                traj_obs::counter("engine.recoveries", 1);
                traj_obs::event(
                    "engine.recovered",
                    &[("generation", self.generation.into()), ("live", self.len().into())],
                );
            }
        }
        healthy
    }

    /// Builds a *replacement* engine: the current live corpus re-encoded
    /// with `model`, preserving every stable id and `next_id`, so a
    /// subsequent [`hot_swap`](ShardedEngine::hot_swap) is invisible to
    /// callers holding ids. This is the refresh half of the live
    /// model-update path: fine-tune a model elsewhere, `refreshed()`,
    /// snapshot the replacement, validate it by loading it back, then
    /// swap.
    pub fn refreshed(&self, model: Traj2Hash) -> Result<ShardedEngine, EngineError> {
        let states = self.set.pin_all();
        let (ids, trajs): (Vec<u64>, Vec<Trajectory>) = live_rows(&states)
            .into_iter()
            .map(|(block, i)| (block.ids()[i], block.traj(i).clone()))
            .unzip();
        let rows = encode_rows(&model, ids, trajs, self.cfg.encode_threads)?;
        Ok(Self::from_parts(model, self.cfg.clone(), self.scfg.clone(), rows, self.next_id))
    }

    /// Atomically swaps `replacement`'s model, corpus, and per-shard
    /// [`EngineConfig`] into this engine, shard by shard, keeping
    /// cumulative telemetry, this engine's shard count, and the
    /// monotone per-shard publish sequence. Readers that pinned before
    /// the swap finish their queries on the old generation; readers
    /// that pin after see the new one (and refresh their model replica
    /// via the bumped blueprint version).
    ///
    /// The replacement is typically produced by
    /// [`refreshed`](ShardedEngine::refreshed) and round-tripped through
    /// the `T2HSNAP1` snapshot machinery first, so the bytes that go
    /// live are the bytes that were validated on disk.
    pub fn hot_swap(&mut self, replacement: ShardedEngine) {
        let ShardedEngine { model, cfg, set: rep_set, next_id: rep_next, .. } = replacement;
        let rep_states = rep_set.pin_all();
        if rep_states.len() == self.set.cells.len() {
            for (cell, st) in self.set.cells.iter().zip(&rep_states) {
                cell.publish((**st).clone());
            }
        } else {
            // Shard counts differ: redistribute by id under *this*
            // engine's mapping.
            let mut parts = vec![Rows::default(); self.scfg.shards];
            for (block, i) in live_rows(&rep_states) {
                parts[self.shard_of(block.ids()[i])].push_row(block, i);
            }
            for (cell, part) in self.set.cells.iter().zip(parts) {
                cell.publish(ShardState::build(part, &cfg));
            }
        }
        // The swapped-in states were built under the replacement's
        // config (its Euclidean backend is frozen into them), so later
        // per-shard rebuilds, `config()` and snapshots must use it too.
        self.cfg = cfg;
        // Build the blueprint before touching the cell: the write lock
        // is held only for the Arc swap, never across the clone.
        self.set.model.publish(ModelBlueprint::of(&model));
        self.model = model;
        // next_id only moves forward: a stale replacement must not make
        // the engine re-issue ids that are already out there.
        self.next_id = self.next_id.max(rep_next);
        self.generation += 1;
        let degraded = self.set.pin_all().iter().any(|s| s.degraded());
        tlock(&self.set.telemetry).hot_swaps += 1;
        if traj_obs::enabled() {
            traj_obs::counter("engine.hot_swaps", 1);
            traj_obs::event(
                "engine.hot_swap",
                &[
                    ("generation", self.generation.into()),
                    ("live", self.len().into()),
                    ("degraded", degraded.into()),
                ],
            );
        }
    }

    /// Serializes the full engine state — model spec + parameters,
    /// engine config, and every live entry (id, points, embedding,
    /// code) in ascending-id order — into the checksummed `T2HSNAP1`
    /// container. The shard layout is not serialized, so the bytes load
    /// under any shard count.
    pub fn snapshot_bytes(&self) -> Result<Vec<u8>, EngineError> {
        let states = self.set.pin_all();
        snapshot::encode_view(&SnapshotView {
            model: &self.model,
            cfg: &self.cfg,
            entries: live_rows(&states),
            next_id: self.next_id,
        })
    }

    /// Restores an engine from [`snapshot_bytes`](ShardedEngine::snapshot_bytes)
    /// output, distributing entries across `scfg.shards` shards.
    /// Cold-start is instant: no trajectory is re-encoded, only the
    /// indexes are rebuilt.
    pub fn from_snapshot_bytes(bytes: &[u8], scfg: ShardConfig) -> Result<Self, EngineError> {
        scfg.validate()?;
        let d = snapshot::decode_parts(bytes)?;
        d.cfg.validate()?;
        Ok(Self::from_parts(d.model, d.cfg, scfg, d.rows, d.next_id))
    }

    /// Writes a snapshot atomically and durably (unique fsync'd tmp →
    /// rename → parent-dir fsync), mirroring the checkpoint discipline.
    /// Goes through `traj2hash::iofault::durable_write`, so installed
    /// fault plans apply.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<(), EngineError> {
        self.save_snapshot_retry(path, &traj2hash::RetryPolicy::none()).map(|_| ())
    }

    /// [`save_snapshot`](ShardedEngine::save_snapshot) under a bounded
    /// retry/backoff policy, returning the write receipt.
    pub fn save_snapshot_retry(
        &self,
        path: impl AsRef<Path>,
        policy: &traj2hash::RetryPolicy,
    ) -> Result<traj2hash::WriteReceipt, EngineError> {
        let path = path.as_ref();
        let t0 = Instant::now();
        let bytes = self.snapshot_bytes()?;
        let len = bytes.len();
        let receipt = traj2hash::durable_write_retry(path, &bytes, policy)
            .map_err(traj2hash::CheckpointError::Io)?;
        {
            let mut t = tlock(&self.set.telemetry);
            t.snapshot_saves += 1;
            t.snapshot_bytes += len as u64;
        }
        if traj_obs::enabled() {
            traj_obs::counter("engine.snapshot.saves", 1);
            traj_obs::counter("engine.snapshot.bytes_written", len as u64);
            traj_obs::observe_secs("engine.snapshot.save_secs", t0.elapsed().as_secs_f64());
        }
        Ok(receipt)
    }

    /// Reads and validates a snapshot from disk, cleaning stale staging
    /// leftovers along the way.
    pub fn load_snapshot(path: impl AsRef<Path>, scfg: ShardConfig) -> Result<Self, EngineError> {
        let t0 = Instant::now();
        traj2hash::clean_stale_tmps(path.as_ref());
        let bytes = std::fs::read(path).map_err(traj2hash::CheckpointError::Io)?;
        let engine = Self::from_snapshot_bytes(&bytes, scfg);
        if traj_obs::enabled() {
            traj_obs::counter("engine.snapshot.loads", 1);
            traj_obs::counter("engine.snapshot.bytes_read", bytes.len() as u64);
            traj_obs::observe_secs("engine.snapshot.load_secs", t0.elapsed().as_secs_f64());
            if engine.is_err() {
                traj_obs::counter("engine.snapshot.load_failures", 1);
            }
        }
        engine
    }
}

/// Shared query path: validate, encode with the given model, pin-free
/// (states already pinned), fan out, merge, record.
fn query_pinned(
    set: &ShardSet,
    states: &[Arc<ShardState>],
    model: &Traj2Hash,
    q: &Trajectory,
    k: usize,
    strategy: Strategy,
    threads: usize,
) -> Result<(Vec<Hit>, QueryInfo, QueryTrace), EngineError> {
    // Refused by the encoder's own rule, before the early return below.
    EmbedError::check(q)?;
    let mut trace = TraceCtx::new();
    let degraded = states.iter().any(|s| s.degraded());
    let live: usize = states.iter().map(|s| s.live()).sum();
    if k == 0 || live == 0 {
        trace.step("empty");
        let qt = trace.finish(strategy, 0.0);
        qt.offer_to_flight("sharded", set.trace_instance);
        return Ok((Vec::new(), empty_query_info(strategy, degraded, states.len()), qt));
    }
    let t0 = Instant::now();
    trace.step("embed");
    let embedding = model.try_embed(q)?.data().to_vec();
    let code = BinaryCode::from_floats(&embedding);
    let encode_seconds = t0.elapsed().as_secs_f64();
    let (hits, info) = fan_out(states, strategy, &embedding, &code, k, threads, &mut trace);
    let seconds = t0.elapsed().as_secs_f64();
    let (q_info, qt) =
        record_query(set, strategy, states.len(), &info, encode_seconds, seconds, trace);
    Ok((hits, q_info, qt))
}

/// A `Send` recipe for building a [`ShardReader`] on another thread.
/// The model itself is not `Send` (its parameters are `Rc`-backed), so
/// the spec + values blueprint travels instead and the replica is built
/// on the destination thread.
pub struct ReaderSpec {
    set: Arc<ShardSet>,
}

impl ReaderSpec {
    /// Builds the reader (instantiating a local model replica from the
    /// current blueprint). Call this *on the reader thread*. The
    /// blueprint `Arc` is pinned out of the cell first, so the replica
    /// build never holds the publish lock (a guard held across
    /// `instantiate` would stall every hot swap behind a full model
    /// rebuild — the exact hazard `no-guard-across-compute` flags).
    pub fn into_reader(self) -> ShardReader {
        let bp = self.set.model.pin();
        let model = bp.instantiate();
        ShardReader { set: self.set, model, model_version: bp.version }
    }
}

/// A per-thread query handle over the shared shard set. Queries are
/// lock-free after the per-shard generation pin and bit-identical to
/// the writer's: same shared search core, same merge order, and a model
/// replica rebuilt from the blueprint whenever a hot swap bumps its
/// version.
pub struct ShardReader {
    set: Arc<ShardSet>,
    model: Traj2Hash,
    model_version: u64,
}

impl ShardReader {
    /// Refreshes the local model replica if a hot swap published a new
    /// blueprint since this reader last looked.
    fn refresh_model(&mut self) {
        if self.set.model.seq() != self.model_version {
            let bp = self.set.model.pin();
            self.model = bp.instantiate();
            self.model_version = bp.version;
        }
    }

    /// Pins a consistent view of every shard.
    pub fn pin(&self) -> PinnedView {
        PinnedView { states: self.set.pin_all() }
    }

    /// Top-k search; bit-identical to the owning engine's
    /// [`ShardedEngine::query`]. `&mut self` only because the model
    /// replica may need refreshing after a hot swap — the shared state
    /// is never written.
    pub fn query(
        &mut self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<Vec<Hit>, EngineError> {
        self.query_with_info(q, k, strategy).map(|(hits, _)| hits)
    }

    /// [`query`](ShardReader::query) plus diagnostics.
    pub fn query_with_info(
        &mut self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryInfo), EngineError> {
        self.query_traced(q, k, strategy).map(|(hits, info, _)| (hits, info))
    }

    /// [`query_with_info`](ShardReader::query_with_info) plus the sealed
    /// per-query [`QueryTrace`] (inert unless a trace consumer is
    /// installed).
    pub fn query_traced(
        &mut self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryInfo, QueryTrace), EngineError> {
        self.refresh_model();
        let states = self.set.pin_all();
        // Readers fan out sequentially: reader-side parallelism comes
        // from running many readers, not from splitting one query.
        query_pinned(&self.set, &states, &self.model, q, k, strategy, 1)
    }
}
