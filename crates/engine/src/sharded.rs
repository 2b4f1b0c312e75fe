//! The serving engine: sharded, concurrently readable, exact.
//!
//! [`ShardedEngine`] serves the five Section V-E strategies over a live
//! corpus on every core:
//!
//! * the corpus is partitioned across N shards by stable id
//!   (`id % shards`, so the mapping survives compaction and reload); a
//!   caller that wants one shard writes `ShardConfig { shards: 1, .. }`;
//! * each shard's state is an **immutable per-generation snapshot**
//!   ([`crate::shard::ShardState`]), and the engine publishes **one
//!   view** — the model blueprint and every shard state that model
//!   encoded — behind its single [`PublishCell`]. A read is one pin (a
//!   brief read-lock `Arc::clone`), then lock-free; a write builds the
//!   next shard state off to the side, derives the next view from the
//!   current one (`O(shards)` `Arc` clones) and publishes once. So a
//!   query can never rank rows of one model against a query encoded by
//!   another, nor merge shards of two models: a hot swap installs the
//!   model and all its shards in the same step;
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
//!   one view pinned for the whole batch; each member then takes the
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
//! [`ShardReader`] shares the engine's published view and telemetry,
//! rebuilds its replica from the blueprint inside the view it pinned
//! whenever that is not the one it was built from, and answers queries
//! bit-identically to the writer.
//!
//! The engine is the only writer of its cell (the `Rc`s make it neither
//! `Send` nor `Sync`), so the view a write pins at its start is still
//! the current one when it publishes.

use crate::cell::PublishCell;
use crate::engine::{EngineConfig, EngineStats, Hit, Strategy};
use crate::error::EngineError;
use crate::shard::{self, Rows, ShardState};
use crate::snapshot::{self, SnapshotView};
use crate::telemetry::{EngineTelemetry, LiveTelemetry, QueryInfo};
use crate::trace::{self, QueryTrace, ShardRow};
use std::path::Path;
use std::sync::Arc;
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
struct ModelBlueprint {
    spec: ModelSpec,
    values: Vec<Tensor>,
}

impl ModelBlueprint {
    /// Captures `model`'s spec and parameter values.
    fn of(model: &Traj2Hash) -> ModelBlueprint {
        ModelBlueprint { spec: model.spec(), values: model.params.clone_values() }
    }

    /// Builds a byte-identical model replica from the blueprint.
    fn instantiate(&self) -> Traj2Hash {
        Traj2Hash::from_spec(&self.spec, &self.values)
    }
}

/// What the engine publishes and every read pins: a model and the
/// shard states holding the rows that model encoded.
struct EngineView {
    blueprint: Arc<ModelBlueprint>,
    /// One state per shard, `id % shards`.
    states: Vec<Arc<ShardState>>,
    /// The sequence the cell stamped on this view.
    seq: u64,
}

impl EngineView {
    /// A view in which every shard changed: each state is stamped `seq`.
    fn of(blueprint: Arc<ModelBlueprint>, states: Vec<ShardState>, seq: u64) -> EngineView {
        let states =
            states.into_iter().map(|s| Arc::new(ShardState { publish_seq: seq, ..s })).collect();
        EngineView { blueprint, states, seq }
    }

    fn live(&self) -> usize {
        self.states.iter().map(|s| s.live()).sum()
    }

    fn degraded(&self) -> bool {
        self.states.iter().any(|s| s.degraded())
    }
}

/// Everything shared between the writer and its readers: the published
/// view and the cumulative telemetry.
struct ShardSet {
    view: PublishCell<EngineView>,
    telemetry: LiveTelemetry,
    /// Process-unique trace instance id: flight-recorder traces carry
    /// it so offline validation can group per-shard publish-seq checks
    /// by the engine that produced them.
    trace_instance: u64,
}

/// A pinned, fully consistent view of the engine at one instant: its
/// model and every shard. The corpus it describes cannot change
/// underneath the holder.
pub struct PinnedView {
    view: Arc<EngineView>,
}

impl PinnedView {
    /// The sequence of the pinned view: every publish (insert, remove,
    /// rebuild, degrade, hot swap) takes the next one.
    pub fn seq(&self) -> u64 {
        self.view.seq
    }

    /// Per shard, the view sequence at which it last changed (strictly
    /// increasing per shard).
    pub fn publish_seqs(&self) -> Vec<u64> {
        self.view.states.iter().map(|s| s.publish_seq).collect()
    }

    /// Per-shard rebuild generation counters.
    pub fn generations(&self) -> Vec<u64> {
        self.view.states.iter().map(|s| s.generation).collect()
    }

    /// Live entries across all shards.
    pub fn live(&self) -> usize {
        self.view.live()
    }

    /// Verifies every structural invariant of every pinned shard state
    /// (tombstone counts, slot ordering, indexes reading the base's own
    /// columns) and the pairing the view exists for: every stored row
    /// is as wide as the view's model encodes. A torn publish would
    /// trip this; the concurrency suite runs it continuously under
    /// writer churn.
    pub fn check_consistent(&self) -> Result<(), String> {
        let dim = self.view.blueprint.spec.cfg.dim;
        for (i, s) in self.view.states.iter().enumerate() {
            s.check_consistent().map_err(|e| format!("shard {i}: {e}"))?;
            s.check_widths(dim).map_err(|e| format!("shard {i} vs the view's model: {e}"))?;
        }
        Ok(())
    }
}

/// Searches every pinned shard and merges to the global top-k, filling
/// `trace.info` with the work done and the fan-out / merge clocks and,
/// on an active trace, `trace.shards` with one row per shard. Each
/// shard orders its hits by `(distance, slot)` and its slots ascend in
/// id, so merging under `(distance, id)` yields the same list at every
/// shard count: the top-k of all live rows under `(distance, id)`.
fn fan_out(
    states: &[Arc<ShardState>],
    q_emb: &[f32],
    q_code: &BinaryCode,
    k: usize,
    threads: usize,
    trace: &mut QueryTrace,
) -> Vec<Hit> {
    let t0 = Instant::now();
    let strategy = trace.info.strategy;
    let n = states.len();
    let mut results: Vec<(Vec<SlotHit>, shard::PathInfo)> =
        (0..n).map(|_| (Vec::new(), shard::PathInfo::scan(0, false))).collect();
    if threads <= 1 || n <= 1 {
        for (st, slot) in states.iter().zip(results.iter_mut()) {
            *slot = shard::search(&st.ctx(), strategy, q_emb, q_code, k);
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
                        *slot = shard::search(&st.ctx(), strategy, q_emb, q_code, k);
                    }
                });
            }
        });
    }
    trace.info.fanout_seconds = t0.elapsed().as_secs_f64();

    let t1 = Instant::now();
    let tracing = trace.active();
    let info = &mut trace.info;
    let mut merged: Vec<SlotHit> = Vec::new();
    for (si, (st, (hits, path))) in states.iter().zip(results).enumerate() {
        let degraded = st.degraded();
        info.candidates += path.candidates;
        info.linear_fallback |= path.fallback;
        info.degraded |= degraded;
        info.spill |= path.spill;
        info.overfetch += path.overfetch;
        if tracing {
            trace.shards.push(ShardRow {
                shard: si,
                publish_seq: st.publish_seq,
                generation: st.generation,
                degraded,
                candidates: path.candidates,
                fallback: path.fallback,
                spill: path.spill,
                path: path.path,
            });
        }
        // Re-key per-shard slot hits by stable id: `top_k_hits` breaks
        // distance ties by ascending index, so keying by id makes the
        // merged tie-break ascending id, whatever the shard layout.
        merged.extend(hits.into_iter().map(|h| SlotHit {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "ids come from a usize-ranged counter"
            )]
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
    hits
}

/// Counts one answered query, mirrors its distributions to the obs
/// recorder, and offers the trace to the flight recorder as a
/// tail-latency exemplar.
fn record_query(set: &ShardSet, trace: &QueryTrace) {
    let q = &trace.info;
    set.telemetry.query(q);
    if traj_obs::enabled() {
        traj_obs::observe_secs(q.strategy.metric_name(), q.seconds);
        traj_obs::observe_value("engine.query.candidates", q.candidates as f64);
        traj_obs::observe_value("engine.query.overfetch", q.overfetch as f64);
        traj_obs::observe_secs("engine.query.encode_secs", q.encode_seconds);
        traj_obs::observe_secs("engine.query.fanout_secs", q.fanout_seconds);
        traj_obs::observe_secs("engine.query.merge_secs", q.merge_seconds);
        traj_obs::observe_value("engine.query.shards", q.shards as f64);
    }
    trace.offer_to_flight("sharded", set.trace_instance);
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
        Self::from_parts(model, cfg, scfg, rows, n)
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
    /// configs must already be validated. Rows `model` did not encode —
    /// of another width — are refused.
    fn from_parts(
        model: Traj2Hash,
        cfg: EngineConfig,
        scfg: ShardConfig,
        rows: Rows,
        next_id: u64,
    ) -> Result<Self, EngineError> {
        let dim = model.embedding_dim();
        rows.check_widths(dim, dim)?;
        let n_shards = scfg.shards;
        let states =
            rows.partition(n_shards).into_iter().map(|part| ShardState::build(part, &cfg));
        let view = EngineView::of(Arc::new(ModelBlueprint::of(&model)), states.collect(), 0);
        let set = Arc::new(ShardSet {
            view: PublishCell::new(view),
            telemetry: LiveTelemetry::built(n_shards),
            trace_instance: trace::next_instance_id(),
        });
        Ok(ShardedEngine { model, cfg, scfg, set, next_id, generation: 1 })
    }

    #[expect(clippy::cast_possible_truncation, reason = "a residue mod the small shard count")]
    fn shard_of(&self, id: u64) -> usize {
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
        self.set.view.pin().live()
    }

    /// True when no live trajectory remains.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Live ids in ascending order (collected across shards).
    pub fn ids(&self) -> Vec<u64> {
        live_rows(&self.set.view.pin().states).into_iter().map(|(block, i)| block.ids()[i]).collect()
    }

    /// True when `id` refers to a live trajectory.
    pub fn contains(&self, id: u64) -> bool {
        self.set.view.pin().states[self.shard_of(id)].slot_of(id).is_some()
    }

    /// The live trajectory with stable id `id` (cloned out of the
    /// pinned shard state).
    pub fn get(&self, id: u64) -> Option<Trajectory> {
        let view = self.set.view.pin();
        let state = &view.states[self.shard_of(id)];
        state.slot_of(id).map(|s| state.traj_at(s).clone())
    }

    /// The embedding stored for the live trajectory with stable id `id`
    /// — the row the Euclidean strategies rank it by.
    pub fn embedding(&self, id: u64) -> Option<Vec<f32>> {
        let view = self.set.view.pin();
        let state = &view.states[self.shard_of(id)];
        let (rows, i) = state.row_at(state.slot_of(id)?);
        Some(rows.embeddings().row(i).to_vec())
    }

    /// Cumulative telemetry (shared with every reader).
    pub fn telemetry(&self) -> EngineTelemetry {
        self.set.telemetry.snapshot()
    }

    /// Aggregated lifecycle counters. `generation` is the engine-level
    /// swap/build counter; per-shard rebuild generations are visible
    /// through [`ShardedEngine::pin`].
    pub fn stats(&self) -> EngineStats {
        let view = self.set.view.pin();
        let states = &view.states;
        EngineStats {
            live: view.live(),
            indexed: states.iter().map(|s| s.indexed()).sum(),
            delta: states.iter().map(|s| s.slots() - s.indexed()).sum(),
            dead: states.iter().map(|s| s.dead_count).sum(),
            generation: self.generation,
            degraded: view.degraded(),
        }
    }

    /// Pins the published view (exposed for tests and diagnostics).
    pub fn pin(&self) -> PinnedView {
        PinnedView { view: self.set.view.pin() }
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

    /// [`query`](ShardedEngine::query) plus the query's record: work
    /// counters and the encode / fan-out / merge clocks.
    pub fn query_with_info(
        &self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryInfo), EngineError> {
        self.query_traced(q, k, strategy).map(|(hits, trace)| (hits, trace.info))
    }

    /// [`query_with_info`](ShardedEngine::query_with_info) plus the
    /// rest of the [`QueryTrace`]: a query id and, per shard, the
    /// pinned publish seq, candidate count and path taxonomy. Beyond
    /// its `info` the trace is inert unless an obs recorder or a flight
    /// recorder is installed.
    pub fn query_traced(
        &self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryTrace), EngineError> {
        let view = self.set.view.pin();
        query_pinned(&self.set, &view, &self.model, q, k, strategy, self.scfg.fan_out_threads)
    }

    /// Answers a batch of queries against one view pinned for the
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
        let view = self.set.view.pin();
        let threads = self.scfg.fan_out_threads;
        qs.iter()
            .map(|q| {
                query_pinned(&self.set, &view, &self.model, q, k, strategy, threads)
                    .map(|(hits, _)| hits)
            })
            .collect()
    }

    /// Publishes `view` with shard `si` replaced by `next` (stamped
    /// with the publish's sequence) and everything else shared,
    /// returning the new view. The one publish of every single-shard
    /// write.
    fn publish_shard(&self, view: &EngineView, si: usize, next: ShardState) -> Arc<EngineView> {
        let blueprint = Arc::clone(&view.blueprint);
        let mut states = view.states.clone();
        self.set.view.publish(|seq| {
            states[si] = Arc::new(ShardState { publish_seq: seq, ..next });
            EngineView { blueprint, states, seq }
        })
    }

    /// Encodes and inserts a trajectory, returning its stable id. Only
    /// the owning shard's state changes; a reader that pinned before
    /// the publish keeps its view. An empty or non-finite trajectory is
    /// refused with [`EngineError::InvalidInput`] (the same check as
    /// the query entry points), a row whose widths differ from the
    /// shard's with [`EngineError::Search`]; either way nothing is
    /// stored, counted or published.
    pub fn try_insert(&mut self, t: Trajectory) -> Result<u64, EngineError> {
        let embedding = self.model.try_embed(&t)?;
        let code = BinaryCode::from_floats(embedding.data());
        let id = self.next_id;
        let si = self.shard_of(id);
        let view = self.set.view.pin();
        let next = view.states[si].with_insert(id, t, embedding.data(), &code)?;
        self.next_id += 1;
        let view = self.publish_shard(&view, si, next);
        self.set.telemetry.insert();
        self.maybe_rebuild_shard(&view, si);
        Ok(id)
    }

    /// [`try_insert`](ShardedEngine::try_insert) for callers that have
    /// already validated their input.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-finite trajectory.
    pub fn insert(&mut self, t: Trajectory) -> u64 {
        #[expect(clippy::panic, reason = "documented; `try_insert` is the fallible form")]
        self.try_insert(t).unwrap_or_else(|e| panic!("insert: {e}"))
    }

    /// Tombstones the trajectory with stable id `id` on its shard.
    pub fn remove(&mut self, id: u64) -> Result<(), EngineError> {
        let si = self.shard_of(id);
        let view = self.set.view.pin();
        let slot = view.states[si].slot_of(id).ok_or(EngineError::UnknownId(id))?;
        let view = self.publish_shard(&view, si, view.states[si].with_remove(slot));
        self.set.telemetry.remove();
        self.maybe_rebuild_shard(&view, si);
        Ok(())
    }

    fn maybe_rebuild_shard(&self, view: &EngineView, si: usize) {
        if view.states[si].needs_rebuild(&self.cfg) {
            self.rebuild_shard(view, si);
        }
    }

    /// Compacts and re-indexes shard `si` of `view` (the current one)
    /// and returns the view it published. The next generation is built
    /// entirely off the publish lock — readers keep serving the view
    /// they pinned, or the current one, until the single publish at the
    /// end.
    fn rebuild_shard(&self, view: &EngineView, si: usize) -> Arc<EngineView> {
        let t0 = Instant::now();
        let prev = &view.states[si];
        let compacting = prev.dead_count > 0;
        let next = prev.rebuilt(&self.cfg);
        let degraded = next.degraded();
        let generation = next.generation;
        let covers = next.base.rows.len();
        let published = self.publish_shard(view, si, next);
        self.set.telemetry.rebuild(compacting, degraded);
        if traj_obs::enabled() {
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
        }
        if degraded {
            // Dump tail exemplars the moment a shard drops to degraded
            // serving: the traces leading up to an index-build failure
            // are exactly what a post-mortem wants. Deliberately outside
            // the `enabled()` gate — the flight recorder can be
            // installed without an obs recorder.
            traj_obs::flight::force_dump("engine.degraded");
        }
        published
    }

    /// Forces compaction + re-index of every shard, one publish per
    /// shard (queries keep being answered while each rebuilds).
    pub fn compact(&mut self) {
        let mut view = self.set.view.pin();
        for si in 0..self.scfg.shards {
            view = self.rebuild_shard(&view, si);
        }
    }

    /// Drops every shard's indexes in one publish, forcing degraded
    /// linear-scan serving until [`recover`](ShardedEngine::recover) or
    /// a rebuild. Results stay exact; only the access path changes.
    pub fn force_degrade(&mut self) {
        let view = self.set.view.pin();
        let states = view.states.iter().map(|s| s.with_degraded()).collect();
        let blueprint = Arc::clone(&view.blueprint);
        self.set.view.publish(|seq| EngineView::of(blueprint, states, seq));
        self.set.telemetry.degrade();
        if traj_obs::enabled() {
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
        let mut view = self.set.view.pin();
        let was_degraded = view.degraded();
        for si in 0..self.scfg.shards {
            if view.states[si].degraded() {
                view = self.rebuild_shard(&view, si);
            }
        }
        let healthy = !view.degraded();
        if was_degraded && healthy {
            self.set.telemetry.recovery();
            if traj_obs::enabled() {
                traj_obs::event(
                    "engine.recovered",
                    &[("generation", self.generation.into()), ("live", view.live().into())],
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
        let view = self.set.view.pin();
        let (ids, trajs): (Vec<u64>, Vec<Trajectory>) = live_rows(&view.states)
            .into_iter()
            .map(|(block, i)| (block.ids()[i], block.traj(i).clone()))
            .unzip();
        let rows = encode_rows(&model, ids, trajs, self.cfg.encode_threads)?;
        Self::from_parts(model, self.cfg.clone(), self.scfg.clone(), rows, self.next_id)
    }

    /// Swaps `replacement`'s model, corpus, and per-shard
    /// [`EngineConfig`] into this engine in **one publish** — the new
    /// model and every shard it encoded go live together — keeping
    /// cumulative telemetry, this engine's shard count, and the
    /// increasing per-shard publish sequence. A query that pinned
    /// before the swap finishes on the old model and the old rows; one
    /// that pins after sees the new model and the new rows, and a
    /// reader rebuilds its replica from the blueprint in that view.
    ///
    /// The replacement is typically produced by
    /// [`refreshed`](ShardedEngine::refreshed) and round-tripped through
    /// the `T2HSNAP1` snapshot machinery first, so the bytes that go
    /// live are the bytes that were validated on disk.
    pub fn hot_swap(&mut self, replacement: ShardedEngine) {
        let ShardedEngine { model, cfg, set: rep_set, next_id: rep_next, .. } = replacement;
        let rep = rep_set.view.pin();
        let states: Vec<ShardState> = if rep.states.len() == self.scfg.shards {
            rep.states.iter().map(|st| (**st).clone()).collect()
        } else {
            // Shard counts differ: redistribute by id under *this*
            // engine's mapping.
            let mut parts = vec![Rows::default(); self.scfg.shards];
            for (block, i) in live_rows(&rep.states) {
                parts[self.shard_of(block.ids()[i])].push_row(block, i);
            }
            parts.into_iter().map(|part| ShardState::build(part, &cfg)).collect()
        };
        // Everything is built before the cell is touched: the write
        // lock is held only to stamp and swap.
        let blueprint = Arc::new(ModelBlueprint::of(&model));
        let view = self.set.view.publish(|seq| EngineView::of(blueprint, states, seq));
        // The swapped-in states were built under the replacement's
        // config, so later per-shard rebuilds, `config()` and snapshots
        // must use it too.
        self.cfg = cfg;
        self.model = model;
        // next_id only moves forward: a stale replacement must not make
        // the engine re-issue ids that are already out there.
        self.next_id = self.next_id.max(rep_next);
        self.generation += 1;
        self.set.telemetry.hot_swap();
        if traj_obs::enabled() {
            traj_obs::event(
                "engine.hot_swap",
                &[
                    ("generation", self.generation.into()),
                    ("live", view.live().into()),
                    ("degraded", view.degraded().into()),
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
        let view = self.set.view.pin();
        snapshot::encode_view(&SnapshotView {
            model: &self.model,
            cfg: &self.cfg,
            entries: live_rows(&view.states),
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
        Self::from_parts(d.model, d.cfg, scfg, d.rows, d.next_id)
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
        self.set.telemetry.snapshot_saved(len);
        traj_obs::observe_secs("engine.snapshot.save_secs", t0.elapsed().as_secs_f64());
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

/// Shared query path over an already pinned view: validate, encode
/// with `model` (a replica of the view's blueprint), fan out, merge,
/// record.
fn query_pinned(
    set: &ShardSet,
    view: &EngineView,
    model: &Traj2Hash,
    q: &Trajectory,
    k: usize,
    strategy: Strategy,
    threads: usize,
) -> Result<(Vec<Hit>, QueryTrace), EngineError> {
    // Refused by the encoder's own rule, before the early return below.
    EmbedError::check(q)?;
    let mut trace = QueryTrace::begin(strategy, view.states.len());
    if k == 0 || view.live() == 0 {
        // Nothing is encoded or searched, and nothing is counted: only
        // the flight recorder sees an answer that did no work.
        trace.info.degraded = view.degraded();
        trace.offer_to_flight("sharded", set.trace_instance);
        return Ok((Vec::new(), trace));
    }
    let t0 = Instant::now();
    let embedding = model.try_embed(q)?.data().to_vec();
    let code = BinaryCode::from_floats(&embedding);
    trace.info.encode_seconds = t0.elapsed().as_secs_f64();
    let hits = fan_out(&view.states, &embedding, &code, k, threads, &mut trace);
    trace.info.seconds = t0.elapsed().as_secs_f64();
    record_query(set, &trace);
    Ok((hits, trace))
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
    /// published blueprint). Call this *on the reader thread*. The
    /// blueprint `Arc` is pinned out of the cell first, so the replica
    /// build never holds the publish lock (a guard held across
    /// `instantiate` would stall every publish behind a full model
    /// rebuild; `PublishCell` keeps its guards private for that reason).
    pub fn into_reader(self) -> ShardReader {
        let blueprint = Arc::clone(&self.set.view.pin().blueprint);
        let model = blueprint.instantiate();
        ShardReader { set: self.set, model, blueprint }
    }
}

/// A per-thread query handle over the shared published view. Queries
/// are lock-free after the one pin and bit-identical to the writer's:
/// same shared search core, same merge order, and a model replica of
/// the blueprint in the very view the query searches.
pub struct ShardReader {
    set: Arc<ShardSet>,
    model: Traj2Hash,
    /// The blueprint `model` was instantiated from.
    blueprint: Arc<ModelBlueprint>,
}

impl ShardReader {
    /// Pins the published view.
    pub fn pin(&self) -> PinnedView {
        PinnedView { view: self.set.view.pin() }
    }

    /// Top-k search; bit-identical to the owning engine's
    /// [`ShardedEngine::query`]. `&mut self` only because the model
    /// replica may need rebuilding after a hot swap — the shared state
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
        self.query_traced(q, k, strategy).map(|(hits, trace)| (hits, trace.info))
    }

    /// [`query_with_info`](ShardReader::query_with_info) plus the rest
    /// of the [`QueryTrace`] (inert unless a trace consumer is
    /// installed).
    pub fn query_traced(
        &mut self,
        q: &Trajectory,
        k: usize,
        strategy: Strategy,
    ) -> Result<(Vec<Hit>, QueryTrace), EngineError> {
        let view = self.set.view.pin();
        // The rows in `view` were encoded by `view.blueprint`: answer
        // with a replica of exactly that one.
        if !Arc::ptr_eq(&view.blueprint, &self.blueprint) {
            self.model = view.blueprint.instantiate();
            self.blueprint = Arc::clone(&view.blueprint);
        }
        // Readers fan out sequentially: reader-side parallelism comes
        // from running many readers, not from splitting one query.
        query_pinned(&self.set, &view, &self.model, q, k, strategy, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{CityParams, Dataset, SplitSizes};
    use traj2hash::{ModelConfig, ModelContext};

    /// A 12-row corpus, a probe, and two models of different widths.
    fn world() -> (Vec<Trajectory>, Trajectory, Traj2Hash, Traj2Hash) {
        let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 60, query: 2, database: 12 };
        let dataset = Dataset::generate(CityParams::test_city(), sizes, 11);
        let model = |mcfg: ModelConfig, seed| {
            let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
            Traj2Hash::new(mcfg, &ctx, seed)
        };
        let wide = model(ModelConfig::tiny(), 13);
        let narrow = model(ModelConfig { dim: 8, grid_dim: 8, ..ModelConfig::tiny() }, 17);
        (dataset.database.clone(), dataset.query[0].clone(), wide, narrow)
    }

    fn build(model: Traj2Hash, corpus: &[Trajectory]) -> ShardedEngine {
        let scfg = ShardConfig { shards: 2, fan_out_threads: 0 };
        ShardedEngine::build(model, corpus.to_vec(), EngineConfig::default(), scfg).unwrap()
    }

    #[test]
    fn a_query_that_pinned_before_a_swap_finishes_on_the_old_model_and_rows() {
        let (corpus, probe, wide, narrow) = world();
        let mut engine = build(wide, &corpus);
        let before: Vec<Vec<Hit>> =
            Strategy::ALL.iter().map(|&s| engine.query(&probe, 5, s).unwrap()).collect();
        // A reader mid-query: view pinned, replica of its blueprint in hand.
        let pinned = engine.set.view.pin();
        let replica = pinned.blueprint.instantiate();

        let replacement = engine.refreshed(narrow).unwrap();
        engine.hot_swap(replacement);

        for (&s, want) in Strategy::ALL.iter().zip(&before) {
            let (hits, _) = query_pinned(&engine.set, &pinned, &replica, &probe, 5, s, 1).unwrap();
            assert_eq!(&hits, want, "{} across the swap", s.name());
            assert_ne!(&engine.query(&probe, 5, s).unwrap(), want, "{} after it", s.name());
        }
    }

    #[test]
    fn rows_a_model_did_not_encode_are_refused_and_fail_the_consistency_check() {
        let (corpus, _, wide, narrow) = world();
        let rows = encode_rows(&narrow, 0..12, corpus.clone(), 1).unwrap();
        let scfg = ShardConfig { shards: 2, fan_out_threads: 0 };
        let refused = ShardedEngine::from_parts(wide, EngineConfig::default(), scfg, rows, 12);
        assert!(matches!(
            refused.err(),
            Some(EngineError::Search(traj_index::SearchError::InconsistentEmbeddings { .. }))
        ));

        // A view pairing one engine's model with another's shards — what
        // a swap published piecewise would let a reader pin.
        let (a, b) = (build(narrow, &corpus[..6]), build(world().2, &corpus[..6]));
        let (a, b) = (a.set.view.pin(), b.set.view.pin());
        let mixed = EngineView {
            blueprint: Arc::clone(&a.blueprint),
            states: vec![Arc::clone(&a.states[0]), Arc::clone(&b.states[1])],
            seq: 0,
        };
        let err = PinnedView { view: Arc::new(mixed) }.check_consistent().unwrap_err();
        assert!(err.contains("shard 1 vs the view's model"), "{err}");
    }
}
