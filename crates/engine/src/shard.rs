//! The per-shard search core: one implementation of the five Section
//! V-E strategies over a two-region corpus view, plus the immutable
//! per-generation shard state the engine publishes behind `Arc` swaps.
//!
//! ## One search core
//!
//! Every shard of [`ShardedEngine`](crate::ShardedEngine) answers
//! through [`search`] over a [`SearchCtx`]: an *indexed region* (covered
//! by the generation's [`GenIndexes`], Hamming-scanned through the flat
//! [`PackedCodes`] layout) followed by one or more *delta segments* that
//! are linearly scanned. Slots number the indexed region first, then
//! each delta segment in order; a `dead` slice over the whole range
//! carries the tombstones. Mutation is layered on top of the immutable
//! indexes instead of into them:
//!
//! * `insert` appends to the delta, which queries scan with the same
//!   metric and merge through the shared top-k helper, so exactness is
//!   preserved;
//! * `remove` marks a tombstone; indexed queries over-fetch
//!   `k + dead_in_indexed` and filter, which still yields the exact live
//!   top-k because the structures are exact and the `(distance, slot)`
//!   total order is unchanged by deletion;
//! * past the configured thresholds the shard rebuilds: live entries
//!   are compacted in order and re-indexed. An index build failure
//!   never poisons the shard — it serves by linear scans until a later
//!   rebuild succeeds.
//!
//! ## Immutable shard states
//!
//! [`ShardState`] is the unit the engine publishes: a frozen
//! [`ShardBase`] (the indexed region, shared by `Arc` across
//! generations so publishing an insert never copies the corpus) plus a
//! small owned delta block and tombstone vector. Every mutation builds
//! a *new* `ShardState` — readers holding an `Arc` to the old one keep
//! a fully consistent view for as long as they please.

use crate::engine::{EngineConfig, EuclideanBackend, Strategy};
use std::sync::Arc;
use traj_data::Trajectory;
use traj_index::search::Hit as SlotHit;
use traj_index::topk::top_k_hits;
use traj_index::{BinaryCode, HammingTable, MultiIndexHashing, PackedCodes, VpTree};

/// The per-generation index set over one indexed region.
pub(crate) struct GenIndexes {
    /// Radius-2 bucket table (serves `Table` and `Hybrid`).
    pub table: HammingTable,
    /// Exact Hamming k-NN (serves `Mih`).
    pub mih: MultiIndexHashing,
    /// VP-tree serving `EuclideanBf` when configured; `None` means
    /// brute-force scan.
    pub euclid: Option<VpTree>,
    /// Flat packed-code mirror of the indexed region, the fast layout
    /// for brute-force Hamming scans (4-wide popcount accumulation).
    pub packed: PackedCodes,
    /// Number of slots these structures cover.
    pub covers: usize,
}

impl GenIndexes {
    /// Builds the full index set over `codes`/`embeddings`, or `None`
    /// when any structure fails to build (the caller degrades to linear
    /// scans).
    pub fn try_build(
        codes: &[BinaryCode],
        embeddings: &[Vec<f32>],
        cfg: &EngineConfig,
    ) -> Option<GenIndexes> {
        let table = HammingTable::try_build(codes.to_vec()).ok()?;
        let mih = MultiIndexHashing::try_build(codes.to_vec(), cfg.mih_tables).ok()?;
        let packed = PackedCodes::build(codes).ok()?;
        let euclid = match cfg.euclidean_backend {
            EuclideanBackend::BruteForce => None,
            EuclideanBackend::VpTree => Some(VpTree::build(embeddings.to_vec())),
        };
        Some(GenIndexes { table, mih, euclid, packed, covers: codes.len() })
    }
}

/// How a strategy produced its answer, for telemetry.
pub(crate) struct PathInfo {
    /// Candidates considered before top-k selection.
    pub candidates: usize,
    /// The index could not serve the query and a full scan answered it.
    pub fallback: bool,
    /// A `Hybrid` radius-2 ball came up short and spilled into a scan.
    pub spill: bool,
}

impl PathInfo {
    pub fn scan(candidates: usize, fallback: bool) -> PathInfo {
        PathInfo { candidates, fallback, spill: false }
    }
}

/// A linearly scanned corpus segment past the indexed region.
pub(crate) struct DeltaSeg<'a> {
    pub embeddings: &'a [Vec<f32>],
    pub codes: &'a [BinaryCode],
}

/// Borrowed view of one searchable corpus: an indexed region (empty
/// when degraded) followed by delta segments, with tombstones over the
/// combined slot range.
pub(crate) struct SearchCtx<'a> {
    /// Embeddings of the indexed region (`indexes.covers` slots).
    pub indexed_embeddings: &'a [Vec<f32>],
    /// The generation's indexes; `None` = degraded, everything scans.
    pub indexes: Option<&'a GenIndexes>,
    /// Delta segments, scanned linearly after the indexed region.
    pub delta: Vec<DeltaSeg<'a>>,
    /// Tombstones over all slots (indexed + delta, in order).
    pub dead: &'a [bool],
    /// Tombstones inside the indexed region — the index over-fetch
    /// margin.
    pub dead_in_indexed: usize,
    /// Which structure is *supposed* to serve `EuclideanBf` (decides
    /// whether a degraded scan counts as a fallback).
    pub euclidean_backend: EuclideanBackend,
}

fn euclid_dist(a: &[f32], b: &[f32]) -> f64 {
    a.iter().zip(b).map(|(&x, &y)| (x as f64 - y as f64).powi(2)).sum::<f64>().sqrt()
}

impl SearchCtx<'_> {
    fn total_slots(&self) -> usize {
        self.dead.len()
    }

    /// Euclidean candidates from a linear scan of the delta segments.
    fn scan_euclid_delta(&self, q: &[f32]) -> Vec<SlotHit> {
        let mut hits = Vec::new();
        let mut slot = self.indexed_embeddings.len();
        for seg in &self.delta {
            for e in seg.embeddings {
                if !self.dead[slot] {
                    hits.push(SlotHit { index: slot, distance: euclid_dist(e, q) });
                }
                slot += 1;
            }
        }
        hits
    }

    /// Hamming candidates from a linear scan of the delta segments.
    fn scan_hamming_delta(&self, q: &BinaryCode) -> Vec<SlotHit> {
        let mut hits = Vec::new();
        let mut slot = self.indexed_embeddings.len();
        for seg in &self.delta {
            for c in seg.codes {
                if !self.dead[slot] {
                    hits.push(SlotHit { index: slot, distance: c.hamming(q) as f64 });
                }
                slot += 1;
            }
        }
        hits
    }

    /// Full-corpus Euclidean scan candidates.
    fn scan_euclid_all(&self, q: &[f32]) -> Vec<SlotHit> {
        let mut hits: Vec<SlotHit> = self
            .indexed_embeddings
            .iter()
            .enumerate()
            .filter(|&(s, _)| !self.dead[s])
            .map(|(s, e)| SlotHit { index: s, distance: euclid_dist(e, q) })
            .collect();
        hits.extend(self.scan_euclid_delta(q));
        hits
    }

    /// Full-corpus Hamming scan candidates; the indexed region goes
    /// through the packed flat layout (4-wide popcount accumulators).
    fn scan_hamming_all(&self, q: &BinaryCode) -> Vec<SlotHit> {
        let mut hits = Vec::new();
        if let Some(ix) = self.indexes {
            ix.packed.scan_into(q, |s, d| {
                if !self.dead[s] {
                    hits.push(SlotHit { index: s, distance: d as f64 });
                }
            });
        }
        hits.extend(self.scan_hamming_delta(q));
        hits
    }

    fn euclidean_hits(&self, q: &[f32], k: usize) -> (Vec<SlotHit>, PathInfo) {
        let mut hits: Vec<SlotHit> = match self.indexes.and_then(|ix| ix.euclid.as_ref()) {
            // An empty tree has no width to compare against, and nothing
            // to find.
            Some(vp) if vp.is_empty() => Vec::new(),
            // Over-fetch by the tombstone count so filtering cannot eat
            // into the true top-k: the tree is exact, so the first
            // k + dead_in_indexed hits contain at least k live ones.
            Some(vp) if vp.dim() == q.len() => vp
                .top_k(q, k + self.dead_in_indexed)
                .into_iter()
                .filter(|h| !self.dead[h.index])
                .collect(),
            // No tree, or a query `VpTree::top_k` would panic on (wrong
            // width): scan. That is the design under the brute-force
            // backend, and a fallback only when a VP-tree should have
            // served this query.
            _ => {
                let lost_index = matches!(self.euclidean_backend, EuclideanBackend::VpTree);
                let cand = self.scan_euclid_all(q);
                let n = cand.len();
                return (top_k_hits(cand, k), PathInfo::scan(n, lost_index));
            }
        };
        hits.extend(self.scan_euclid_delta(q));
        let n = hits.len();
        (top_k_hits(hits, k), PathInfo::scan(n, false))
    }

    fn mih_hits(&self, q: &BinaryCode, k: usize) -> (Vec<SlotHit>, PathInfo) {
        let Some(ix) = self.indexes else {
            let cand = self.scan_hamming_all(q);
            let n = cand.len();
            return (top_k_hits(cand, k), PathInfo::scan(n, true));
        };
        match ix.mih.top_k(q, k + self.dead_in_indexed) {
            Ok(hits) => {
                let mut hits: Vec<SlotHit> =
                    hits.into_iter().filter(|h| !self.dead[h.index]).collect();
                hits.extend(self.scan_hamming_delta(q));
                let n = hits.len();
                (top_k_hits(hits, k), PathInfo::scan(n, false))
            }
            Err(_) => {
                let cand = self.scan_hamming_all(q);
                let n = cand.len();
                (top_k_hits(cand, k), PathInfo::scan(n, true))
            }
        }
    }

    /// Live candidates within Hamming radius 2: table lookup over the
    /// indexed region plus a filtered scan of the delta. `None` when
    /// degraded or the table rejects the query.
    fn radius2_candidates(&self, q: &BinaryCode) -> Option<Vec<SlotHit>> {
        let ix = self.indexes?;
        let grouped = ix.table.lookup_within(q, 2).ok()?;
        let mut hits: Vec<SlotHit> = grouped
            .into_iter()
            .flat_map(|(d, slots)| {
                slots.into_iter().map(move |s| SlotHit { index: s, distance: d as f64 })
            })
            .filter(|h| !self.dead[h.index])
            .collect();
        for h in self.scan_hamming_delta(q) {
            if h.distance <= 2.0 {
                hits.push(h);
            }
        }
        Some(hits)
    }

    fn table_hits(&self, q: &BinaryCode, k: usize, hybrid_fallback: bool) -> (Vec<SlotHit>, PathInfo) {
        match self.radius2_candidates(q) {
            Some(ball) => {
                if hybrid_fallback && ball.len() < k {
                    // The designed Hybrid spill — a scan, but not a
                    // degradation.
                    let cand = self.scan_hamming_all(q);
                    let n = cand.len();
                    (top_k_hits(cand, k), PathInfo { candidates: n, fallback: false, spill: true })
                } else {
                    let n = ball.len();
                    (top_k_hits(ball, k), PathInfo::scan(n, false))
                }
            }
            None if hybrid_fallback => {
                let cand = self.scan_hamming_all(q);
                let n = cand.len();
                (top_k_hits(cand, k), PathInfo::scan(n, true))
            }
            None => {
                // Degraded Table strategy: emulate the radius-2 ball by
                // scanning, keeping the may-return-fewer semantics.
                let ball: Vec<SlotHit> = self
                    .scan_hamming_all(q)
                    .into_iter()
                    .filter(|h| h.distance <= 2.0)
                    .collect();
                let n = ball.len();
                (top_k_hits(ball, k), PathInfo::scan(n, true))
            }
        }
    }
}

/// The taxonomy label a finished search stamps on its shard trace: one
/// word naming *why* the path looked the way it did, so tail exemplars
/// in the flight recorder read without cross-referencing `PathInfo`
/// bit-by-bit.
fn path_taxonomy(ctx: &SearchCtx<'_>, strategy: Strategy, path: &PathInfo) -> &'static str {
    if path.fallback {
        // The configured index could not answer; a full scan did.
        return "fallback_scan";
    }
    if path.spill {
        return "hybrid_spill";
    }
    if ctx.indexes.is_none() {
        // Degraded view: scans are the only option, by construction.
        return "degraded_scan";
    }
    match strategy {
        Strategy::HammingBf => "designed_scan",
        Strategy::EuclideanBf if matches!(ctx.euclidean_backend, EuclideanBackend::BruteForce) => {
            "designed_scan"
        }
        _ => "indexed",
    }
}

/// Answers one strategy over the view: the search core behind every
/// shard of the engine. Hits carry *slot* indices into the view;
/// callers map them to stable ids. The shard trace receives one
/// taxonomy step describing how the answer was produced (a no-op when
/// tracing is disabled).
pub(crate) fn search(
    ctx: &SearchCtx<'_>,
    strategy: Strategy,
    q_emb: &[f32],
    q_code: &BinaryCode,
    k: usize,
    trace: &mut crate::trace::ShardTrace,
) -> (Vec<SlotHit>, PathInfo) {
    if k == 0 || ctx.total_slots() == 0 {
        trace.step("empty");
        return (Vec::new(), PathInfo::scan(0, false));
    }
    let (hits, path) = match strategy {
        Strategy::EuclideanBf => ctx.euclidean_hits(q_emb, k),
        Strategy::HammingBf => {
            let cand = ctx.scan_hamming_all(q_code);
            let n = cand.len();
            // A scan by definition: degraded mode changes nothing.
            (top_k_hits(cand, k), PathInfo::scan(n, false))
        }
        Strategy::Table => ctx.table_hits(q_code, k, false),
        Strategy::Mih => ctx.mih_hits(q_code, k),
        Strategy::Hybrid => ctx.table_hits(q_code, k, true),
    };
    trace.step(path_taxonomy(ctx, strategy, &path));
    (hits, path)
}

// ---------------------------------------------------------------------
// Immutable shard state.
// ---------------------------------------------------------------------

/// The frozen indexed region of one shard. Shared by `Arc` across
/// generations: publishing an insert or a tombstone re-uses the base
/// untouched, so the copy cost of a mutation is the delta block, never
/// the corpus.
pub struct ShardBase {
    /// Stable ids, ascending.
    pub ids: Vec<u64>,
    /// Trajectories, parallel to `ids`.
    pub trajs: Vec<Trajectory>,
    /// Dense embeddings, parallel to `ids`.
    pub embeddings: Vec<Vec<f32>>,
    /// Binary codes, parallel to `ids`.
    pub codes: Vec<BinaryCode>,
    /// `None` = the index build failed; the shard serves by scans.
    pub(crate) indexes: Option<GenIndexes>,
}

impl ShardBase {
    /// Entries in the indexed region.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the indexed region is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Builds a base over the given entries (ascending-id order),
    /// attempting the full index set.
    pub fn build(
        ids: Vec<u64>,
        trajs: Vec<Trajectory>,
        embeddings: Vec<Vec<f32>>,
        codes: Vec<BinaryCode>,
        cfg: &EngineConfig,
    ) -> ShardBase {
        let indexes = GenIndexes::try_build(&codes, &embeddings, cfg);
        ShardBase { ids, trajs, embeddings, codes, indexes }
    }
}

/// The owned, small tail of a shard: entries inserted after the base
/// was built. Cloned wholesale on every publish — bounded by the
/// rebuild thresholds, so the copy is O(rebuild_slack), not O(corpus).
#[derive(Clone, Default)]
pub struct DeltaBlock {
    /// Stable ids, ascending (all exceed every base id).
    pub ids: Vec<u64>,
    /// Trajectories, parallel to `ids`.
    pub trajs: Vec<Trajectory>,
    /// Dense embeddings, parallel to `ids`.
    pub embeddings: Vec<Vec<f32>>,
    /// Binary codes, parallel to `ids`.
    pub codes: Vec<BinaryCode>,
}

impl DeltaBlock {
    /// Entries in the delta tail.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entry has been inserted since the last rebuild.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// One published generation of one shard: everything a reader needs to
/// answer queries, immutable once published. `Arc<ShardState>` is the
/// unit readers pin. Cloning is shallow on the corpus side (the base is
/// behind an `Arc`), so republishing a state (e.g. during a hot swap)
/// costs O(delta), not O(corpus).
#[derive(Clone)]
pub struct ShardState {
    /// The frozen indexed region, shared across generations.
    pub base: Arc<ShardBase>,
    /// Entries inserted after the base was built (linearly scanned).
    pub delta: DeltaBlock,
    /// Tombstones over base then delta slots.
    pub dead: Vec<bool>,
    /// Number of tombstones set in `dead`.
    pub dead_count: usize,
    /// Tombstones inside the indexed region (over-fetch margin); zero
    /// when degraded.
    pub dead_in_indexed: usize,
    /// `true` after `force_degrade`: indexes are ignored until rebuild.
    pub forced_degraded: bool,
    /// Rebuild counter of this shard; bumps when a new base is built.
    pub generation: u64,
    /// Publish counter: bumps on *every* published state, strictly
    /// monotone per shard. Readers assert this never moves backwards.
    pub publish_seq: u64,
    /// Which structure serves `EuclideanBf` (frozen from the engine
    /// config so pinned readers need nothing else).
    pub euclidean_backend: EuclideanBackend,
}

impl ShardState {
    /// A fresh shard over entries in ascending-id order.
    pub fn build(
        ids: Vec<u64>,
        trajs: Vec<Trajectory>,
        embeddings: Vec<Vec<f32>>,
        codes: Vec<BinaryCode>,
        cfg: &EngineConfig,
    ) -> ShardState {
        let n = ids.len();
        let base = ShardBase::build(ids, trajs, embeddings, codes, cfg);
        ShardState {
            base: Arc::new(base),
            delta: DeltaBlock::default(),
            dead: vec![false; n],
            dead_count: 0,
            dead_in_indexed: 0,
            forced_degraded: false,
            generation: 1,
            publish_seq: 0,
            euclidean_backend: cfg.euclidean_backend,
        }
    }

    /// Total slots (live + tombstoned).
    pub fn slots(&self) -> usize {
        self.base.len() + self.delta.len()
    }

    /// Live entries.
    pub fn live(&self) -> usize {
        self.slots() - self.dead_count
    }

    /// True when the shard serves by scans only.
    pub fn degraded(&self) -> bool {
        self.forced_degraded || self.base.indexes.is_none()
    }

    /// Slots covered by a *served* index (0 when degraded).
    pub fn indexed(&self) -> usize {
        if self.degraded() {
            0
        } else {
            self.base.indexes.as_ref().map(|ix| ix.covers).unwrap_or(0)
        }
    }

    /// The stable id at `slot`.
    pub fn id_at(&self, slot: usize) -> u64 {
        if slot < self.base.len() {
            self.base.ids[slot]
        } else {
            self.delta.ids[slot - self.base.len()]
        }
    }

    /// The trajectory at `slot`.
    pub fn traj_at(&self, slot: usize) -> &Trajectory {
        if slot < self.base.len() {
            &self.base.trajs[slot]
        } else {
            &self.delta.trajs[slot - self.base.len()]
        }
    }

    /// The embedding at `slot`.
    pub fn embedding_at(&self, slot: usize) -> &[f32] {
        if slot < self.base.len() {
            &self.base.embeddings[slot]
        } else {
            &self.delta.embeddings[slot - self.base.len()]
        }
    }

    /// The code at `slot`.
    pub fn code_at(&self, slot: usize) -> &BinaryCode {
        if slot < self.base.len() {
            &self.base.codes[slot]
        } else {
            &self.delta.codes[slot - self.base.len()]
        }
    }

    /// The live slot holding stable id `id`. Slot order is ascending-id
    /// within base and delta, and every delta id exceeds every base id.
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        if let Ok(s) = self.base.ids.binary_search(&id) {
            return (!self.dead[s]).then_some(s);
        }
        if let Ok(s) = self.delta.ids.binary_search(&id) {
            let slot = self.base.len() + s;
            return (!self.dead[slot]).then_some(slot);
        }
        None
    }

    /// Live `(slot, id)` pairs in ascending-id order.
    pub fn live_slots(&self) -> Vec<(usize, u64)> {
        (0..self.slots())
            .filter(|&s| !self.dead[s])
            .map(|s| (s, self.id_at(s)))
            .collect()
    }

    /// The borrowed search view over this state. When degraded the
    /// whole corpus becomes delta segments (pure scans).
    pub(crate) fn ctx(&self) -> SearchCtx<'_> {
        if self.degraded() {
            SearchCtx {
                indexed_embeddings: &[],
                indexes: None,
                delta: vec![
                    DeltaSeg { embeddings: &self.base.embeddings, codes: &self.base.codes },
                    DeltaSeg { embeddings: &self.delta.embeddings, codes: &self.delta.codes },
                ],
                dead: &self.dead,
                dead_in_indexed: self.dead_in_indexed,
                euclidean_backend: self.euclidean_backend,
            }
        } else {
            SearchCtx {
                indexed_embeddings: &self.base.embeddings,
                indexes: self.base.indexes.as_ref(),
                delta: vec![DeltaSeg {
                    embeddings: &self.delta.embeddings,
                    codes: &self.delta.codes,
                }],
                dead: &self.dead,
                dead_in_indexed: self.dead_in_indexed,
                euclidean_backend: self.euclidean_backend,
            }
        }
    }

    /// Next state with one entry appended to the delta. `id` must
    /// exceed every id in the shard (monotone id assignment guarantees
    /// it).
    pub fn with_insert(
        &self,
        id: u64,
        traj: Trajectory,
        embedding: Vec<f32>,
        code: BinaryCode,
    ) -> ShardState {
        debug_assert!(
            self.delta.ids.last().copied().unwrap_or(0).max(
                self.base.ids.last().copied().unwrap_or(0)
            ) < id || self.slots() == 0,
            "insert id must be monotone"
        );
        let mut delta = self.delta.clone();
        delta.ids.push(id);
        delta.trajs.push(traj);
        delta.embeddings.push(embedding);
        delta.codes.push(code);
        let mut dead = self.dead.clone();
        dead.push(false);
        ShardState {
            base: Arc::clone(&self.base),
            delta,
            dead,
            dead_count: self.dead_count,
            dead_in_indexed: self.dead_in_indexed,
            forced_degraded: self.forced_degraded,
            generation: self.generation,
            publish_seq: self.publish_seq,
            euclidean_backend: self.euclidean_backend,
        }
    }

    /// Next state with `slot` tombstoned.
    pub fn with_remove(&self, slot: usize) -> ShardState {
        debug_assert!(!self.dead[slot], "slot already tombstoned");
        let mut dead = self.dead.clone();
        dead[slot] = true;
        let in_indexed = slot < self.indexed();
        ShardState {
            base: Arc::clone(&self.base),
            delta: self.delta.clone(),
            dead,
            dead_count: self.dead_count + 1,
            dead_in_indexed: self.dead_in_indexed + usize::from(in_indexed),
            forced_degraded: self.forced_degraded,
            generation: self.generation,
            publish_seq: self.publish_seq,
            euclidean_backend: self.euclidean_backend,
        }
    }

    /// Next state with the indexes dropped: every strategy linear-scans
    /// until a rebuild. Mirrors a failed rebuild — with no indexed
    /// region there is no over-fetch margin.
    pub fn with_degraded(&self) -> ShardState {
        ShardState {
            base: Arc::clone(&self.base),
            delta: self.delta.clone(),
            dead: self.dead.clone(),
            dead_count: self.dead_count,
            dead_in_indexed: 0,
            forced_degraded: true,
            generation: self.generation,
            publish_seq: self.publish_seq,
            euclidean_backend: self.euclidean_backend,
        }
    }

    /// Compacts live entries (order-preserving, so ascending-id) and
    /// builds the next generation's base + indexes. This runs *off* the
    /// publish lock: readers keep the old generation until the new one
    /// is swapped in.
    pub fn rebuilt(&self, cfg: &EngineConfig) -> ShardState {
        let mut ids = Vec::with_capacity(self.live());
        let mut trajs = Vec::with_capacity(self.live());
        let mut embeddings = Vec::with_capacity(self.live());
        let mut codes = Vec::with_capacity(self.live());
        for (slot, id) in self.live_slots() {
            ids.push(id);
            trajs.push(self.traj_at(slot).clone());
            embeddings.push(self.embedding_at(slot).to_vec());
            codes.push(self.code_at(slot).clone());
        }
        let n = ids.len();
        let base = ShardBase::build(ids, trajs, embeddings, codes, cfg);
        ShardState {
            base: Arc::new(base),
            delta: DeltaBlock::default(),
            dead: vec![false; n],
            dead_count: 0,
            dead_in_indexed: 0,
            forced_degraded: false,
            generation: self.generation + 1,
            publish_seq: self.publish_seq,
            euclidean_backend: cfg.euclidean_backend,
        }
    }

    /// True when the delta or tombstone count crosses the configured
    /// rebuild thresholds (applied per shard).
    pub fn needs_rebuild(&self, cfg: &EngineConfig) -> bool {
        let indexed = self.base.len();
        let delta = self.delta.len();
        let slack = cfg.rebuild_slack;
        // lint: allow(lossy-cast) — nonnegative fraction of a shard size that fits usize
        let delta_cap = slack.max((indexed as f64 * cfg.max_delta_fraction) as usize);
        // lint: allow(lossy-cast) — nonnegative fraction of a shard size that fits usize
        let dead_cap = slack.max((self.slots() as f64 * cfg.max_dead_fraction) as usize);
        delta > delta_cap || self.dead_count > dead_cap
    }

    /// Structural self-check: every invariant a torn publish would
    /// break. The concurrency suite runs this on pinned states while a
    /// writer churns.
    pub fn check_consistent(&self) -> Result<(), String> {
        let b = self.base.len();
        let d = self.delta.len();
        if self.base.trajs.len() != b
            || self.base.embeddings.len() != b
            || self.base.codes.len() != b
        {
            return Err(format!("base arrays disagree on length {b}"));
        }
        if self.delta.trajs.len() != d
            || self.delta.embeddings.len() != d
            || self.delta.codes.len() != d
        {
            return Err(format!("delta arrays disagree on length {d}"));
        }
        if self.dead.len() != b + d {
            return Err(format!("dead covers {} slots of {}", self.dead.len(), b + d));
        }
        let dead_count = self.dead.iter().filter(|&&x| x).count();
        if dead_count != self.dead_count {
            return Err(format!("dead_count {} but {} flags set", self.dead_count, dead_count));
        }
        let in_indexed = self.dead[..self.indexed()].iter().filter(|&&x| x).count();
        if in_indexed != self.dead_in_indexed {
            return Err(format!(
                "dead_in_indexed {} but {} tombstones in the indexed region",
                self.dead_in_indexed, in_indexed
            ));
        }
        let mut prev: Option<u64> = None;
        for s in 0..b + d {
            let id = self.id_at(s);
            if let Some(p) = prev {
                if id <= p {
                    return Err(format!("slot order broken: id {id} after {p}"));
                }
            }
            prev = Some(id);
        }
        if let Some(ix) = &self.base.indexes {
            if ix.covers != b {
                return Err(format!("indexes cover {} of {b} base slots", ix.covers));
            }
            if ix.packed.len() != b {
                return Err(format!("packed mirror holds {} of {b} codes", ix.packed.len()));
            }
        }
        Ok(())
    }
}

impl crate::cell::Sequenced for ShardState {
    fn seq(&self) -> u64 {
        self.publish_seq
    }
    fn set_seq(&mut self, seq: u64) {
        self.publish_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::ShardTrace;

    fn vp_cfg() -> EngineConfig {
        EngineConfig { euclidean_backend: EuclideanBackend::VpTree, ..EngineConfig::default() }
    }

    fn entry(i: u32) -> (Trajectory, Vec<f32>, BinaryCode) {
        // Irrational-ish spacing keeps pairwise distances tie-free.
        let e = vec![i as f32 * 1.37 - 20.0, (i * i % 83) as f32 * 0.51 - 20.0, (i % 7) as f32];
        let code = BinaryCode::from_floats(&e);
        (Trajectory { points: Vec::new() }, e, code)
    }

    fn state(n: u32) -> ShardState {
        let (trajs, (embeddings, codes)): (Vec<_>, (Vec<_>, Vec<_>)) =
            (0..n).map(entry).map(|(t, e, c)| (t, (e, c))).unzip();
        ShardState::build((0..n as u64).collect(), trajs, embeddings, codes, &vp_cfg())
    }

    fn euclid(st: &ShardState, q: &[f32], k: usize) -> (Vec<SlotHit>, PathInfo) {
        let code = BinaryCode::from_floats(q);
        search(&st.ctx(), Strategy::EuclideanBf, q, &code, k, &mut ShardTrace::new(false))
    }

    #[test]
    fn vptree_width_mismatch_scans_instead_of_panicking() {
        let st = state(40);
        let (hits, path) = euclid(&st, &[1.0, 2.0, 3.0], 5);
        assert!(!path.fallback, "a matching query is served by the tree");
        assert_eq!(hits, traj_index::euclidean_top_k(&st.base.embeddings, &[1.0, 2.0, 3.0], 5));
        // VpTree::top_k asserts on the width; the call site must not
        // reach it, and the scan that answers is counted as a fallback.
        let (hits, path) = euclid(&st, &[0.0; 5], 5);
        assert!(path.fallback);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn empty_vptree_answers_from_the_delta_without_a_fallback() {
        let (t, e, c) = entry(3);
        let st = state(0).with_insert(0, t, e.clone(), c);
        let (hits, path) = euclid(&st, &e, 4);
        assert!(!path.fallback);
        assert_eq!(hits, vec![SlotHit { index: 0, distance: 0.0 }]);
    }
}
