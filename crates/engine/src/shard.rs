//! The per-shard search core: one columnar row store, one
//! implementation of the five Section V-E strategies over it, and the
//! immutable per-generation shard state the engine publishes behind
//! `Arc` swaps.
//!
//! ## One row store
//!
//! The encoder emits both halves of a stored row at once — the
//! embedding `h_f` (Eq. 15) and the code `z = sign(h_f)` (Eq. 16). A
//! [`Rows`] block keeps rows column by column: ids, trajectories, one
//! flat [`EmbeddingMatrix`] and one flat [`PackedCodes`], each behind an
//! `Arc`. It is the only stored form of a shard's rows — the indexed
//! base, the delta, what partitioning / compaction / hot swaps move
//! around and what a snapshot decodes into — and the index structures
//! of a generation read the base's own columns through those `Arc`s, so
//! every code and every embedding is held once.
//!
//! ## One search core
//!
//! Every shard of [`ShardedEngine`](crate::ShardedEngine) answers
//! through [`search`] over a [`SearchCtx`]: the two blocks
//! `[base rows, delta rows]`, the generation's [`GenIndexes`] over the
//! base (absent when degraded) and a `dead` slice over the whole slot
//! range carrying the tombstones. Slots number the base first, then the
//! delta. One Hamming loop ([`PackedCodes::scan_into`]) and one
//! Euclidean loop walk whichever blocks no index covers, healthy or
//! degraded alike. Mutation is layered on top of the immutable indexes
//! instead of into them:
//!
//! * `insert` appends to the delta, which queries scan with the same
//!   metric and merge through the shared top-k helper, so exactness is
//!   preserved;
//! * `remove` marks a tombstone; the two paths that ask an exact index
//!   for a top-k (`Mih`, the VP-tree) over-fetch `k + dead_in_indexed`
//!   and filter, which still yields the exact live top-k because the
//!   `(distance, slot)` total order is unchanged by deletion — scans and
//!   radius-2 balls just filter;
//! * past the configured thresholds the shard rebuilds: live rows are
//!   compacted in order and re-indexed. An index build failure never
//!   poisons the shard — it serves by linear scans until a later
//!   rebuild succeeds.
//!
//! ## Immutable shard states
//!
//! [`ShardState`] is the unit the engine publishes: a frozen
//! [`ShardBase`] (the indexed block, shared by `Arc` across generations
//! so publishing an insert never copies the corpus) plus a small delta
//! block and tombstone vector. Every mutation builds a *new*
//! `ShardState` — readers holding an `Arc` to the old one keep a fully
//! consistent view for as long as they please.

use crate::engine::{EngineConfig, Strategy};
use std::sync::Arc;
use traj_data::Trajectory;
use traj_index::search::Hit as SlotHit;
use traj_index::topk::{top_k_grouped, top_k_hits};
use traj_index::{
    euclidean_distance, BinaryCode, EmbeddingMatrix, HammingTable, MultiIndexHashing, PackedCodes,
    SearchError, VpTree,
};

/// A columnar block of stored rows `(id, trajectory, embedding, code)`
/// in ascending-id order. The four columns always hold the same number
/// of rows; the flat columns sit behind `Arc`s so index structures can
/// read them in place and a clone copies nothing until it is pushed to.
#[derive(Clone, Default)]
pub struct Rows {
    ids: Vec<u64>,
    trajs: Vec<Trajectory>,
    embeddings: Arc<EmbeddingMatrix>,
    codes: Arc<PackedCodes>,
}

impl Rows {
    /// Rows in the block.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Stable ids, ascending.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Trajectory of row `i`.
    pub fn traj(&self, i: usize) -> &Trajectory {
        &self.trajs[i]
    }

    /// The embedding column.
    pub fn embeddings(&self) -> &Arc<EmbeddingMatrix> {
        &self.embeddings
    }

    /// The code column.
    pub fn codes(&self) -> &Arc<PackedCodes> {
        &self.codes
    }

    /// `Ok` when a row with a `dim`-wide embedding and a `bits`-wide
    /// code fits the block's widths (an empty block fits anything).
    pub(crate) fn check_widths(&self, dim: usize, bits: usize) -> Result<(), SearchError> {
        self.embeddings.check_width(dim)?;
        self.codes.check_width(bits)
    }

    /// Appends one row. A width mismatch on either half is refused
    /// before any column grows, so the block stays whole.
    pub fn push(
        &mut self,
        id: u64,
        traj: Trajectory,
        embedding: &[f32],
        code: &BinaryCode,
    ) -> Result<(), SearchError> {
        self.check_widths(embedding.len(), code.len())?;
        Arc::make_mut(&mut self.embeddings).push(embedding)?;
        Arc::make_mut(&mut self.codes).push(code)?;
        self.ids.push(id);
        self.trajs.push(traj);
        Ok(())
    }

    /// Appends a copy of row `i` of `src`. Blocks that exchange rows
    /// were encoded by one model — [`Rows::push`] and
    /// [`ShardState::with_insert`] check widths where rows enter — which
    /// is what the columns' `push_from` relies on.
    pub(crate) fn push_row(&mut self, src: &Rows, i: usize) {
        self.push_halves(&src.embeddings, &src.codes, i);
        self.ids.push(src.ids[i]);
        self.trajs.push(src.trajs[i].clone());
    }

    fn push_halves(&mut self, embeddings: &EmbeddingMatrix, codes: &PackedCodes, i: usize) {
        Arc::make_mut(&mut self.embeddings).push_from(embeddings, i);
        Arc::make_mut(&mut self.codes).push_from(codes, i);
    }

    /// Splits the block across `n` blocks by `id % n`, keeping order;
    /// trajectories move, the flat halves are copied row by row.
    pub(crate) fn partition(self, n: usize) -> Vec<Rows> {
        let mut parts = vec![Rows::default(); n];
        let Rows { ids, trajs, embeddings, codes } = self;
        for (i, (id, traj)) in ids.into_iter().zip(trajs).enumerate() {
            #[expect(
                clippy::cast_possible_truncation,
                reason = "a residue mod the small shard count"
            )]
            let part = &mut parts[(id % n as u64) as usize];
            part.push_halves(&embeddings, &codes, i);
            part.ids.push(id);
            part.trajs.push(traj);
        }
        parts
    }
}

/// The per-generation index set over one base block. Every structure
/// reads the block's own columns through the shared handles.
pub(crate) struct GenIndexes {
    /// Radius-2 bucket table (serves `Table` and `Hybrid`).
    pub table: HammingTable,
    /// Exact Hamming k-NN (serves `Mih`).
    pub mih: MultiIndexHashing,
    /// Exact Euclidean k-NN (serves `EuclideanBf`).
    pub euclid: VpTree,
}

impl GenIndexes {
    /// Builds the full index set over `rows`' columns, or `None` when a
    /// structure fails to build (the caller degrades to linear scans).
    fn try_build(rows: &Rows, cfg: &EngineConfig) -> Option<GenIndexes> {
        let table = HammingTable::over(Arc::clone(&rows.codes));
        let mih = MultiIndexHashing::over(Arc::clone(&rows.codes), cfg.mih_tables).ok()?;
        let euclid = VpTree::over(Arc::clone(&rows.embeddings));
        Some(GenIndexes { table, mih, euclid })
    }

    /// True when every structure reads `rows`' own columns rather than
    /// a copy of them.
    fn shares(&self, rows: &Rows) -> bool {
        Arc::ptr_eq(self.table.codes(), &rows.codes)
            && Arc::ptr_eq(self.mih.codes(), &rows.codes)
            && Arc::ptr_eq(self.euclid.data(), &rows.embeddings)
    }
}

/// How a strategy produced its answer, for telemetry.
pub(crate) struct PathInfo {
    /// Rows whose distance to the query was evaluated — this shard's
    /// share of [`QueryInfo::candidates`](crate::QueryInfo::candidates).
    pub candidates: usize,
    /// The index could not serve the query and a full scan answered it.
    pub fallback: bool,
    /// A `Hybrid` radius-2 ball came up short and spilled into a scan.
    pub spill: bool,
    /// Tombstone margin added to the `k` asked of an exact index; 0 on
    /// every path that filters a scan or a ball instead.
    pub overfetch: usize,
    /// One word naming *why* the path looked the way it did, stamped by
    /// [`search`] (see [`path_taxonomy`]); `"empty"` until then, which
    /// is also what a search of nothing, or for nothing, keeps.
    pub path: &'static str,
}

impl PathInfo {
    pub fn scan(candidates: usize, fallback: bool) -> PathInfo {
        PathInfo { candidates, fallback, spill: false, overfetch: 0, path: "empty" }
    }
}

/// Top-k of a candidate set, with the path telemetry of a scan.
fn select(candidates: Vec<SlotHit>, k: usize, fallback: bool) -> (Vec<SlotHit>, PathInfo) {
    let path = PathInfo::scan(candidates.len(), fallback);
    (top_k_hits(candidates, k), path)
}

/// First block of a scan over the whole shard.
const WHOLE: usize = 0;
/// First block of a scan over what the indexes do not cover.
const DELTA: usize = 1;
/// Hamming radius of a scan that keeps rows at any distance.
const UNBOUNDED: usize = usize::MAX;

/// Borrowed view of one searchable shard: its two blocks, the indexes
/// over the first (unless degraded) and the tombstones over the
/// combined slot range. Building one allocates nothing.
pub(crate) struct SearchCtx<'a> {
    /// `[base rows, delta rows]`; slots number the base first.
    pub blocks: [&'a Rows; 2],
    /// The generation's indexes over `blocks[0]`; `None` = degraded,
    /// everything scans.
    pub indexes: Option<&'a GenIndexes>,
    /// Tombstones over all slots (base + delta, in order).
    pub dead: &'a [bool],
    /// Tombstones inside the indexed block — the index over-fetch
    /// margin.
    pub dead_in_indexed: usize,
}

impl SearchCtx<'_> {
    fn total_slots(&self) -> usize {
        self.dead.len()
    }

    /// Slot of the first row of block `first`.
    fn first_slot(&self, first: usize) -> usize {
        self.blocks[..first].iter().map(|b| b.len()).sum()
    }

    /// Euclidean candidates: the live rows of blocks `first..`
    /// ([`WHOLE`] or [`DELTA`]), walked through the flat matrix.
    fn scan_euclid(&self, q: &[f32], first: usize) -> Vec<SlotHit> {
        let mut hits = Vec::new();
        let mut offset = self.first_slot(first);
        for rows in &self.blocks[first..] {
            for i in (0..rows.len()).filter(|&i| !self.dead[offset + i]) {
                let distance = euclidean_distance(rows.embeddings.row(i), q);
                hits.push(SlotHit { index: offset + i, distance });
            }
            offset += rows.len();
        }
        hits
    }

    /// Calls `f(slot, distance)` for every live row of blocks `first..`
    /// ([`WHOLE`] or [`DELTA`]) in slot order, through the flat packed
    /// layout (4-wide popcount accumulators).
    fn scan_hamming(&self, q: &BinaryCode, first: usize, mut f: impl FnMut(usize, usize)) {
        let mut offset = self.first_slot(first);
        for rows in &self.blocks[first..] {
            rows.codes.scan_into(q, |i, d| {
                if !self.dead[offset + i] {
                    f(offset + i, d as usize);
                }
            });
            offset += rows.len();
        }
    }

    /// The live Hamming top-k of blocks `first..` among the rows within
    /// distance `max`, in `(distance, slot)` order, and how many live
    /// rows lie within `max`.
    ///
    /// A counting select (DESIGN §9): the scan stores each row's integer
    /// distance and counts rows per distance; running sums give the
    /// cut-off distance of the k-th row and each distance's first output
    /// position; a pass over the stored distances, in slot order, writes
    /// the rows at or under the cut-off into place. No sort, and one
    /// scratch buffer per call.
    fn hamming_top_k(
        &self,
        q: &BinaryCode,
        first: usize,
        k: usize,
        max: usize,
    ) -> (Vec<SlotHit>, usize) {
        let base = self.first_slot(first);
        let rows = self.total_slots() - base;
        if rows == 0 {
            return (Vec::new(), 0);
        }
        // A counter per distance in `0..=max`, then each row's distance
        // (usize::MAX, past any cut-off, for a tombstone).
        let width = max.min(q.len()) + 1;
        let mut scratch = vec![usize::MAX; width + rows];
        let (at, dist) = scratch.split_at_mut(width);
        at.fill(0);
        self.scan_hamming(q, first, |slot, d| {
            dist[slot - base] = d;
            if let Some(n) = at.get_mut(d) {
                *n += 1;
            }
        });
        let within = at.iter().sum();
        let (mut placed, mut cut) = (0, width - 1);
        for (d, n) in at.iter_mut().enumerate() {
            let start = placed;
            placed += *n;
            *n = start;
            if placed >= k {
                cut = d;
                break;
            }
        }
        let len = placed.min(k);
        let mut top = vec![SlotHit { index: 0, distance: 0.0 }; len];
        for (row, &d) in dist.iter().enumerate() {
            if d <= cut && at[d] < len {
                top[at[d]] = SlotHit { index: base + row, distance: d as f64 };
                at[d] += 1;
            }
        }
        (top, within)
    }

    /// A whole-shard Hamming scan that answers on its own.
    fn scan_top_k(
        &self,
        q: &BinaryCode,
        k: usize,
        max: usize,
        fallback: bool,
    ) -> (Vec<SlotHit>, PathInfo) {
        let (top, within) = self.hamming_top_k(q, WHOLE, k, max);
        (top, PathInfo::scan(within, fallback))
    }

    /// The live top-k of an exact index's over-fetched `answer` merged
    /// with the `delta` top-k, charged with the distance evaluations the
    /// index spent plus the delta rows scanned.
    fn merge_indexed(
        &self,
        answer: Vec<SlotHit>,
        evaluations: usize,
        (delta, scanned): (Vec<SlotHit>, usize),
        k: usize,
    ) -> (Vec<SlotHit>, PathInfo) {
        let mut hits: Vec<SlotHit> = answer.into_iter().filter(|h| !self.dead[h.index]).collect();
        hits.extend(delta);
        let path = PathInfo {
            overfetch: self.dead_in_indexed,
            ..PathInfo::scan(evaluations + scanned, false)
        };
        (top_k_hits(hits, k), path)
    }

    fn euclidean_hits(&self, q: &[f32], k: usize) -> (Vec<SlotHit>, PathInfo) {
        let (answer, evaluations) = match self.indexes.map(|ix| &ix.euclid) {
            // An empty tree has no width to compare against, and nothing
            // to find.
            Some(vp) if vp.is_empty() => (Vec::new(), 0),
            // Over-fetch by the tombstone count so filtering cannot eat
            // into the true top-k: the tree is exact under the `(distance,
            // slot)` order, so its first k + dead_in_indexed hits contain
            // the k best live ones.
            Some(vp) if vp.dim() == q.len() => {
                vp.top_k_counted(q, k.saturating_add(self.dead_in_indexed))
            }
            // Degraded, or a query `VpTree::top_k` would panic on (wrong
            // width): the scan that answers is a fallback.
            _ => return select(self.scan_euclid(q, WHOLE), k, true),
        };
        let delta = self.scan_euclid(q, DELTA);
        let scanned = delta.len();
        self.merge_indexed(answer, evaluations, (delta, scanned), k)
    }

    fn mih_hits(&self, q: &BinaryCode, k: usize) -> (Vec<SlotHit>, PathInfo) {
        match self.indexes.map(|ix| ix.mih.top_k_counted(q, k.saturating_add(self.dead_in_indexed)))
        {
            Some(Ok((answer, evaluations))) => self.merge_indexed(
                answer,
                evaluations,
                self.hamming_top_k(q, DELTA, k, UNBOUNDED),
                k,
            ),
            // Degraded, or the index rejected the query.
            _ => self.scan_top_k(q, k, UNBOUNDED, true),
        }
    }

    /// The live radius-2 ball, grouped by distance: `ball[d]` holds the
    /// live slots at distance `d` — the table's base buckets, then the
    /// delta rows the scan finds within 2. `None` when degraded or the
    /// table rejects the query.
    fn radius2_ball(&self, q: &BinaryCode) -> Option<[Vec<usize>; 3]> {
        let mut ball: [Vec<usize>; 3] = Default::default();
        self.indexes?
            .table
            .for_each_within(q, 2, |rows, d| {
                ball[d as usize].extend(rows.iter().filter(|&&slot| !self.dead[slot]));
            })
            .ok()?;
        self.scan_hamming(q, DELTA, |slot, d| {
            if let Some(group) = ball.get_mut(d) {
                group.push(slot);
            }
        });
        Some(ball)
    }

    fn table_hits(&self, q: &BinaryCode, k: usize, hybrid: bool) -> (Vec<SlotHit>, PathInfo) {
        let Some(mut ball) = self.radius2_ball(q) else {
            return if hybrid {
                self.scan_top_k(q, k, UNBOUNDED, true)
            } else {
                // Degraded Table strategy: emulate the radius-2 ball by
                // scanning, keeping the may-return-fewer semantics.
                self.scan_top_k(q, k, 2, true)
            };
        };
        let within = ball.iter().map(Vec::len).sum();
        if hybrid && within < k {
            // The designed Hybrid spill — a scan, but not a degradation.
            let (top, path) = self.scan_top_k(q, k, UNBOUNDED, false);
            return (top, PathInfo { spill: true, ..path });
        }
        // Counting select over the three distance groups (DESIGN §9).
        (top_k_grouped(&mut ball, k), PathInfo::scan(within, false))
    }
}

/// The taxonomy label of a finished search, so tail exemplars in the
/// flight recorder read without cross-referencing `PathInfo` bit-by-bit.
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
        _ => "indexed",
    }
}

/// Answers one strategy over the view: the search core behind every
/// shard of the engine. Hits carry *slot* indices into the view;
/// callers map them to stable ids.
pub(crate) fn search(
    ctx: &SearchCtx<'_>,
    strategy: Strategy,
    q_emb: &[f32],
    q_code: &BinaryCode,
    k: usize,
) -> (Vec<SlotHit>, PathInfo) {
    if k == 0 || ctx.total_slots() == 0 {
        return (Vec::new(), PathInfo::scan(0, false));
    }
    let (hits, path) = match strategy {
        Strategy::EuclideanBf => ctx.euclidean_hits(q_emb, k),
        // A scan by definition: degraded mode changes nothing.
        Strategy::HammingBf => ctx.scan_top_k(q_code, k, UNBOUNDED, false),
        Strategy::Table => ctx.table_hits(q_code, k, false),
        Strategy::Mih => ctx.mih_hits(q_code, k),
        Strategy::Hybrid => ctx.table_hits(q_code, k, true),
    };
    (hits, PathInfo { path: path_taxonomy(ctx, strategy, &path), ..path })
}

// ---------------------------------------------------------------------
// Immutable shard state.
// ---------------------------------------------------------------------

/// The frozen indexed block of one shard. Shared by `Arc` across
/// generations: publishing an insert or a tombstone re-uses the base
/// untouched, so the copy cost of a mutation is the delta block, never
/// the corpus.
pub struct ShardBase {
    /// The indexed rows.
    pub(crate) rows: Rows,
    /// `None` = the index build failed; the shard serves by scans.
    pub(crate) indexes: Option<GenIndexes>,
}

/// One published generation of one shard: everything a reader needs to
/// answer queries, immutable once published. `Arc<ShardState>` is the
/// unit readers pin. Cloning is shallow on the corpus side (the base is
/// behind an `Arc`), so republishing a state (e.g. during a hot swap)
/// costs O(delta), not O(corpus).
#[derive(Clone)]
pub struct ShardState {
    /// The frozen indexed block, shared across generations.
    pub base: Arc<ShardBase>,
    /// Rows inserted after the base was built (linearly scanned).
    /// Copied on every publish — bounded by the rebuild thresholds, so
    /// the copy is O(rebuild_slack), not O(corpus).
    pub delta: Rows,
    /// Tombstones over base then delta slots.
    pub dead: Vec<bool>,
    /// Number of tombstones set in `dead`.
    pub dead_count: usize,
    /// Tombstones inside the indexed block (over-fetch margin); zero
    /// when degraded.
    pub dead_in_indexed: usize,
    /// `true` after `force_degrade`: indexes are ignored until rebuild.
    pub forced_degraded: bool,
    /// Rebuild counter of this shard; bumps when a new base is built.
    pub generation: u64,
    /// The sequence of the engine view in which this state was first
    /// published (stamped by the engine at publish): strictly
    /// increasing per shard, unchanged while other shards publish.
    /// Readers assert this never moves backwards.
    pub publish_seq: u64,
}

impl ShardState {
    /// A fresh shard over rows in ascending-id order.
    pub fn build(rows: Rows, cfg: &EngineConfig) -> ShardState {
        let indexes = GenIndexes::try_build(&rows, cfg);
        ShardState {
            dead: vec![false; rows.len()],
            base: Arc::new(ShardBase { rows, indexes }),
            delta: Rows::default(),
            dead_count: 0,
            dead_in_indexed: 0,
            forced_degraded: false,
            generation: 1,
            publish_seq: 0,
        }
    }

    /// Total slots (live + tombstoned).
    pub fn slots(&self) -> usize {
        self.base.rows.len() + self.delta.len()
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
            self.base.rows.len()
        }
    }

    /// The block holding `slot`, and the row's position in it.
    pub(crate) fn row_at(&self, slot: usize) -> (&Rows, usize) {
        match slot.checked_sub(self.base.rows.len()) {
            None => (&self.base.rows, slot),
            Some(i) => (&self.delta, i),
        }
    }

    /// The stable id at `slot`.
    pub fn id_at(&self, slot: usize) -> u64 {
        let (rows, i) = self.row_at(slot);
        rows.ids[i]
    }

    /// The trajectory at `slot`.
    pub fn traj_at(&self, slot: usize) -> &Trajectory {
        let (rows, i) = self.row_at(slot);
        &rows.trajs[i]
    }

    /// The live slot holding stable id `id`. Slot order is ascending-id
    /// within base and delta, and every delta id exceeds every base id.
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        let slot = match self.base.rows.ids.binary_search(&id) {
            Ok(s) => s,
            Err(_) => self.base.rows.len() + self.delta.ids.binary_search(&id).ok()?,
        };
        (!self.dead[slot]).then_some(slot)
    }

    /// Live slots, in ascending-id order.
    pub fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.slots()).filter(|&s| !self.dead[s])
    }

    /// The borrowed search view over this state. A degraded shard
    /// keeps its blocks and loses only the indexes.
    pub(crate) fn ctx(&self) -> SearchCtx<'_> {
        SearchCtx {
            blocks: [&self.base.rows, &self.delta],
            indexes: self.base.indexes.as_ref().filter(|_| !self.forced_degraded),
            dead: &self.dead,
            dead_in_indexed: self.dead_in_indexed,
        }
    }

    /// Next state with one row appended to the delta. `id` must exceed
    /// every id in the shard (monotone id assignment guarantees it). A
    /// row whose widths differ from the shard's is refused: `rebuilt`
    /// compacts base and delta into one block.
    pub fn with_insert(
        &self,
        id: u64,
        traj: Trajectory,
        embedding: &[f32],
        code: &BinaryCode,
    ) -> Result<ShardState, SearchError> {
        debug_assert!(
            self.slots() == 0 || self.id_at(self.slots() - 1) < id,
            "insert id must be monotone"
        );
        self.base.rows.check_widths(embedding.len(), code.len())?;
        let mut next = self.clone();
        next.delta.push(id, traj, embedding, code)?;
        next.dead.push(false);
        Ok(next)
    }

    /// Next state with `slot` tombstoned.
    pub fn with_remove(&self, slot: usize) -> ShardState {
        debug_assert!(!self.dead[slot], "slot already tombstoned");
        let mut next = self.clone();
        next.dead[slot] = true;
        next.dead_count += 1;
        next.dead_in_indexed += usize::from(slot < self.indexed());
        next
    }

    /// Next state with the indexes dropped: every strategy linear-scans
    /// until a rebuild. Mirrors a failed rebuild — with no indexed
    /// block there is no over-fetch margin.
    pub fn with_degraded(&self) -> ShardState {
        ShardState { dead_in_indexed: 0, forced_degraded: true, ..self.clone() }
    }

    /// Compacts live rows (order-preserving, so ascending-id) and
    /// builds the next generation's base + indexes. This runs *off* the
    /// publish lock: readers keep the old generation until the new one
    /// is swapped in.
    pub fn rebuilt(&self, cfg: &EngineConfig) -> ShardState {
        let mut rows = Rows::default();
        for slot in self.live_slots() {
            let (src, i) = self.row_at(slot);
            rows.push_row(src, i);
        }
        ShardState { generation: self.generation + 1, ..ShardState::build(rows, cfg) }
    }

    /// True when the delta or tombstone count crosses the configured
    /// rebuild thresholds (applied per shard).
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "nonnegative fractions of a shard size that fit usize"
    )]
    pub fn needs_rebuild(&self, cfg: &EngineConfig) -> bool {
        let indexed = self.base.rows.len();
        let delta = self.delta.len();
        let slack = cfg.rebuild_slack;
        let delta_cap = slack.max((indexed as f64 * cfg.max_delta_fraction) as usize);
        let dead_cap = slack.max((self.slots() as f64 * cfg.max_dead_fraction) as usize);
        delta > delta_cap || self.dead_count > dead_cap
    }

    /// `Ok` when every stored row is as wide as a model of embedding
    /// width `dim` makes it (Eq. 15 / Eq. 16: `dim` floats, `dim` bits).
    pub(crate) fn check_widths(&self, dim: usize) -> Result<(), SearchError> {
        self.base.rows.check_widths(dim, dim)?;
        self.delta.check_widths(dim, dim)
    }

    /// Structural self-check: every invariant a torn publish would
    /// break, plus the storage-of-record claim — the generation's
    /// indexes read the base's own columns, not copies. The concurrency
    /// suite runs this on pinned states while a writer churns.
    pub fn check_consistent(&self) -> Result<(), String> {
        let slots = self.slots();
        if self.dead.len() != slots {
            return Err(format!("dead covers {} slots of {slots}", self.dead.len()));
        }
        let dead_count = self.dead.iter().filter(|&&x| x).count();
        if dead_count != self.dead_count {
            return Err(format!("dead_count {} but {} flags set", self.dead_count, dead_count));
        }
        let in_indexed = self.dead[..self.indexed()].iter().filter(|&&x| x).count();
        if in_indexed != self.dead_in_indexed {
            return Err(format!(
                "dead_in_indexed {} but {} tombstones in the indexed block",
                self.dead_in_indexed, in_indexed
            ));
        }
        let mut prev: Option<u64> = None;
        for s in 0..slots {
            let id = self.id_at(s);
            if let Some(p) = prev {
                if id <= p {
                    return Err(format!("slot order broken: id {id} after {p}"));
                }
            }
            prev = Some(id);
        }
        match &self.base.indexes {
            Some(ix) if !ix.shares(&self.base.rows) => {
                Err("an index reads a private copy of the base columns".into())
            }
            _ => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(i: u32) -> (Trajectory, Vec<f32>, BinaryCode) {
        // Irrational-ish spacing keeps pairwise distances tie-free.
        let e = vec![i as f32 * 1.37 - 20.0, (i * i % 83) as f32 * 0.51 - 20.0, (i % 7) as f32];
        let code = BinaryCode::from_floats(&e);
        (Trajectory { points: Vec::new() }, e, code)
    }

    fn state(n: u32) -> ShardState {
        let mut rows = Rows::default();
        for i in 0..n {
            let (t, e, c) = entry(i);
            rows.push(i as u64, t, &e, &c).unwrap();
        }
        ShardState::build(rows, &EngineConfig::default())
    }

    fn euclid(st: &ShardState, q: &[f32], k: usize) -> (Vec<SlotHit>, PathInfo) {
        let code = BinaryCode::from_floats(q);
        search(&st.ctx(), Strategy::EuclideanBf, q, &code, k)
    }

    /// Row `i` of a 16-bit corpus clustered around one centre code: odd
    /// rows flip bit `i % 16`, every third row bit `5i % 16`, so rows
    /// lie 0–2 bits from the centre and 0–4 bits from each other.
    fn clustered(i: u32) -> (Trajectory, Vec<f32>, BinaryCode) {
        let flips = [(i % 2 == 1).then_some(i % 16), i.is_multiple_of(3).then_some(i * 5 % 16)];
        let e: Vec<f32> = (0..16u32)
            .map(|b| {
                let up = (b * 7 + 3) % 5 < 2;
                if up ^ flips.contains(&Some(b)) {
                    1.0 + (i * 16 + b) as f32 * 1e-3
                } else {
                    -1.0
                }
            })
            .collect();
        let code = BinaryCode::from_floats(&e);
        (Trajectory { points: Vec::new() }, e, code)
    }

    #[test]
    fn table_and_hybrid_count_the_live_radius_2_ball_across_base_and_delta() {
        let mut rows = Rows::default();
        for i in 0..60 {
            let (t, e, c) = clustered(i);
            rows.push(u64::from(i), t, &e, &c).unwrap();
        }
        let mut st = ShardState::build(rows, &EngineConfig::default());
        for i in 60..80 {
            let (t, e, c) = clustered(i);
            st = st.with_insert(u64::from(i), t, &e, &c).unwrap();
        }
        for slot in [0, 1, 3, 9, 30, 60, 61, 63, 75] {
            st = st.with_remove(slot);
        }
        assert!(st.dead_in_indexed > 0 && st.dead_count > st.dead_in_indexed);
        let distance = |slot: usize, q: &BinaryCode| {
            let (block, i) = st.row_at(slot);
            block.codes().distance(i, q)
        };
        // Row 2 flips nothing: the first query is the centre, whose ball
        // holds tombstones in both blocks.
        let queries = [2, 1, 3, 5, 63, 64, 77].map(|i| clustered(i).2);
        let dead: Vec<usize> =
            (0..st.slots()).filter(|&s| st.dead[s] && distance(s, &queries[0]) <= 2).collect();
        assert!(dead.iter().any(|&s| s < 60) && dead.iter().any(|&s| s >= 60));
        let emb = [0.0f32; 16];
        for (n, q) in queries.iter().enumerate() {
            let ball: Vec<SlotHit> = st
                .live_slots()
                .filter(|&slot| distance(slot, q) <= 2)
                .map(|slot| SlotHit { index: slot, distance: f64::from(distance(slot, q)) })
                .collect();
            for k in [1, 5, 20, 1000] {
                let (hits, path) = search(&st.ctx(), Strategy::Table, &emb, q, k);
                assert_eq!(path.candidates, ball.len(), "Table q={n} k={k}");
                assert_eq!(hits, top_k_hits(ball.clone(), k), "Table q={n} k={k}");
                let (hits, path) = search(&st.ctx(), Strategy::Hybrid, &emb, q, k);
                if ball.len() >= k {
                    assert_eq!((path.candidates, path.spill), (ball.len(), false), "q={n} k={k}");
                    assert_eq!(hits, top_k_hits(ball.clone(), k), "Hybrid q={n} k={k}");
                } else {
                    // The spill scans the whole shard and counts every live row.
                    assert_eq!((path.candidates, path.spill), (st.live(), true), "q={n} k={k}");
                }
            }
        }
    }

    #[test]
    fn vptree_width_mismatch_scans_instead_of_panicking() {
        let st = state(40);
        let (hits, path) = euclid(&st, &[1.0, 2.0, 3.0], 5);
        assert!(!path.fallback, "a matching query is served by the tree");
        let embeddings: Vec<Vec<f32>> = (0..40).map(|i| entry(i).1).collect();
        assert_eq!(hits, traj_index::euclidean_top_k(&embeddings, &[1.0, 2.0, 3.0], 5));
        // VpTree::top_k asserts on the width; the call site must not
        // reach it, and the scan that answers is counted as a fallback.
        let (hits, path) = euclid(&st, &[0.0; 5], 5);
        assert!(path.fallback);
        assert_eq!(hits.len(), 5);
    }

    #[test]
    fn empty_vptree_answers_from_the_delta_without_a_fallback() {
        let (t, e, c) = entry(3);
        let st = state(0).with_insert(0, t, &e, &c).unwrap();
        let (hits, path) = euclid(&st, &e, 4);
        assert!(!path.fallback);
        assert_eq!(hits, vec![SlotHit { index: 0, distance: 0.0 }]);
    }

    #[test]
    fn check_consistent_rejects_indexes_over_a_copy_of_the_columns() {
        let st = state(10);
        st.check_consistent().unwrap();
        let mut copy = Rows::default();
        for i in 0..10 {
            copy.push_row(&st.base.rows, i);
        }
        let indexes = GenIndexes::try_build(&copy, &EngineConfig::default());
        let base = Arc::new(ShardBase { rows: st.base.rows.clone(), indexes });
        let err = ShardState { base, ..st }.check_consistent().unwrap_err();
        assert!(err.contains("private copy"), "{err}");
    }

    #[test]
    fn a_row_of_another_width_is_refused_and_the_state_is_untouched() {
        let (t, e, c) = entry(1);
        let st = state(4);
        let wide = [0.0f32; 5];
        assert_eq!(
            st.with_insert(9, t.clone(), &wide, &c).err(),
            Some(SearchError::InconsistentEmbeddings { position: 4, expected: 3, got: 5 })
        );
        assert_eq!(
            st.with_insert(9, t.clone(), &e, &BinaryCode::from_floats(&wide)).err(),
            Some(SearchError::InconsistentCodes { position: 4, expected: 3, got: 5 })
        );
        // The delta is empty, so it would take any width: the base decides.
        let next = st.with_insert(9, t, &e, &c).unwrap();
        assert_eq!((next.slots(), next.delta.len()), (5, 1));
        next.check_consistent().unwrap();
    }
}
