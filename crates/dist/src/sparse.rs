//! Sparse, bucket-pruned, *exact* top-k distance computation.
//!
//! A dense matrix materializes all `n²` pairwise distances, which caps
//! experiments at ~20K trajectories. This module replaces it for
//! supervision and ground truth with a pruned
//! sweep that computes only the pairs that could possibly matter, while
//! returning *bit-for-bit* the same top-k results as the dense path:
//!
//! 1. **Seed** each query's k-th-distance threshold `τ` from the
//!    candidates most likely to be near it: the members of its own
//!    coarse-grid bucket and of the buckets whose endpoint cells touch
//!    its own ([`traj_grid::GridBuckets::candidate_buckets`], the Eq. 20
//!    clusters extended with neighbor adjacency).
//! 2. **Sweep** every remaining bucket. A whole bucket is skipped when
//!    its aggregate lower bound exceeds `τ`; a surviving bucket's members
//!    are skipped individually when their per-pair lower bound
//!    ([`Measure::lower_bound`]: Lemma 1 endpoints and/or the
//!    bounding-box bound) exceeds `τ`. Everything else is computed
//!    exactly and tightens `τ`.
//!
//! **Exactness argument.** `τ` is always the k-th smallest *computed*
//! distance (`∞` while fewer than k are computed), so it never
//! underestimates the true k-th distance: `τ ≥ τ_final ≥ d_(k)`. A pair
//! is pruned only when its lower bound is *strictly* greater than the
//! current `τ`, hence its distance satisfies `d ≥ lb > τ ≥ d_(k)` — it
//! cannot belong to the top k, and (because the inequality is strict) it
//! cannot even tie with the k-th. Conversely any pair with `d ≤ d_(k)`
//! has `lb ≤ d ≤ d_(k) ≤ τ` at every step and is therefore always
//! computed. So the computed set contains every pair at distance
//! `≤ d_(k)`, and running the shared [`top_k_hits`] selection over it
//! yields exactly the dense result, including `total_cmp` NaN ordering
//! and ascending-index tie-breaks.

use crate::bounds::BoundProfile;
use crate::measure::Measure;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;
use traj_data::{BoundingBox, Point, Trajectory};
use traj_grid::{bucket_by_grid, GridBuckets, GridSpec};
use traj_index::{cmp_hits, top_k_hits, Hit};

/// Configuration of the pruned exact top-k driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedTopK {
    /// Number of nearest neighbors per query.
    pub k: usize,
    /// Coarse-grid cell size in meters used for bucketing (the paper's
    /// Eq. 20 coarse grid; 500 m is the paper's choice).
    pub cell_m: f64,
    /// When true, every computed `(query, candidate, distance)` triple is
    /// retained in a [`SparseDistances`] — the raw material for sparse
    /// similarity supervision.
    pub keep_distances: bool,
    /// Worker thread cap; `None` uses the available parallelism.
    pub threads: Option<usize>,
}

impl PrunedTopK {
    /// Driver with the default 500 m coarse cell.
    pub fn new(k: usize) -> Self {
        PrunedTopK { k, cell_m: 500.0, keep_distances: false, threads: None }
    }

    /// Sets the coarse cell size.
    pub fn with_cell_m(mut self, cell_m: f64) -> Self {
        self.cell_m = cell_m;
        self
    }

    /// Retains all computed distances.
    pub fn keeping_distances(mut self) -> Self {
        self.keep_distances = true;
        self
    }

    /// Caps the worker thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }
}

/// Typed failures of the pruned driver. Lib code propagates these
/// instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PruneError {
    /// The configured coarse cell size is not a positive finite number.
    InvalidCellSize,
    /// A worker thread panicked mid-sweep (a bug in a distance kernel,
    /// e.g. an empty trajectory reaching Hausdorff).
    WorkerPanicked,
}

impl fmt::Display for PruneError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PruneError::InvalidCellSize => {
                write!(f, "coarse cell size must be a positive finite number")
            }
            PruneError::WorkerPanicked => write!(f, "pruned sweep worker panicked"),
        }
    }
}

impl std::error::Error for PruneError {}

/// Counters describing how much work the pruned sweep avoided.
/// `pairs_total = pairs_pruned_bucket + pairs_pruned_lb + pairs_exact`;
/// `pairs_seeded ⊆ pairs_exact` (seeds are computed exactly too).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneStats {
    /// Query–candidate pairs considered (excludes self-pairs).
    pub pairs_total: u64,
    /// Pairs computed during threshold seeding (own + neighbor buckets).
    pub pairs_seeded: u64,
    /// Pairs skipped because their whole bucket's aggregate lower bound
    /// exceeded the threshold.
    pub pairs_pruned_bucket: u64,
    /// Pairs skipped by their individual lower bound.
    pub pairs_pruned_lb: u64,
    /// Pairs computed exactly (seeds + lower-bound survivors).
    pub pairs_exact: u64,
}

impl PruneStats {
    /// Fraction of pairs skipped without an exact computation.
    pub fn pruned_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 0.0;
        }
        (self.pairs_pruned_bucket + self.pairs_pruned_lb) as f64 / self.pairs_total as f64
    }

    fn merge(&mut self, o: &PruneStats) {
        self.pairs_total += o.pairs_total;
        self.pairs_seeded += o.pairs_seeded;
        self.pairs_pruned_bucket += o.pairs_pruned_bucket;
        self.pairs_pruned_lb += o.pairs_pruned_lb;
        self.pairs_exact += o.pairs_exact;
    }
}

/// CSR-style per-row neighbor lists: which columns each row touches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePairs {
    offsets: Vec<usize>,
    cols: Vec<usize>,
}

impl SparsePairs {
    /// Builds from per-row column lists.
    pub fn from_rows(rows: &[Vec<usize>]) -> SparsePairs {
        let mut offsets = Vec::with_capacity(rows.len() + 1);
        offsets.push(0);
        let mut cols = Vec::new();
        for r in rows {
            cols.extend_from_slice(r);
            offsets.push(cols.len());
        }
        SparsePairs { offsets, cols }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Columns of row `i`.
    pub fn row(&self, i: usize) -> &[usize] {
        &self.cols[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }
}

/// CSR matrix of the distances a pruned sweep actually computed, plus
/// the per-row pruning threshold `τ` each row ended with. Every absent
/// `(i, j)` was pruned, which certifies `d(i, j) > τ_i` — the fact the
/// sparse similarity transform uses to give unstored pairs a sound
/// (upper-bound) similarity.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseDistances {
    pairs: SparsePairs,
    vals: Vec<f64>,
    thresholds: Vec<f64>,
}

impl SparseDistances {
    /// Number of rows (queries).
    pub fn n_rows(&self) -> usize {
        self.pairs.n_rows()
    }

    /// Stored `(columns, distances)` of row `i`, columns ascending.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.pairs.offsets[i];
        let hi = self.pairs.offsets[i + 1];
        (&self.pairs.cols[lo..hi], &self.vals[lo..hi])
    }

    /// The stored distance of `(i, j)`, or `None` when the pair was
    /// pruned (certified `> threshold(i)`).
    pub fn get(&self, i: usize, j: usize) -> Option<f64> {
        let (cols, vals) = self.row(i);
        cols.binary_search(&j).ok().map(|p| vals[p])
    }

    /// The pruning threshold row `i` ended with: the k-th smallest
    /// computed distance, or `+∞` when fewer than k pairs exist (in
    /// which case nothing was pruned).
    pub fn threshold(&self, i: usize) -> f64 {
        self.thresholds[i]
    }

    /// Total number of stored distances.
    pub fn nnz(&self) -> usize {
        self.pairs.nnz()
    }

    /// The sparsity pattern.
    pub fn pairs(&self) -> &SparsePairs {
        &self.pairs
    }
}

/// Result of a pruned sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedResult {
    /// Per-query indices of the k nearest candidates, nearest first —
    /// bit-for-bit what the dense path returns.
    pub top_k: Vec<Vec<usize>>,
    /// All computed distances, when [`PrunedTopK::keep_distances`] was
    /// set.
    pub distances: Option<SparseDistances>,
    /// Work counters.
    pub stats: PruneStats,
}

/// Exact pruned top-k of every query against a database (the ground
/// truth protocol: queries and database are disjoint sets, no index is
/// excluded).
pub fn pruned_top_k(
    queries: &[Trajectory],
    database: &[Trajectory],
    measure: Measure,
    cfg: &PrunedTopK,
) -> Result<PrunedResult, PruneError> {
    run(queries, database, measure, cfg, false)
}

/// Exact pruned top-k of every corpus trajectory against the rest of the
/// corpus (the supervision self-join: the diagonal is excluded).
pub fn pruned_self_top_k(
    corpus: &[Trajectory],
    measure: Measure,
    cfg: &PrunedTopK,
) -> Result<PrunedResult, PruneError> {
    run(corpus, corpus, measure, cfg, true)
}

/// Max-heap wrapper holding the k smallest computed hits; the top is the
/// current k-th best, whose distance is the pruning threshold `τ`.
struct HeapHit(Hit);

impl PartialEq for HeapHit {
    fn eq(&self, other: &Self) -> bool {
        cmp_hits(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for HeapHit {}
impl PartialOrd for HeapHit {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapHit {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_hits(&self.0, &other.0)
    }
}

/// Per-bucket aggregates that lower-bound every member's lower bound:
/// boxes over the members' endpoints and intervals over the members'
/// bounding-box edges. `bucket_lb ≤ min_{m ∈ bucket} lb(q, m) ≤
/// min_{m} d(q, m)`, so pruning a whole bucket on `bucket_lb > τ` is as
/// sound as pruning each member individually.
struct BucketAgg {
    first_box: BoundingBox,
    last_box: BoundingBox,
    min_x: (f64, f64),
    max_x: (f64, f64),
    min_y: (f64, f64),
    max_y: (f64, f64),
}

fn point_box_dist(p: Point, b: &BoundingBox) -> f64 {
    let dx = (b.min_x - p.x).max(p.x - b.max_x).max(0.0);
    let dy = (b.min_y - p.y).max(p.y - b.max_y).max(0.0);
    (dx * dx + dy * dy).sqrt()
}

fn interval_dist(v: f64, (lo, hi): (f64, f64)) -> f64 {
    (lo - v).max(v - hi).max(0.0)
}

fn build_aggs(buckets: &GridBuckets, profiles: &[BoundProfile]) -> Vec<BucketAgg> {
    buckets
        .buckets
        .iter()
        .map(|members| {
            let p0 = &profiles[members[0]];
            let mut agg = BucketAgg {
                first_box: BoundingBox {
                    min_x: p0.first.x,
                    min_y: p0.first.y,
                    max_x: p0.first.x,
                    max_y: p0.first.y,
                },
                last_box: BoundingBox {
                    min_x: p0.last.x,
                    min_y: p0.last.y,
                    max_x: p0.last.x,
                    max_y: p0.last.y,
                },
                min_x: (p0.bbox.min_x, p0.bbox.min_x),
                max_x: (p0.bbox.max_x, p0.bbox.max_x),
                min_y: (p0.bbox.min_y, p0.bbox.min_y),
                max_y: (p0.bbox.max_y, p0.bbox.max_y),
            };
            for &m in &members[1..] {
                let p = &profiles[m];
                agg.first_box.expand(p.first);
                agg.last_box.expand(p.last);
                agg.min_x = (agg.min_x.0.min(p.bbox.min_x), agg.min_x.1.max(p.bbox.min_x));
                agg.max_x = (agg.max_x.0.min(p.bbox.max_x), agg.max_x.1.max(p.bbox.max_x));
                agg.min_y = (agg.min_y.0.min(p.bbox.min_y), agg.min_y.1.max(p.bbox.min_y));
                agg.max_y = (agg.max_y.0.min(p.bbox.max_y), agg.max_y.1.max(p.bbox.max_y));
            }
            agg
        })
        .collect()
}

fn bucket_lower_bound(measure: Measure, q: &BoundProfile, agg: &BucketAgg) -> f64 {
    let mut lb = 0.0f64;
    if measure.has_endpoint_lower_bound() {
        lb = lb
            .max(point_box_dist(q.first, &agg.first_box))
            .max(point_box_dist(q.last, &agg.last_box));
    }
    if measure.has_bbox_lower_bound() {
        lb = lb
            .max(interval_dist(q.bbox.min_x, agg.min_x))
            .max(interval_dist(q.bbox.max_x, agg.max_x))
            .max(interval_dist(q.bbox.min_y, agg.min_y))
            .max(interval_dist(q.bbox.max_y, agg.max_y));
    }
    lb
}

/// Everything one query's sweep produces.
struct RowOut {
    top_k: Vec<usize>,
    pairs: Option<(Vec<usize>, Vec<f64>)>,
    threshold: f64,
    stats: PruneStats,
}

/// Shared read-only context of a sweep, built once per run.
struct SweepCtx<'a> {
    database: &'a [Trajectory],
    profiles: &'a [BoundProfile],
    buckets: &'a GridBuckets,
    aggs: &'a [BucketAgg],
    measure: Measure,
    cfg: &'a PrunedTopK,
    self_join: bool,
}

/// The coarse grid over the database extent, padded so a degenerate
/// (zero-width or zero-height) extent still yields a valid grid.
fn coarse_spec(database: &[Trajectory], cell_m: f64) -> Option<GridSpec> {
    let mut bb = BoundingBox::of_dataset(database)?;
    if bb.width() <= 0.0 {
        bb.max_x = bb.min_x + cell_m;
    }
    if bb.height() <= 0.0 {
        bb.max_y = bb.min_y + cell_m;
    }
    Some(GridSpec::new(bb, cell_m))
}

fn empty_result(nq: usize, keep: bool) -> PrunedResult {
    PrunedResult {
        top_k: vec![Vec::new(); nq],
        distances: keep.then(|| SparseDistances {
            pairs: SparsePairs::from_rows(&vec![Vec::new(); nq]),
            vals: Vec::new(),
            thresholds: vec![f64::INFINITY; nq],
        }),
        stats: PruneStats::default(),
    }
}

fn sweep_one(qi: usize, query: &Trajectory, qprof: &BoundProfile, ctx: &SweepCtx<'_>) -> RowOut {
    let SweepCtx { database, profiles, buckets, aggs, measure, cfg, self_join } = *ctx;
    let k = cfg.k;
    let mut stats = PruneStats::default();
    let mut computed: Vec<Hit> = Vec::new();
    let mut heap: BinaryHeap<HeapHit> = BinaryHeap::with_capacity(k + 1);
    let mut tau = f64::INFINITY;

    let visit = |j: usize,
                 computed: &mut Vec<Hit>,
                 heap: &mut BinaryHeap<HeapHit>,
                 tau: &mut f64| {
        let d = measure.distance(query, &database[j]);
        let hit = Hit { index: j, distance: d };
        computed.push(hit);
        if heap.len() < k {
            heap.push(HeapHit(hit));
        } else if let Some(top) = heap.peek() {
            if cmp_hits(&hit, &top.0) == Ordering::Less {
                heap.pop();
                heap.push(HeapHit(hit));
            }
        }
        if heap.len() >= k {
            if let Some(top) = heap.peek() {
                *tau = top.0.distance;
            }
        }
    };

    // Phase 1: seed τ from the query's own bucket and its endpoint
    // neighbors — the candidates most likely to be true nearest
    // neighbors, so τ drops fast before the global sweep.
    let cand = buckets.candidate_buckets(query);
    for &b in &cand {
        for &j in &buckets.buckets[b] {
            if self_join && j == qi {
                continue;
            }
            visit(j, &mut computed, &mut heap, &mut tau);
            stats.pairs_seeded += 1;
            stats.pairs_exact += 1;
            stats.pairs_total += 1;
        }
    }

    // Phase 2: sweep the remaining buckets, gating first on the bucket
    // aggregate bound, then on the per-pair bound. Both prunes are
    // strict (`> τ`), which preserves tie-breaking exactly.
    let mut cand_iter = cand.iter().peekable();
    for (bi, members) in buckets.buckets.iter().enumerate() {
        if cand_iter.peek() == Some(&&bi) {
            cand_iter.next();
            continue;
        }
        let self_in_bucket = self_join && buckets.bucket_of[qi] == bi;
        let n_here = (members.len() - usize::from(self_in_bucket)) as u64;
        stats.pairs_total += n_here;
        if bucket_lower_bound(measure, qprof, &aggs[bi]) > tau {
            stats.pairs_pruned_bucket += n_here;
            continue;
        }
        for &j in members {
            if self_join && j == qi {
                continue;
            }
            if measure.lower_bound(qprof, &profiles[j]) > tau {
                stats.pairs_pruned_lb += 1;
            } else {
                visit(j, &mut computed, &mut heap, &mut tau);
                stats.pairs_exact += 1;
            }
        }
    }

    // Finish through the shared selection helper so ordering and
    // tie-breaks are literally the dense code path's.
    let pairs = cfg.keep_distances.then(|| {
        let mut sorted = computed.clone();
        sorted.sort_unstable_by_key(|h| h.index);
        let cols = sorted.iter().map(|h| h.index).collect();
        let vals = sorted.iter().map(|h| h.distance).collect();
        (cols, vals)
    });
    let top_k = top_k_hits(computed, k).into_iter().map(|h| h.index).collect();
    RowOut { top_k, pairs, threshold: tau, stats }
}

fn run(
    queries: &[Trajectory],
    database: &[Trajectory],
    measure: Measure,
    cfg: &PrunedTopK,
    self_join: bool,
) -> Result<PrunedResult, PruneError> {
    if !cfg.cell_m.is_finite() || cfg.cell_m <= 0.0 {
        return Err(PruneError::InvalidCellSize);
    }
    let nq = queries.len();
    if nq == 0 || database.is_empty() || cfg.k == 0 {
        return Ok(empty_result(nq, cfg.keep_distances));
    }
    let Some(spec) = coarse_spec(database, cfg.cell_m) else {
        // No point anywhere in the database: nothing can be computed.
        return Ok(empty_result(nq, cfg.keep_distances));
    };
    let started = std::time::Instant::now();
    let profiles = BoundProfile::of_all(database);
    let qprofiles: Vec<BoundProfile> = if self_join {
        Vec::new() // reuse `profiles`
    } else {
        BoundProfile::of_all(queries)
    };
    let qprof = |i: usize| if self_join { &profiles[i] } else { &qprofiles[i] };
    let buckets = bucket_by_grid(database, &spec);
    let aggs = build_aggs(&buckets, &profiles);
    let ctx = SweepCtx {
        database,
        profiles: &profiles,
        buckets: &buckets,
        aggs: &aggs,
        measure,
        cfg,
        self_join,
    };

    let threads = cfg
        .threads
        .unwrap_or_else(|| std::thread::available_parallelism().map(|t| t.get()).unwrap_or(1))
        .clamp(1, nq);
    let mut rows: Vec<Option<RowOut>> = Vec::new();
    if threads <= 1 || nq < 4 {
        rows.extend((0..nq).map(|i| Some(sweep_one(i, &queries[i], qprof(i), &ctx))));
    } else {
        rows.resize_with(nq, || None);
        let joined: Result<(), PruneError> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let ctx = &ctx;
                    let qprof = &qprof;
                    scope.spawn(move || {
                        let mut out = Vec::new();
                        let mut i = t;
                        while i < nq {
                            out.push((i, sweep_one(i, &queries[i], qprof(i), ctx)));
                            i += threads;
                        }
                        out
                    })
                })
                .collect();
            for h in handles {
                let worker = h.join().map_err(|_| PruneError::WorkerPanicked)?;
                for (i, r) in worker {
                    rows[i] = Some(r);
                }
            }
            Ok(())
        });
        joined?;
    }

    let mut stats = PruneStats::default();
    let mut top_k = Vec::with_capacity(nq);
    let mut pair_rows: Vec<Vec<usize>> = Vec::new();
    let mut vals: Vec<f64> = Vec::new();
    let mut thresholds: Vec<f64> = Vec::new();
    let obs = traj_obs::enabled();
    for row in rows {
        // Every slot was filled: sweep_one ran for each strided index.
        let Some(row) = row else { return Err(PruneError::WorkerPanicked) };
        stats.merge(&row.stats);
        if obs {
            traj_obs::observe_value(
                "gt.exact_per_query",
                (row.stats.pairs_exact) as f64,
            );
        }
        top_k.push(row.top_k);
        if cfg.keep_distances {
            if let Some((cols, v)) = row.pairs {
                pair_rows.push(cols);
                vals.extend_from_slice(&v);
            }
            thresholds.push(row.threshold);
        }
    }
    if obs {
        traj_obs::counter("gt.pairs_total", stats.pairs_total);
        traj_obs::counter("gt.pairs_seeded", stats.pairs_seeded);
        traj_obs::counter("gt.pairs_pruned_bucket", stats.pairs_pruned_bucket);
        traj_obs::counter("gt.pairs_pruned_lb", stats.pairs_pruned_lb);
        traj_obs::counter("gt.pairs_exact", stats.pairs_exact);
        traj_obs::observe_secs("gt.sweep_secs", started.elapsed().as_secs_f64());
    }
    let distances = cfg.keep_distances.then(|| SparseDistances {
        pairs: SparsePairs::from_rows(&pair_rows),
        vals,
        thresholds,
    });
    Ok(PrunedResult { top_k, distances, stats })
}

/// The similarity transform `exp(-θ·d)` over a pruned self-join.
///
/// Stored pairs carry the exact `exp(-θ·d)` similarity (no
/// normalization is needed: the dense path's normalizer is the diagonal
/// similarity `exp(0) = 1`, so stored values are bit-identical to the
/// dense matrix entries). The diagonal is an implicit `1`. Every
/// *unstored* pair `(i, j)` was pruned at threshold `τ_i`, certifying
/// `d > τ_i` and hence `sim < exp(-θ·τ_i)`; [`SparseSimilarity::get`]
/// returns that per-row floor, a sound upper bound that degrades to `0`
/// when nothing was pruned (`τ_i = ∞`).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseSimilarity {
    n: usize,
    pairs: SparsePairs,
    vals: Vec<f64>,
    floors: Vec<f64>,
    theta: f64,
}

impl SparseSimilarity {
    /// Number of rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The `θ` used for the transform.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Similarity of `(i, j)`: `1` on the diagonal, the exact value for
    /// stored pairs, the row's pruning floor otherwise.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        if i == j {
            return 1.0;
        }
        let (cols, vals) = self.row(i);
        match cols.binary_search(&j) {
            Ok(p) => vals[p],
            Err(_) => self.floors[i],
        }
    }

    /// Stored `(columns, similarities)` of row `i`, columns ascending.
    pub fn row(&self, i: usize) -> (&[usize], &[f64]) {
        let lo = self.pairs.offsets[i];
        let hi = self.pairs.offsets[i + 1];
        (&self.pairs.cols[lo..hi], &self.vals[lo..hi])
    }

    /// The similarity ceiling of row `i`'s pruned pairs.
    pub fn floor(&self, i: usize) -> f64 {
        self.floors[i]
    }

    /// Total number of stored similarities.
    pub fn nnz(&self) -> usize {
        self.pairs.nnz()
    }

    /// Materializes row `i` as a dense vector, matching
    /// [`SparseSimilarity::get`] position by position: exact stored
    /// similarities, `1` on the diagonal, the row floor everywhere else.
    /// On a fully-stored row this is bit-identical to the dense
    /// similarity matrix row, which is what keeps the trainer's
    /// companion sampling dense-equivalent on small corpora.
    pub fn dense_row(&self, i: usize) -> Vec<f64> {
        let mut out = vec![self.floors[i]; self.n];
        out[i] = 1.0;
        let (cols, vals) = self.row(i);
        for (&j, &v) in cols.iter().zip(vals) {
            out[j] = v;
        }
        out
    }
}

/// Builds the sparse similarity structure from a pruned self-join's
/// retained distances.
pub fn sparse_similarity(d: &SparseDistances, theta: f64) -> SparseSimilarity {
    let n = d.n_rows();
    let vals = d.vals.iter().map(|&v| (-theta * v).exp()).collect();
    let floors = d
        .thresholds
        .iter()
        .map(|&t| if t.is_finite() { (-theta * t).exp() } else { 0.0 })
        .collect();
    SparseSimilarity { n, pairs: d.pairs.clone(), vals, floors, theta }
}

/// Picks `θ` so the median *stored* distance maps to similarity
/// ~`target`. On a fully-stored self-join this selects exactly the
/// median of all pairwise distances (each unordered pair appears once
/// per direction, which leaves the median element unchanged), so tiny
/// corpora get the dense θ bit-for-bit.
pub fn auto_theta_sparse(d: &SparseDistances, target: f64) -> f64 {
    let mut vals: Vec<f64> = d.vals.clone();
    if vals.is_empty() {
        return 1.0;
    }
    // total_cmp sorts NaN distances last, matching the dense path.
    vals.sort_by(f64::total_cmp);
    let median = vals[vals.len() / 2].max(1e-9);
    -target.clamp(1e-6, 0.999_999).ln() / median
}

#[cfg(test)]
mod tests {
    use super::*;
    use traj_data::{CityGenerator, CityParams};

    fn corpus(seed: u64, n: usize) -> Vec<Trajectory> {
        CityGenerator::new(CityParams::test_city(), seed).generate(n)
    }

    fn dense_top_k(
        queries: &[Trajectory],
        database: &[Trajectory],
        measure: Measure,
        k: usize,
    ) -> Vec<Vec<usize>> {
        queries
            .iter()
            .map(|q| {
                let hits: Vec<Hit> = database
                    .iter()
                    .enumerate()
                    .map(|(j, t)| Hit { index: j, distance: measure.distance(q, t) })
                    .collect();
                top_k_hits(hits, k).into_iter().map(|h| h.index).collect()
            })
            .collect()
    }

    #[test]
    fn pruned_matches_dense_for_all_measures() {
        let trajs = corpus(7, 80);
        let (queries, database) = trajs.split_at(15);
        for measure in [
            Measure::Dtw,
            Measure::Frechet,
            Measure::Hausdorff,
            Measure::CDtw(8),
            Measure::Erp(Point::new(0.0, 0.0)),
            Measure::Edr(120.0),
        ] {
            for k in [1, 5, 10] {
                let cfg = PrunedTopK::new(k).with_cell_m(500.0);
                let got = pruned_top_k(queries, database, measure, &cfg).unwrap();
                assert_eq!(
                    got.top_k,
                    dense_top_k(queries, database, measure, k),
                    "parity failed for {measure} k={k}"
                );
            }
        }
    }

    #[test]
    fn self_join_matches_dense_matrix_rows() {
        let trajs = corpus(3, 60);
        let k = 10;
        let cfg = PrunedTopK::new(k).with_cell_m(500.0).keeping_distances();
        let got = pruned_self_top_k(&trajs, Measure::Hausdorff, &cfg).unwrap();
        for (i, row) in got.top_k.iter().enumerate() {
            assert!(!row.contains(&i), "self excluded");
            assert_eq!(row.len(), k);
        }
        // Parity against a direct (query-orientation) dense scan with the
        // diagonal excluded.
        let dense: Vec<Vec<usize>> = trajs
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let hits: Vec<Hit> = trajs
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(j, t)| Hit {
                        index: j,
                        distance: Measure::Hausdorff.distance(q, t),
                    })
                    .collect();
                top_k_hits(hits, k).into_iter().map(|h| h.index).collect()
            })
            .collect();
        assert_eq!(got.top_k, dense);
    }

    #[test]
    fn stats_are_conserved_and_pruning_fires() {
        let trajs = corpus(11, 400);
        let (queries, database) = trajs.split_at(20);
        let cfg = PrunedTopK::new(10).with_cell_m(500.0);
        let got = pruned_top_k(queries, database, Measure::Hausdorff, &cfg).unwrap();
        let s = got.stats;
        assert_eq!(
            s.pairs_total,
            s.pairs_pruned_bucket + s.pairs_pruned_lb + s.pairs_exact,
            "stats must partition the pair set"
        );
        assert_eq!(s.pairs_total, (queries.len() * database.len()) as u64);
        assert!(s.pairs_seeded <= s.pairs_exact);
        assert!(
            s.pairs_pruned_bucket + s.pairs_pruned_lb > 0,
            "a 400-trajectory city corpus should produce some pruning"
        );
        assert_eq!(s.pruned_fraction(), (s.pairs_pruned_bucket + s.pairs_pruned_lb) as f64 / s.pairs_total as f64);
    }

    #[test]
    fn kept_distances_are_exact_and_thresholded() {
        let trajs = corpus(5, 50);
        let cfg = PrunedTopK::new(5).with_cell_m(500.0).keeping_distances();
        let got = pruned_self_top_k(&trajs, Measure::Frechet, &cfg).unwrap();
        let d = got.distances.unwrap();
        assert_eq!(d.n_rows(), trajs.len());
        for i in 0..trajs.len() {
            let (cols, vals) = d.row(i);
            assert!(cols.windows(2).all(|w| w[0] < w[1]), "columns sorted");
            for (&j, &v) in cols.iter().zip(vals) {
                assert_ne!(i, j);
                assert_eq!(v, Measure::Frechet.distance(&trajs[i], &trajs[j]));
            }
            // Every top-k member is stored with distance <= threshold.
            for &j in &got.top_k[i] {
                let v = d.get(i, j).expect("top-k pair must be stored");
                assert!(v <= d.threshold(i) || !d.threshold(i).is_finite());
            }
        }
    }

    #[test]
    fn sparse_similarity_matches_dense_when_fully_stored() {
        let trajs = corpus(9, 16);
        // k >= n-1: the heap never fills, τ stays ∞, nothing prunes.
        let cfg = PrunedTopK::new(trajs.len()).with_cell_m(500.0).keeping_distances();
        let got = pruned_self_top_k(&trajs, Measure::Dtw, &cfg).unwrap();
        assert_eq!(got.stats.pairs_pruned_bucket + got.stats.pairs_pruned_lb, 0);
        let sd = got.distances.unwrap();
        // Dense reference: every distance (upper triangle, mirrored) and
        // θ from their median; the dense similarity's normaliser is the
        // diagonal's exp(0) = 1.
        let n = trajs.len();
        let mut dense = vec![vec![0.0f64; n]; n];
        let mut upper = Vec::new();
        for i in 0..n {
            for j in i + 1..n {
                dense[i][j] = Measure::Dtw.distance(&trajs[i], &trajs[j]);
                dense[j][i] = dense[i][j];
                upper.push(dense[i][j]);
            }
        }
        upper.sort_by(f64::total_cmp);
        let theta_dense = -0.5f64.ln() / upper[upper.len() / 2].max(1e-9);
        let theta_sparse = auto_theta_sparse(&sd, 0.5);
        assert_eq!(theta_sparse, theta_dense, "median selection must agree");
        let ss = sparse_similarity(&sd, theta_sparse);
        for (i, row) in dense.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                let a = ss.get(i, j);
                let b = (-theta_dense * d).exp();
                assert!(
                    (a - b).abs() < 1e-12,
                    "sim mismatch at ({i},{j}): sparse {a} dense {b}"
                );
            }
        }
    }

    #[test]
    fn floors_upper_bound_pruned_pairs() {
        let trajs = corpus(13, 200);
        let cfg = PrunedTopK::new(5).with_cell_m(400.0).keeping_distances();
        let got = pruned_self_top_k(&trajs, Measure::Hausdorff, &cfg).unwrap();
        let sd = got.distances.unwrap();
        let theta = auto_theta_sparse(&sd, 0.5);
        let ss = sparse_similarity(&sd, theta);
        let mut checked = 0;
        for i in 0..trajs.len() {
            for j in 0..trajs.len() {
                if i != j && sd.get(i, j).is_none() {
                    let true_sim =
                        (-theta * Measure::Hausdorff.distance(&trajs[i], &trajs[j])).exp();
                    assert!(
                        true_sim <= ss.get(i, j) + 1e-12,
                        "floor must upper-bound pruned similarity"
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 0, "expected some pruned pairs at n=200");
    }

    #[test]
    fn thread_counts_agree() {
        let trajs = corpus(21, 120);
        let (queries, database) = trajs.split_at(12);
        let base = pruned_top_k(
            queries,
            database,
            Measure::Dtw,
            &PrunedTopK::new(10).with_threads(1),
        )
        .unwrap();
        for threads in [2, 4, 7] {
            let got = pruned_top_k(
                queries,
                database,
                Measure::Dtw,
                &PrunedTopK::new(10).with_threads(threads),
            )
            .unwrap();
            assert_eq!(got.top_k, base.top_k);
            assert_eq!(got.stats, base.stats, "stats are thread-count independent");
        }
    }

    #[test]
    fn degenerate_inputs_are_handled() {
        // Empty query set / database, k = 0, identical points (degenerate
        // bbox).
        let trajs = corpus(1, 10);
        assert_eq!(
            pruned_top_k(&[], &trajs, Measure::Dtw, &PrunedTopK::new(3)).unwrap().top_k,
            Vec::<Vec<usize>>::new()
        );
        let e = pruned_top_k(&trajs[..2], &[], Measure::Dtw, &PrunedTopK::new(3)).unwrap();
        assert_eq!(e.top_k, vec![Vec::<usize>::new(); 2]);
        let z = pruned_top_k(&trajs[..2], &trajs, Measure::Dtw, &PrunedTopK::new(0)).unwrap();
        assert_eq!(z.top_k, vec![Vec::<usize>::new(); 2]);
        let flat = [
            Trajectory::from_xy(&[(5.0, 5.0), (5.0, 5.0)]),
            Trajectory::from_xy(&[(5.0, 5.0)]),
            Trajectory::from_xy(&[(5.0, 5.0), (5.0, 5.0), (5.0, 5.0)]),
        ];
        let got = pruned_top_k(&flat[..1], &flat[1..], Measure::Dtw, &PrunedTopK::new(2)).unwrap();
        assert_eq!(got.top_k, dense_top_k(&flat[..1], &flat[1..], Measure::Dtw, 2));
        assert_eq!(
            pruned_top_k(&flat[..1], &flat[1..], Measure::Dtw, &PrunedTopK::new(2).with_cell_m(0.0)),
            Err(PruneError::InvalidCellSize)
        );
    }
}
