//! The reference every engine suite checks against: the live rows in a
//! `Vec`, and an exact scan under the `(distance, id)` order.
//!
//! Nothing here shares code with the engine's search path — no index,
//! no shard, no top-k selection helper; a full sort is the whole
//! algorithm — so the engine and the oracle cannot be wrong together.
//!
//! ## The contract, per strategy
//!
//! * `EuclideanBf` — exact Euclidean top-k. Distances are the f64
//!   sum of squared differences, then `sqrt`, accumulated in dimension
//!   order exactly like `traj_index::euclidean_top_k`, so they compare
//!   with `==`. Under the VP-tree backend the engine may break an exact
//!   distance tie differently, so that backend is compared on distances
//!   only.
//! * `HammingBf`, `Mih`, `Hybrid` — exact Hamming top-k. `Hybrid`
//!   decides per shard whether its radius-2 ball holds `k` rows and
//!   scans the shard when it does not; either way the shard returns its
//!   own exact Hamming top-k (a ball with at least `k` rows contains
//!   every row at distance <= 2, hence the `k` nearest), so the merged
//!   answer is the global exact top-k whatever each shard decided.
//! * `Table` — exact Hamming top-k restricted to distance <= 2; may
//!   return fewer than `k` hits.
//!
//! Ties break by ascending id everywhere.

use traj_data::{CityParams, Dataset, SplitSizes, Trajectory};
use traj_engine::{EuclideanBackend, Hit, ShardedEngine, Strategy};
use traj_index::BinaryCode;
use traj2hash::{ModelConfig, ModelContext, Traj2Hash};

/// The deterministic little world the engine suites share: synthetic
/// city, untrained tiny model (training is orthogonal to engine
/// correctness and tested elsewhere; the model holds `Rc` parameters,
/// so it cannot be cached in a static).
pub fn world() -> (Dataset, Traj2Hash) {
    let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 150, query: 8, database: 90 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 11);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
    let model = Traj2Hash::new(mcfg, &ctx, 13);
    (dataset, model)
}

/// A second model over the same city with different parameters, for
/// hot swaps that must visibly change every embedding.
pub fn other_model(dataset: &Dataset) -> Traj2Hash {
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
    Traj2Hash::new(mcfg, &ctx, 17)
}

/// A model of another width than [`world`]'s (8 floats / bits against
/// 16): rows it encoded cannot pass for the other model's.
pub fn narrow_model(dataset: &Dataset) -> Traj2Hash {
    let mcfg = ModelConfig { dim: 8, grid_dim: 8, ..ModelConfig::tiny() };
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
    Traj2Hash::new(mcfg, &ctx, 17)
}

/// A byte-identical copy (`Traj2Hash` is not `Clone`).
pub fn replica(model: &Traj2Hash) -> Traj2Hash {
    Traj2Hash::from_spec(&model.spec(), &model.params.clone_values())
}

pub fn embed(model: &Traj2Hash, t: &Trajectory) -> Vec<f32> {
    model.embed(t).data().to_vec()
}

struct Row {
    id: u64,
    traj: Trajectory,
    embedding: Vec<f32>,
    code: BinaryCode,
}

impl Row {
    fn encode(model: &Traj2Hash, id: u64, traj: Trajectory) -> Row {
        let embedding = embed(model, &traj);
        let code = BinaryCode::from_floats(&embedding);
        Row { id, traj, embedding, code }
    }
}

/// Live rows in ascending-id order, plus the id the next insert gets.
pub struct Oracle {
    rows: Vec<Row>,
    next_id: u64,
}

impl Oracle {
    /// Rows `0..corpus.len()`, like a fresh engine build.
    pub fn build(model: &Traj2Hash, corpus: &[Trajectory]) -> Oracle {
        let rows = corpus
            .iter()
            .enumerate()
            .map(|(i, t)| Row::encode(model, i as u64, t.clone()))
            .collect();
        Oracle { rows, next_id: corpus.len() as u64 }
    }

    /// Ids are handed out once and never recycled.
    pub fn insert(&mut self, model: &Traj2Hash, t: Trajectory) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.rows.push(Row::encode(model, id, t));
        id
    }

    /// False when `id` is not live (never issued, or already removed).
    pub fn remove(&mut self, id: u64) -> bool {
        let before = self.rows.len();
        self.rows.retain(|r| r.id != id);
        self.rows.len() < before
    }

    /// Re-encodes every live row under `model` (the hot-swap mirror).
    pub fn reencode(&mut self, model: &Traj2Hash) {
        for r in &mut self.rows {
            r.embedding = embed(model, &r.traj);
            r.code = BinaryCode::from_floats(&r.embedding);
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn ids(&self) -> Vec<u64> {
        self.rows.iter().map(|r| r.id).collect()
    }

    /// Every row a strategy may return for this query, with its
    /// distance: all live rows, or the radius-2 ball for `Table`.
    fn eligible(&self, strategy: Strategy, q: &[f32]) -> Vec<Hit> {
        let q_code = BinaryCode::from_floats(q);
        let hits = self.rows.iter().map(|r| Hit {
            id: r.id,
            distance: match strategy {
                Strategy::EuclideanBf => r
                    .embedding
                    .iter()
                    .zip(q)
                    .map(|(&a, &b)| (a as f64 - b as f64).powi(2))
                    .sum::<f64>()
                    .sqrt(),
                _ => r.code.hamming(&q_code) as f64,
            },
        });
        hits.filter(|h| strategy != Strategy::Table || h.distance <= 2.0).collect()
    }

    /// The contract answer for a query embedding.
    pub fn top_k(&self, strategy: Strategy, q: &[f32], k: usize) -> Vec<Hit> {
        let mut hits = self.eligible(strategy, q);
        hits.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        hits.truncate(k);
        hits
    }

    /// How many candidates a scan (`HammingBf`, brute-force
    /// `EuclideanBf`) or a radius-2 lookup (`Table`) must consider.
    pub fn candidates(&self, strategy: Strategy, q: &[f32]) -> usize {
        self.eligible(strategy, q).len()
    }
}

/// Checks one answer against the contract. `ids_exact` is false only
/// for `EuclideanBf` under the VP-tree backend.
pub fn assert_hits(got: &[Hit], want: &[Hit], ids_exact: bool, what: &str) {
    if ids_exact {
        assert_eq!(got, want, "{what}");
    } else {
        let distances = |hs: &[Hit]| hs.iter().map(|h| h.distance).collect::<Vec<_>>();
        assert_eq!(distances(got), distances(want), "{what}");
    }
}

/// Asserts the engine holds exactly the oracle's rows and answers every
/// strategy, for every query and `k`, exactly as the contract says.
/// Queries are embedded with the *caller's* `model`, so an engine still
/// serving a stale model after a hot swap cannot agree by accident.
pub fn assert_engine_matches(
    engine: &ShardedEngine,
    oracle: &Oracle,
    model: &Traj2Hash,
    queries: &[Trajectory],
    ks: &[usize],
    what: &str,
) {
    assert_eq!(engine.len(), oracle.len(), "{what}: live count");
    assert_eq!(engine.ids(), oracle.ids(), "{what}: live ids");
    let tree = engine.config().euclidean_backend == EuclideanBackend::VpTree;
    let shards = engine.shard_config().shards;
    for q in queries {
        let q_emb = embed(model, q);
        for &k in ks {
            for strategy in Strategy::ALL {
                let got = engine.query(q, k, strategy).unwrap();
                let want = oracle.top_k(strategy, &q_emb, k);
                let ids_exact = !(tree && strategy == Strategy::EuclideanBf);
                assert_hits(
                    &got,
                    &want,
                    ids_exact,
                    &format!("{what}: {} at shards={shards} k={k}", strategy.name()),
                );
            }
        }
    }
}
