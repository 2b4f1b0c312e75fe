//! The four workloads and everything generated from `--seed`: the
//! trajectory pools, the operation schedule and the oracle's sample.
//! The program under test receives only these inputs.

use crate::api::{self, ModelSize, Strategy, Trajectory};

/// SplitMix64: the benchmark's own generator for schedules and samples.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n.max(1) as u64) as usize
    }
}

/// One operation of the single-client phase.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    Query(Strategy),
    Insert,
    /// Removes the live id at `pick % live.len()`.
    Remove(u64),
}

/// Sizes of one workload at `--seconds 10`.
#[derive(Clone)]
pub struct Spec {
    pub name: &'static str,
    pub model: ModelSize,
    pub train_seeds: usize,
    pub validation: usize,
    pub corpus: usize,
    pub epochs: usize,
    pub database: usize,
    /// Database rows the benchmark encodes itself for its oracle: all of
    /// them, or a seeded sample where encoding twice costs too much.
    pub oracle_rows: usize,
    /// Further trajectories in the benchmark's own bulk encode.
    pub extra_encode: usize,
    /// Also bulk-encode on one thread (`offline_build`).
    pub encode_single_thread: bool,
    /// Database of the exact ground-truth sweep at `k = 50` (0 = skip).
    pub truth_pool: usize,
    /// Queries that warm every strategy up and give `hr10`.
    pub quality_queries: usize,
    /// Single-client phase: operations and their mix in percent (the
    /// rest are queries, round-robin over the strategies). The read
    /// workloads carry 5–10 % inserts (200–300) so `write_p50_us` samples
    /// the same seconds as the queries do; none reaches a rebuild threshold.
    pub a_ops: usize,
    pub insert_pct: usize,
    pub remove_pct: usize,
    /// Reader phase: `Hybrid` queries per reader thread.
    pub b_ops: usize,
    /// Write probe of the traced run: inserts, then half as many removes.
    pub w_inserts: usize,
    /// Compact, snapshot, reload and check parity at the end.
    pub epilogue: bool,
    /// Every n-th query of the single-client phase is checked.
    pub check_every: usize,
    /// Fresh trajectories for the traced run's layer ladder.
    pub spare: usize,
}

/// Seed of the training pools and of the model's initialisation. Like
/// the city, the training set is part of the workload and not of the
/// traffic: an epoch's cost follows which few trajectories the first
/// triplets happen to share, and differed by 35 % between draws.
pub const TRAINING_SEED: u64 = 120;
pub const WORKLOADS: [&str; 4] = ["serve_small", "serve_large", "serve_churn", "offline_build"];
pub const K: usize = 10;
pub const TRUTH_K: usize = 50;
pub const PARITY_QUERIES: usize = 40;

impl Spec {
    pub fn named(name: &str) -> Option<Spec> {
        let base = Spec {
            name: "",
            model: ModelSize::Small,
            train_seeds: 120,
            validation: 60,
            corpus: 600,
            epochs: 3,
            database: 2_000,
            oracle_rows: 2_000,
            extra_encode: 0,
            encode_single_thread: false,
            truth_pool: 0,
            quality_queries: 400,
            a_ops: 6_000,
            insert_pct: 5,
            remove_pct: 0,
            b_ops: 1_200,
            w_inserts: 0,
            epilogue: false,
            check_every: 25,
            spare: 2_400,
        };
        Some(match name {
            "serve_small" => Spec {
                name: "serve_small",
                ..base
            },
            "serve_large" => Spec {
                name: "serve_large",
                database: 20_000,
                a_ops: 3_000,
                insert_pct: 10,
                b_ops: 800,
                ..base
            },
            "serve_churn" => Spec {
                name: "serve_churn",
                database: 1_500,
                oracle_rows: 1_500,
                a_ops: 5_000,
                insert_pct: 20,
                remove_pct: 10,
                b_ops: 800,
                epilogue: true,
                ..base
            },
            "offline_build" => Spec {
                name: "offline_build",
                epochs: 6,
                extra_encode: 1_000,
                encode_single_thread: true,
                truth_pool: 20_000,
                a_ops: 2_000,
                insert_pct: 10,
                b_ops: 400,
                ..base
            },
            _ => return None,
        })
    }

    /// Scales the measured phases to `--seconds`; set-up sizes stay.
    pub fn scaled(mut self, seconds: u64) -> Spec {
        let scale = |n: usize, min: usize| {
            if n == 0 {
                0
            } else {
                ((n as u64 * seconds / 10) as usize).max(min)
            }
        };
        self.a_ops = scale(self.a_ops, 100);
        self.b_ops = scale(self.b_ops, 50);
        self
    }

    /// The traced run: a shorter single-client pass (half of it with
    /// spans), a short reader pass at 1 and at N readers, a write probe.
    pub fn traced(mut self) -> Spec {
        if self.remove_pct == 0 {
            self.a_ops = self.a_ops.min(2_000);
        } // the churn schedule stays whole, so its shards still rebuild
        self.b_ops = self.b_ops.min(300);
        self.w_inserts = 100;
        self
    }

    /// Debug-build sizes for the self-test: same code paths, seconds not minutes.
    #[cfg(test)]
    pub fn tiny(mut self) -> Spec {
        self.model = ModelSize::Tiny;
        (self.train_seeds, self.validation, self.corpus, self.epochs) = (16, 12, 60, 1);
        self.database = if self.name == "serve_large" { 120 } else { 60 };
        self.oracle_rows = 60;
        self.extra_encode = self.extra_encode.min(8);
        self.truth_pool = self.truth_pool.min(80);
        self.quality_queries = 4;
        self.insert_pct = self.insert_pct.max(10);
        self.a_ops = if self.remove_pct > 0 { 150 } else { 50 };
        self.b_ops = 6;
        self.w_inserts = self.w_inserts.min(6);
        self.check_every = 5;
        self.spare = 96;
        self
    }
}

/// Everything one run feeds the program, generated from the seed.
pub struct Inputs {
    pub train_seeds: Vec<Trajectory>,
    pub validation: Vec<Trajectory>,
    pub corpus: Vec<Trajectory>,
    pub database: Vec<Trajectory>,
    pub truth_pool: Vec<Trajectory>,
    pub extra_encode: Vec<Trajectory>,
    pub quality: Vec<Trajectory>,
    pub schedule: Vec<Op>,
    pub a_queries: Vec<Trajectory>,
    pub a_inserts: Vec<Trajectory>,
    /// One list of distinct queries per reader thread.
    pub b_queries: Vec<Vec<Trajectory>>,
    pub w_inserts: Vec<Trajectory>,
    pub parity_queries: Vec<Trajectory>,
    pub spare: Vec<Trajectory>,
    /// Database ids (= rows) the oracle covers, ascending.
    pub oracle_ids: Vec<u64>,
    pub total_generated: usize,
    pub mean_points: f64,
}

pub fn schedule(spec: &Spec, rng: &mut Rng) -> Vec<Op> {
    let mut next_strategy = 0;
    (0..spec.a_ops)
        .map(|_| {
            let r = if spec.insert_pct + spec.remove_pct == 0 {
                100
            } else {
                rng.below(100)
            };
            if r < spec.insert_pct {
                Op::Insert
            } else if r < spec.insert_pct + spec.remove_pct {
                Op::Remove(rng.next_u64())
            } else {
                next_strategy += 1;
                Op::Query(Strategy::ALL[(next_strategy - 1) % Strategy::ALL.len()])
            }
        })
        .collect()
}

pub fn generate(spec: &Spec, readers: usize, seed: u64, with_spare: bool) -> Inputs {
    let mut rng = Rng::new(seed ^ 0x7432_685f_6265_6e63);
    let schedule = schedule(spec, &mut rng);
    let a_queries = schedule
        .iter()
        .filter(|op| matches!(op, Op::Query(_)))
        .count();
    let a_inserts = schedule
        .iter()
        .filter(|op| matches!(op, Op::Insert))
        .count();
    let spare = if with_spare { spec.spare } else { 0 };
    let parity = if spec.epilogue { PARITY_QUERIES } else { 0 };
    let mut training = api::generate(
        TRAINING_SEED,
        spec.train_seeds + spec.validation + spec.corpus,
    );
    let corpus = training.split_off(spec.train_seeds + spec.validation);
    let validation = training.split_off(spec.train_seeds);
    let sizes = [
        spec.database,
        spec.truth_pool,
        spec.extra_encode,
        spec.quality_queries,
        a_queries,
        a_inserts,
        spec.b_ops * readers,
        spec.w_inserts,
        parity,
        spare,
    ];
    let total: usize = sizes.iter().sum();
    let mut pool = api::generate(seed, total);
    let points: usize = pool.iter().map(|t| t.len()).sum();
    // Split from the back so each `take` is a cheap truncation.
    let mut parts: Vec<Vec<Trajectory>> = sizes
        .iter()
        .rev()
        .map(|&n| pool.split_off(pool.len() - n))
        .collect();
    let mut take = || parts.pop().expect("one part per size");
    let database = take();
    let (truth_pool, extra_encode, quality) = (take(), take(), take());
    let (a_queries, a_inserts, b_all, w_inserts) = (take(), take(), take(), take());
    let (parity_queries, spare) = (take(), take());
    let b_queries = b_all
        .chunks(spec.b_ops.max(1))
        .map(<[Trajectory]>::to_vec)
        .collect();

    // The oracle's rows: every database row, or a seeded sample without
    // replacement (partial Fisher–Yates), ascending.
    let mut ids: Vec<u64> = (0..spec.database as u64).collect();
    let n = spec.oracle_rows.min(spec.database);
    if n < ids.len() {
        for i in 0..n {
            let j = i + rng.below(ids.len() - i);
            ids.swap(i, j);
        }
        ids.truncate(n);
        ids.sort_unstable();
    }
    Inputs {
        train_seeds: training,
        validation,
        corpus,
        database,
        truth_pool,
        extra_encode,
        quality,
        schedule,
        a_queries,
        a_inserts,
        b_queries,
        w_inserts,
        parity_queries,
        spare,
        oracle_ids: ids,
        total_generated: total,
        mean_points: points as f64 / total.max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_mix_is_respected() {
        let spec = Spec {
            a_ops: 400,
            ..Spec::named("serve_churn").unwrap().tiny()
        };
        let (a, b) = (generate(&spec, 2, 9, false), generate(&spec, 2, 9, false));
        assert_eq!(a.schedule, b.schedule);
        assert_eq!(a.a_queries, b.a_queries);
        assert_eq!(a.oracle_ids, b.oracle_ids);
        assert_ne!(a.schedule, generate(&spec, 2, 10, false).schedule);
        let inserts = a
            .schedule
            .iter()
            .filter(|op| matches!(op, Op::Insert))
            .count();
        assert_eq!(inserts, a.a_inserts.len());
        assert!(inserts * 100 / spec.a_ops >= 12 && inserts * 100 / spec.a_ops <= 28);
        assert_eq!(a.b_queries.len(), 2);
        let large = Spec::named("serve_large").unwrap().tiny();
        let sample = generate(&large, 1, 3, false).oracle_ids;
        assert_eq!(sample.len(), 60);
        assert!(sample.windows(2).all(|w| w[0] < w[1]) && sample[59] < 120);
    }
}
