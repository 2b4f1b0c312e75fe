//! Compiled mini-batch plans and their pre-execution verifier.
//!
//! The trainer compiles every mini-batch into a [`BatchPlan`] — a
//! slot-deduplicated list of trajectories plus loss terms expressed over
//! those slots — before any tensor work happens. That makes the batch an
//! *analysable artifact*: this module's [`BatchPlan::verify`] walks the
//! plan and rejects inconsistencies (out-of-range slots, duplicate slot
//! writes, non-finite supervision, a degenerate scale) with a typed
//! [`PlanIssue`] list instead of letting them surface as a panic or a
//! silently-poisoned gradient deep inside `backward`.
//!
//! The trainer runs the verifier as a debug-build hook on the first
//! batch of every epoch, before the forward passes. Every slot a plan
//! holds is named by at least one of its terms (`slot_for` interns a
//! slot only while it builds a term naming it), so the loss tape over
//! the slots' embeddings reaches every one of them; the tests pin that
//! on compiled plans.

use crate::config::TrainConfig;
use crate::loss::{rank_pairs, rank_weights, sample_companions_sparse};
use crate::trainer::TrainData;
use rand::rngs::StdRng;
use std::collections::HashMap;
use std::fmt;
use traj_data::Trajectory;
use traj_grid::Triplet;

/// One WMSE anchor's loss terms, expressed over *slots* — indices into
/// the batch's deduplicated trajectory list.
pub(crate) struct AnchorTerm {
    /// Slot of the anchor embedding.
    pub(crate) anchor: usize,
    /// `(companion slot, target similarity, rank weight)` per companion,
    /// in sampling order (Eq. 17's targets and weights, precomputed so
    /// the loss graph needs no access to the similarity matrix).
    pub(crate) companions: Vec<(usize, f64, f32)>,
    /// Ranking pairs `(positive slot, negative slot)` from Eq. 18/19.
    pub(crate) pairs: Vec<(usize, usize)>,
}

/// One loss term of a [`BatchPlan`].
pub(crate) enum LossTerm {
    /// WMSE + ranking objective for one seed anchor (`L_s + gamma L_r`).
    Anchor(AnchorTerm),
    /// One generated corpus triplet (`L_t`), as slots.
    Triplet {
        /// Anchor slot.
        a: usize,
        /// Positive slot.
        p: usize,
        /// Negative slot.
        n: usize,
    },
}

/// A mini-batch compiled to slot form: every distinct trajectory of the
/// batch appears exactly once in `trajs` (first-appearance order) and
/// the loss terms reference embeddings by slot. The trajectory list is
/// the batch's unit of parallelism — each slot is one independent
/// forward/backward — and it is fixed by the batch *content*, never by
/// the thread count, so the embedding work list and the floating-point
/// gradient reduction order are identical for every `num_threads`.
pub(crate) struct BatchPlan<'a> {
    /// Slot → trajectory, deduplicated in first-appearance order.
    pub(crate) trajs: Vec<&'a Trajectory>,
    /// Loss terms in batch order.
    pub(crate) terms: Vec<LossTerm>,
    /// Batch normalizer applied once to the summed loss.
    pub(crate) scale: f32,
}

/// One inconsistency found by [`BatchPlan::verify`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PlanIssue {
    /// The plan has no trajectories or no loss terms — nothing to train.
    Empty,
    /// A loss term references a slot outside the trajectory list.
    SlotOutOfRange {
        /// Which term.
        term: usize,
        /// The offending slot.
        slot: usize,
        /// Slot count.
        slots: usize,
    },
    /// Two slots intern the same trajectory — a duplicate slot write:
    /// the dedup invariant is broken and the fixed-order gradient
    /// reduction would double-count that trajectory's gradient.
    DuplicateSlot {
        /// First slot holding the trajectory.
        first: usize,
        /// Second slot holding the same trajectory.
        second: usize,
    },
    /// An anchor term with no companions (it would contribute no loss
    /// but still force a forward pass).
    EmptyAnchor {
        /// Which term.
        term: usize,
    },
    /// A companion target or weight is non-finite (poisoned supervision
    /// would propagate NaN into every parameter via the shared loss sum).
    NonFiniteSupervision {
        /// Which term.
        term: usize,
    },
    /// The batch scale is non-finite or non-positive.
    BadScale {
        /// The offending scale.
        scale: f32,
    },
}

impl fmt::Display for PlanIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanIssue::Empty => write!(f, "plan has no trajectories or no loss terms"),
            PlanIssue::SlotOutOfRange { term, slot, slots } => {
                write!(f, "term {term} references slot {slot} of {slots}")
            }
            PlanIssue::DuplicateSlot { first, second } => {
                write!(f, "slots {first} and {second} intern the same trajectory")
            }
            PlanIssue::EmptyAnchor { term } => {
                write!(f, "anchor term {term} has no companions")
            }
            PlanIssue::NonFiniteSupervision { term } => {
                write!(f, "term {term} carries a non-finite target or weight")
            }
            PlanIssue::BadScale { scale } => write!(f, "batch scale {scale} is not usable"),
        }
    }
}

impl BatchPlan<'_> {
    /// Statically verifies the plan; returns every issue found (empty
    /// means the plan is safe to execute).
    pub(crate) fn verify(&self) -> Vec<PlanIssue> {
        let mut issues = Vec::new();
        let slots = self.trajs.len();
        if slots == 0 || self.terms.is_empty() {
            issues.push(PlanIssue::Empty);
        }
        if !self.scale.is_finite() || self.scale <= 0.0 {
            issues.push(PlanIssue::BadScale { scale: self.scale });
        }
        // Duplicate slot writes: the interner guarantees one slot per
        // distinct trajectory, so two slots holding the same reference
        // mean the plan was assembled by hand or corrupted.
        for i in 0..slots {
            for j in (i + 1)..slots {
                if std::ptr::eq(self.trajs[i], self.trajs[j]) {
                    issues.push(PlanIssue::DuplicateSlot { first: i, second: j });
                }
            }
        }
        let check_slot = |issues: &mut Vec<PlanIssue>, term: usize, slot: usize| {
            if slot >= slots {
                issues.push(PlanIssue::SlotOutOfRange { term, slot, slots });
            }
        };
        for (t, term) in self.terms.iter().enumerate() {
            match term {
                LossTerm::Anchor(a) => {
                    check_slot(&mut issues, t, a.anchor);
                    if a.companions.is_empty() {
                        issues.push(PlanIssue::EmptyAnchor { term: t });
                    }
                    for &(slot, target, weight) in &a.companions {
                        check_slot(&mut issues, t, slot);
                        if !target.is_finite() || !weight.is_finite() {
                            issues.push(PlanIssue::NonFiniteSupervision { term: t });
                            break;
                        }
                    }
                    for &(p, n) in &a.pairs {
                        check_slot(&mut issues, t, p);
                        check_slot(&mut issues, t, n);
                    }
                }
                LossTerm::Triplet { a, p, n } => {
                    check_slot(&mut issues, t, *a);
                    check_slot(&mut issues, t, *p);
                    check_slot(&mut issues, t, *n);
                }
            }
        }
        issues
    }
}

/// Interns trajectory `idx` of `pool` into the plan's slot list.
fn slot_for<'a>(
    idx: usize,
    pool: &'a [Trajectory],
    slot_of: &mut HashMap<usize, usize>,
    trajs: &mut Vec<&'a Trajectory>,
) -> usize {
    *slot_of.entry(idx).or_insert_with(|| {
        trajs.push(&pool[idx]);
        trajs.len() - 1
    })
}

/// Compiles one WMSE/ranking batch of seed anchors into a plan. Draws
/// companion samples from `rng` in anchor order (the RNG stream is the
/// same for every thread count). Returns `None` when no anchor in the
/// batch has companions.
pub(crate) fn wmse_plan<'a>(
    data: &'a TrainData,
    cfg: &TrainConfig,
    batch: &[usize],
    rng: &mut StdRng,
) -> Option<BatchPlan<'a>> {
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    let mut trajs: Vec<&Trajectory> = Vec::new();
    let mut terms: Vec<LossTerm> = Vec::new();
    for &i in batch {
        let companions = sample_companions_sparse(i, &data.sim, cfg.samples_per_anchor, rng);
        if companions.is_empty() {
            continue;
        }
        let anchor = slot_for(i, &data.seeds, &mut slot_of, &mut trajs);
        let weights = rank_weights(companions.len());
        let comp = companions
            .iter()
            .enumerate()
            .map(|(rank, &j)| {
                (slot_for(j, &data.seeds, &mut slot_of, &mut trajs), data.sim.get(i, j), weights[rank])
            })
            .collect();
        let pairs = rank_pairs(&companions)
            .into_iter()
            .map(|(p, n)| {
                (
                    slot_for(p, &data.seeds, &mut slot_of, &mut trajs),
                    slot_for(n, &data.seeds, &mut slot_of, &mut trajs),
                )
            })
            .collect();
        terms.push(LossTerm::Anchor(AnchorTerm { anchor, companions: comp, pairs }));
    }
    if terms.is_empty() {
        return None;
    }
    Some(BatchPlan { trajs, terms, scale: 1.0 / batch.len() as f32 })
}

/// Compiles one generated-triplet batch into a plan (Eq. 20; the
/// `gamma` weight of Eq. 21 is folded into the scale).
pub(crate) fn triplet_plan<'a>(
    data: &'a TrainData,
    cfg: &TrainConfig,
    batch: &[Triplet],
) -> BatchPlan<'a> {
    let mut slot_of: HashMap<usize, usize> = HashMap::new();
    let mut trajs: Vec<&Trajectory> = Vec::new();
    let terms = batch
        .iter()
        .map(|&(a, p, n)| LossTerm::Triplet {
            a: slot_for(a, &data.corpus, &mut slot_of, &mut trajs),
            p: slot_for(p, &data.corpus, &mut slot_of, &mut trajs),
            n: slot_for(n, &data.corpus, &mut slot_of, &mut trajs),
        })
        .collect();
    BatchPlan { trajs, terms, scale: cfg.gamma / batch.len() as f32 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};
    use traj_data::{CityGenerator, CityParams, Dataset, SplitSizes};
    use traj_dist::Measure;

    fn pool(n: usize) -> Vec<Trajectory> {
        CityGenerator::new(CityParams::test_city(), 5).generate(n)
    }

    fn triplet_batch(pool: &[Trajectory]) -> BatchPlan<'_> {
        BatchPlan {
            trajs: vec![&pool[0], &pool[1], &pool[2]],
            terms: vec![LossTerm::Triplet { a: 0, p: 1, n: 2 }],
            scale: 0.5,
        }
    }

    #[test]
    fn well_formed_plans_verify_clean() {
        let pool = pool(4);
        assert!(triplet_batch(&pool).verify().is_empty());
        let anchor = BatchPlan {
            trajs: vec![&pool[0], &pool[1], &pool[2]],
            terms: vec![LossTerm::Anchor(AnchorTerm {
                anchor: 0,
                companions: vec![(1, 0.8, 1.0), (2, 0.3, 0.5)],
                pairs: vec![(1, 2)],
            })],
            scale: 1.0,
        };
        assert!(anchor.verify().is_empty());
    }

    #[test]
    fn out_of_range_slot_is_reported() {
        let pool = pool(4);
        let mut plan = triplet_batch(&pool);
        plan.terms = vec![LossTerm::Triplet { a: 0, p: 1, n: 9 }];
        assert_eq!(
            plan.verify(),
            vec![PlanIssue::SlotOutOfRange { term: 0, slot: 9, slots: 3 }]
        );
    }

    #[test]
    fn duplicate_slot_write_is_reported() {
        let pool = pool(4);
        let mut plan = triplet_batch(&pool);
        plan.trajs[2] = plan.trajs[0];
        assert_eq!(plan.verify(), vec![PlanIssue::DuplicateSlot { first: 0, second: 2 }]);
    }

    #[test]
    fn degenerate_plans_are_reported() {
        let pool = pool(4);
        let mut plan = triplet_batch(&pool);
        plan.scale = f32::NAN;
        let issues = plan.verify();
        assert_eq!(issues.len(), 1);
        assert!(matches!(issues[0], PlanIssue::BadScale { scale } if scale.is_nan()));
        let empty = BatchPlan { trajs: vec![], terms: vec![], scale: 1.0 };
        assert_eq!(empty.verify(), vec![PlanIssue::Empty]);
    }

    #[test]
    fn poisoned_supervision_is_reported() {
        let pool = pool(4);
        let plan = BatchPlan {
            trajs: vec![&pool[0], &pool[1]],
            terms: vec![LossTerm::Anchor(AnchorTerm {
                anchor: 0,
                companions: vec![(1, f64::NAN, 1.0)],
                pairs: vec![],
            })],
            scale: 1.0,
        };
        assert_eq!(plan.verify(), vec![PlanIssue::NonFiniteSupervision { term: 0 }]);
    }

    #[test]
    fn empty_anchor_is_reported() {
        let pool = pool(4);
        let plan = BatchPlan {
            trajs: vec![&pool[0]],
            terms: vec![LossTerm::Anchor(AnchorTerm {
                anchor: 0,
                companions: vec![],
                pairs: vec![],
            })],
            scale: 1.0,
        };
        assert_eq!(plan.verify(), vec![PlanIssue::EmptyAnchor { term: 0 }]);
    }

    /// Slots of `plan` that none of its terms names, so that the loss
    /// tape over the slots' embeddings would never reach them.
    fn unnamed_slots(plan: &BatchPlan<'_>) -> Vec<usize> {
        let mut named = vec![false; plan.trajs.len()];
        for term in &plan.terms {
            match term {
                LossTerm::Anchor(a) => {
                    named[a.anchor] = true;
                    for &(c, _, _) in &a.companions {
                        named[c] = true;
                    }
                    for &(p, n) in &a.pairs {
                        named[p] = true;
                        named[n] = true;
                    }
                }
                LossTerm::Triplet { a, p, n } => {
                    for &slot in [a, p, n] {
                        named[slot] = true;
                    }
                }
            }
        }
        (0..named.len()).filter(|&slot| !named[slot]).collect()
    }

    #[test]
    fn every_slot_of_a_compiled_plan_is_named_by_a_term() {
        let pool = pool(4);
        let mut orphan = triplet_batch(&pool);
        orphan.trajs.push(&pool[3]);
        assert_eq!(unnamed_slots(&orphan), vec![3], "the helper must see an orphan slot");

        let mut dataset = Dataset::generate(
            CityParams::test_city(),
            SplitSizes { seeds: 16, validation: 24, corpus: 120, query: 5, database: 40 },
            21,
        );
        // Equal trajectories under two indices: two slots, one content.
        dataset.seeds.push(dataset.seeds[0].clone());
        dataset.corpus.push(dataset.corpus[0].clone());
        let cfg = TrainConfig { batch_size: 6, ..TrainConfig::tiny() };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &cfg).unwrap();
        let (n_seeds, n_corpus) = (data.seeds.len(), data.corpus.len());
        let check = |plan: &BatchPlan<'_>, what: &str| {
            assert!(plan.verify().is_empty(), "{what}: {:?}", plan.verify());
            assert_eq!(unnamed_slots(plan), Vec::<usize>::new(), "{what}");
        };
        let mut plans = 0;
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut anchors: Vec<usize> = (0..n_seeds).collect();
            for i in (1..anchors.len()).rev() {
                anchors.swap(i, rng.random_range(0..=i));
            }
            // The same anchor twice, and both copies of seed 0.
            let repeated = [anchors[0], anchors[0], 0, n_seeds - 1];
            for batch in anchors.chunks(cfg.batch_size).chain([&repeated[..]]) {
                if let Some(plan) = wmse_plan(&data, &cfg, batch, &mut rng) {
                    check(&plan, &format!("wmse seed {seed} batch {batch:?}"));
                    plans += 1;
                }
            }
            let start = usize::try_from(seed).unwrap() * cfg.triplet_batch;
            let window: Vec<Triplet> =
                data.triplets.iter().cycle().skip(start).take(cfg.triplet_batch).copied().collect();
            check(&triplet_plan(&data, &cfg, &window), &format!("triplets from {start}"));
        }
        let repeated = [(0, 1, 2), (0, 1, 2), (2, 2, 0), (0, n_corpus - 1, 0)];
        check(&triplet_plan(&data, &cfg, &repeated), "repeated triplets");
        assert!(plans >= 12, "only {plans} WMSE plans compiled");
    }
}
