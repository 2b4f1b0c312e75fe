//! End-to-end training of Traj2Hash (Section IV-F): WMSE on the seed
//! distance matrix + ranking-based hashing objective + generated-triplet
//! objective, combined as `L = L_s + gamma * (L_r + L_t)` (Eq. 21),
//! optimized with Adam under the HashNet `tanh(beta x)` continuation.
//!
//! The trainer is fault-tolerant: its state of record is one
//! [`Checkpoint`] holding the last accepted epoch's full optimizer
//! state, a divergence guard rolls back to it and halves the learning
//! rate when an epoch loss goes non-finite or spikes (the
//! `tanh(beta x)` continuation sharpens gradients every epoch, which is
//! exactly where late-training blow-ups live), and the same state is
//! written to a checksummed on-disk checkpoint (see
//! [`crate::checkpoint`]) and resumed with `TrainConfig::resume`.

use crate::checkpoint::{Checkpoint, RecoveryEvent, RecoveryKind};
use crate::config::TrainConfig;
use crate::error::TrainError;
use crate::loss::{approx_similarity, ranking_hash_loss, wmse_term};
use crate::model::Traj2Hash;
use crate::plan::{triplet_plan, wmse_plan, BatchPlan, LossTerm};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::Range;
use std::sync::mpsc;
use tinynn::{clip_grad_norm, verify_tape, Adam, Param, Tape, Tensor, Var};
use traj_data::{Dataset, Trajectory};
use traj_dist::{
    auto_theta_sparse, pruned_self_top_k, sparse_similarity, Measure, PrunedTopK, SparseDistances,
    SparseSimilarity,
};
use traj_grid::{generate_triplets, GridSpec, Triplet};

/// Supervision assembled once before training.
pub struct TrainData {
    /// Seed trajectories.
    pub seeds: Vec<Trajectory>,
    /// Sparse similarity supervision `S` over the seeds (Eq. 17's
    /// targets): each anchor's `supervision_k` nearest pairs stored
    /// exactly, everything else upper-bounded by the row's pruning floor.
    pub sim: SparseSimilarity,
    /// The exact distances the pruned self-join computed and kept
    /// (diagnostics; the diagonal is implicit zero).
    pub dist: SparseDistances,
    /// Unlabelled corpus used by the fast triplet generation.
    pub corpus: Vec<Trajectory>,
    /// Generated `(anchor, positive, negative)` corpus triplets.
    pub triplets: Vec<Triplet>,
    /// Validation trajectories.
    pub validation: Vec<Trajectory>,
    /// Indices of validation trajectories used as queries.
    pub val_queries: Vec<usize>,
    /// Exact top-10 neighbours of each validation query within the
    /// validation set (ground truth for model selection).
    pub val_truth: Vec<Vec<usize>>,
}

impl TrainData {
    /// Computes all supervision via the bucket-pruned sparse pipeline:
    /// the pruned exact self-join over the seeds (each anchor keeps its
    /// `supervision_k` nearest distances; see `traj_dist::sparse` for
    /// the exactness argument), its sparse similarity transform, the
    /// coarse-grid triplets, and the validation ground truth through the
    /// same pruned driver. Nothing here is O(seeds²) unless the corpus
    /// is so small that nothing prunes — in which case the supervision
    /// is bit-identical to the dense matrices it replaced.
    ///
    /// Returns [`TrainError::EmptyCorpus`] when the dataset has no
    /// corpus trajectories to generate triplets from,
    /// [`TrainError::TooFewSeeds`] when the similarity supervision
    /// would be degenerate, and [`TrainError::Supervision`] when the
    /// pruned sweep itself fails.
    pub fn prepare(
        dataset: &Dataset,
        measure: Measure,
        cfg: &TrainConfig,
    ) -> Result<TrainData, TrainError> {
        cfg.validate()?;
        if dataset.seeds.len() < 2 {
            return Err(TrainError::TooFewSeeds { got: dataset.seeds.len() });
        }
        let sup_cfg = PrunedTopK::new(cfg.supervision_k)
            .with_cell_m(cfg.coarse_cell_m)
            .keeping_distances();
        let sup = pruned_self_top_k(&dataset.seeds, measure, &sup_cfg)?;
        let dist = sup
            .distances
            .expect("keeping_distances() guarantees the sweep retains its distances");
        let theta = auto_theta_sparse(&dist, cfg.theta_target);
        let sim = sparse_similarity(&dist, theta);

        let bbox = traj_data::BoundingBox::of_dataset(&dataset.corpus)
            .ok_or(TrainError::EmptyCorpus)?;
        let coarse = GridSpec::new(bbox, cfg.coarse_cell_m);
        let triplets = generate_triplets(&dataset.corpus, &coarse, 20_000, cfg.seed);

        let n_queries = dataset.validation.len().min(40);
        let val_queries: Vec<usize> = (0..n_queries).collect();
        let val_cfg = PrunedTopK::new(10).with_cell_m(cfg.coarse_cell_m);
        let mut val_top = pruned_self_top_k(&dataset.validation, measure, &val_cfg)?.top_k;
        val_top.truncate(n_queries);
        let val_truth = val_top;

        Ok(TrainData {
            seeds: dataset.seeds.clone(),
            sim,
            dist,
            corpus: dataset.corpus.clone(),
            triplets,
            validation: dataset.validation.clone(),
            val_queries,
            val_truth,
        })
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean combined loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Validation HR@10 per epoch (empty when validation is disabled).
    pub val_hr10: Vec<f64>,
    /// Epoch whose parameters were kept.
    pub best_epoch: usize,
    /// Best validation HR@10, when validation ran.
    pub best_val: Option<f64>,
    /// Number of generated triplets available.
    pub triplet_count: usize,
    /// Total wall-clock seconds.
    pub seconds: f64,
    /// Every divergence rollback the guard performed.
    pub recoveries: Vec<RecoveryEvent>,
    /// Epoch training continued from, when a checkpoint was resumed.
    pub resumed_from_epoch: Option<usize>,
    /// Learning rate at the end of training (lower than configured when
    /// divergence backoffs fired).
    pub final_lr: f32,
    /// Worker threads actually used for batch gradients and validation
    /// encoding (the resolution of `TrainConfig::num_threads`).
    pub threads_used: usize,
    /// Where the wall-clock went, phase by phase.
    pub timings: TrainTimings,
}

/// Wall-clock breakdown of a training run. This is the single source of
/// truth the bench binaries read — the same numbers the obs layer
/// exports when a recorder is installed.
#[derive(Debug, Clone, Default)]
pub struct TrainTimings {
    /// Seconds spent in each *accepted* epoch (index-aligned with
    /// `TrainReport::epoch_losses`; excludes validation).
    pub epoch_seconds: Vec<f64>,
    /// Total seconds encoding + scoring the validation set.
    pub validation_seconds: f64,
    /// Total seconds writing checkpoints.
    pub checkpoint_seconds: f64,
    /// Seconds burnt in epoch attempts the divergence guard discarded.
    pub rolled_back_seconds: f64,
    /// Total optimizer batches run (accepted epochs only).
    pub batches: usize,
}

/// Optional instrumentation hooks for a training run. Used by the
/// fault-injection tests to perturb the observed epoch loss and so
/// exercise the divergence guard; production callers leave this empty.
#[derive(Default)]
pub struct TrainHooks<'a> {
    /// Maps `(epoch, mean_epoch_loss)` to the loss value the divergence
    /// guard should see. Identity when absent.
    #[allow(clippy::type_complexity)]
    pub on_epoch_loss: Option<Box<dyn FnMut(usize, f32) -> f32 + 'a>>,
}

impl<'a> TrainHooks<'a> {
    /// Hooks that observe/transform the per-epoch loss.
    pub fn with_loss_hook(f: impl FnMut(usize, f32) -> f32 + 'a) -> Self {
        TrainHooks { on_epoch_loss: Some(Box::new(f)) }
    }
}

/// Validation HR@10 in Euclidean space over the prepared validation set.
pub fn validation_hr10(model: &Traj2Hash, data: &TrainData) -> f64 {
    validation_hr10_with_threads(model, data, 1)
}

/// [`validation_hr10`] with the validation set encoded across `threads`
/// worker threads. Bit-identical to the single-threaded path (each
/// embedding is an independent forward pass).
pub fn validation_hr10_with_threads(model: &Traj2Hash, data: &TrainData, threads: usize) -> f64 {
    let embeddings = model.embed_all_with_threads(&data.validation, threads);
    let mut hits = 0usize;
    let mut total = 0usize;
    for (qi, &q) in data.val_queries.iter().enumerate() {
        let qe = &embeddings[q];
        let d2 = |e: &[f32]| -> f32 { qe.iter().zip(e).map(|(&x, &y)| (x - y) * (x - y)).sum() };
        let mut order: Vec<(f32, usize)> = (0..data.validation.len())
            .filter(|&j| j != q)
            .map(|j| (d2(&embeddings[j]), j))
            .collect();
        // total_cmp: a poisoned (NaN) embedding distance sorts last
        // instead of anywhere the comparator happens to leave it.
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let predicted = &order[..10.min(order.len())];
        let truth = &data.val_truth[qi];
        hits += predicted.iter().filter(|(_, p)| truth.contains(p)).count();
        total += truth.len();
    }
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Per-epoch RNG: deterministic given the config seed and epoch index,
/// so a resumed run and an epoch retry draw the same samples an
/// uninterrupted run would have.
fn epoch_rng(seed: u64, epoch: usize) -> StdRng {
    StdRng::seed_from_u64(seed ^ (epoch as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Builds the batch loss on `tape` over the *detached* embedding proxies
/// (one [`Param`] per slot, holding that trajectory's embedding value).
/// The graph contains no model parameters — `hash_of`, the approximate
/// similarity, and the hinge terms are all parameter-free functions of
/// the embeddings — so `loss.backward()` deposits exactly the upstream
/// gradient of each embedding into its proxy's `grad`.
fn batch_loss(
    model: &Traj2Hash,
    tape: &Tape,
    cfg: &TrainConfig,
    plan: &BatchPlan<'_>,
    proxies: &[Param],
) -> Var {
    let evars: Vec<Var> = proxies.iter().map(|p| tape.param(p)).collect();
    let mut loss: Option<Var> = None;
    let mut add = |term: Var| {
        loss = Some(match loss.take() {
            None => term,
            Some(a) => a.add(&term),
        });
    };
    for term in &plan.terms {
        match term {
            LossTerm::Anchor(t) => {
                let e_i = &evars[t.anchor];
                for &(j, s, w) in &t.companions {
                    let g = approx_similarity(e_i, &evars[j]);
                    add(wmse_term(tape, &g, s, w));
                }
                // ranking hash objective on the same samples (Eq. 18/19)
                let z_i = model.hash_of(e_i);
                for &(p, n) in &t.pairs {
                    let z_p = model.hash_of(&evars[p]);
                    let z_n = model.hash_of(&evars[n]);
                    add(ranking_hash_loss(&z_i, &z_p, &z_n, cfg.alpha).scale(cfg.gamma));
                }
            }
            LossTerm::Triplet { a, p, n } => {
                let z_a = model.hash_of(&evars[*a]);
                let z_p = model.hash_of(&evars[*p]);
                let z_n = model.hash_of(&evars[*n]);
                add(ranking_hash_loss(&z_a, &z_p, &z_n, cfg.alpha));
            }
        }
    }
    loss.expect("batch plan with no loss terms").scale(plan.scale)
}

/// Runs one mini-batch: forward each distinct trajectory once on its own
/// tape, build the (parameter-free) loss graph over the embedding values
/// on the calling thread, hand each embedding its upstream gradient via
/// [`Var::backward_with`], reduce the per-trajectory parameter gradients
/// **in slot order**, clip, and take one optimizer step. Returns the
/// batch loss.
///
/// Slots are split into contiguous chunks, one per thread. The calling
/// thread runs the first chunk on `model` itself; `threads - 1` scoped
/// workers each rebuild a read-only replica from the model spec + value
/// snapshot (the `Rc`-based tape never crosses a thread), keep their
/// tapes alive across the values → upstream-gradients barrier, and hand
/// back per-slot gradients through `join`. Every slot's arithmetic is
/// the same whichever thread runs it, and the reduction order is fixed,
/// so every `num_threads` agrees bit-for-bit. At one thread nothing is
/// spawned and no replica is built.
///
/// With `verify` set (the trainer's debug-build hook), the compiled
/// plan and the recorded loss tape are statically verified *before*
/// `backward` runs; an inconsistent graph surfaces as
/// [`TrainError::InvalidGraph`] instead of a panic mid-epoch or a
/// silently wrong gradient.
fn run_batch(
    model: &Traj2Hash,
    cfg: &TrainConfig,
    opt: &mut Adam,
    plan: &BatchPlan<'_>,
    threads: usize,
    verify: bool,
) -> Result<f32, TrainError> {
    let n = plan.trajs.len();
    assert!(n > 0, "run_batch needs at least one trajectory");
    // Clock reads only when a recorder is installed: the disabled path
    // through this hot loop is a single relaxed atomic load.
    let obs_t0 = traj_obs::enabled().then(std::time::Instant::now);
    if verify {
        let issues = plan.verify();
        if !issues.is_empty() {
            let text: Vec<String> = issues.iter().map(|i| i.to_string()).collect();
            return Err(TrainError::InvalidGraph(format!(
                "batch plan failed verification: {}",
                text.join("; ")
            )));
        }
    }
    let chunk = n.div_ceil(threads.clamp(1, n));
    // Only workers read the snapshot, so one thread takes none.
    let shared = (chunk < n).then(|| (model.spec(), model.params.clone_values()));

    let (item, per_slot) = std::thread::scope(|scope| -> Result<_, TrainError> {
        let (val_tx, val_rx) = mpsc::channel::<(usize, Vec<Tensor>)>();
        let mut grad_txs: Vec<(Range<usize>, mpsc::Sender<Vec<Tensor>>)> = Vec::new();
        let mut workers = Vec::new();
        for start in (chunk..n).step_by(chunk) {
            let slots = start..(start + chunk).min(n);
            let my_trajs = &plan.trajs[slots.clone()];
            let (spec, values) = shared.as_ref().expect("workers imply a snapshot");
            let val_tx = val_tx.clone();
            let (grad_tx, grad_rx) = mpsc::channel::<Vec<Tensor>>();
            grad_txs.push((slots, grad_tx));
            workers.push(scope.spawn(move || {
                let replica = Traj2Hash::from_spec(spec, values);
                let forwards = embed_chunk(&replica, my_trajs);
                let vals = forwards.iter().map(|(_, v)| v.value()).collect();
                val_tx.send((start, vals)).expect("embedding value channel closed");
                // Barrier: the upstream gradients only exist once the
                // calling thread has run the loss graph.
                let Ok(upstream) = grad_rx.recv() else { return Vec::new() };
                slot_grads(&replica, &forwards, upstream)
            }));
        }
        drop(val_tx);

        let own = embed_chunk(model, &plan.trajs[..chunk.min(n)]);
        let mut vals: Vec<Option<Tensor>> = own.iter().map(|(_, v)| Some(v.value())).collect();
        vals.resize_with(n, || None);
        // One message per worker: each keeps its sender past the
        // barrier, so the channel never closes on its own.
        for _ in 0..workers.len() {
            let (start, chunk_vals) = val_rx.recv().expect("embedding worker died");
            for (off, v) in chunk_vals.into_iter().enumerate() {
                vals[start + off] = Some(v);
            }
        }
        let proxies: Vec<Param> = vals
            .into_iter()
            .map(|v| Param::new(v.expect("worker delivered no embedding for a slot")))
            .collect();
        let loss_tape = Tape::new();
        let loss = batch_loss(model, &loss_tape, cfg, plan, &proxies);
        if verify {
            let report = verify_tape(&loss_tape, &loss);
            if !report.is_ok() {
                // Early return drops `grad_txs`; workers observe the
                // closed channel and exit cleanly before backward.
                return Err(TrainError::InvalidGraph(format!(
                    "loss tape failed verification: {report}"
                )));
            }
        }
        let item = loss.item();
        loss.backward();
        let upstream = |slots: Range<usize>| -> Vec<Tensor> {
            slots.map(|k| proxies[k].borrow().grad.clone()).collect()
        };
        for (slots, tx) in grad_txs {
            tx.send(upstream(slots)).expect("gradient channel closed");
        }
        let mut per_slot = slot_grads(model, &own, upstream(0..own.len()));
        // Workers hold contiguous ascending chunks, so joining in spawn
        // order yields slot order. `join` also waits for each thread
        // itself, not only its closure, so its allocator arena is free
        // again before the next batch spawns. Otherwise a worker still
        // exiting sends its successor to a fresh arena, which grows to a
        // batch of tapes and stays: 65 MiB more peak RSS, in some runs
        // and not in others.
        for w in workers {
            per_slot.extend(w.join().expect("gradient worker died"));
        }
        Ok((item, per_slot))
    })?;

    // Fixed-order reduction: slot 0 seeds the accumulator and slots
    // 1..n add in index order.
    let mut slots = per_slot.into_iter();
    let mut acc = slots.next().expect("batch reduced to no gradients");
    for g in slots {
        for (t, s) in acc.iter_mut().zip(&g) {
            t.add_assign(s);
        }
    }
    model.params.load_grads(acc);
    clip_grad_norm(&model.params, cfg.clip_norm);
    opt.step(&model.params);
    if let Some(t0) = obs_t0 {
        traj_obs::observe_secs("train.batch_secs", t0.elapsed().as_secs_f64());
        traj_obs::observe_value("train.batch_slots", n as f64);
        traj_obs::counter("train.batches", 1);
    }
    Ok(item)
}

/// Records one tape per trajectory of a chunk on `model`.
fn embed_chunk(model: &Traj2Hash, trajs: &[&Trajectory]) -> Vec<(Tape, Var)> {
    trajs
        .iter()
        .map(|t| {
            let tape = Tape::new();
            let v = model.embed_var(&tape, t);
            (tape, v)
        })
        .collect()
}

/// Back-propagates each slot's upstream gradient through its own tape
/// and harvests that slot's parameter gradients from `model`.
fn slot_grads(
    model: &Traj2Hash,
    forwards: &[(Tape, Var)],
    upstream: Vec<Tensor>,
) -> Vec<Vec<Tensor>> {
    forwards
        .iter()
        .zip(upstream)
        .map(|((_tape, v), g)| {
            model.params.zero_grad();
            v.backward_with(g);
            model.params.take_grads()
        })
        .collect()
}

/// Runs one epoch of the combined objective; returns the mean batch
/// loss and advances the triplet cursor. All companion/shuffle sampling
/// happens here on the calling thread, in the same order regardless of
/// `threads`, so the RNG stream is thread-count independent.
///
/// In debug builds the first batch of the epoch goes through the static
/// verifiers (plan + recorded loss tape) before any backward pass — a
/// regression in batch compilation or tape recording fails fast with a
/// typed [`TrainError::InvalidGraph`] rather than a mid-epoch panic.
/// Release builds skip the check entirely.
fn run_epoch(
    model: &Traj2Hash,
    data: &TrainData,
    cfg: &TrainConfig,
    opt: &mut Adam,
    rng: &mut StdRng,
    triplet_cursor: &mut usize,
    threads: usize,
) -> Result<EpochStats, TrainError> {
    let n_seeds = data.seeds.len();
    let mut anchor_loss = 0.0f32;
    let mut anchor_batches = 0usize;
    let mut triplet_loss = 0.0f32;
    let mut triplet_batches = 0usize;
    let mut batches = 0usize;
    let debug_verify = cfg!(debug_assertions);

    // ---- WMSE + ranking objective over seed anchors (L_s + g L_r) --
    let mut anchors: Vec<usize> = (0..n_seeds).collect();
    for i in (1..anchors.len()).rev() {
        let j = rng.random_range(0..=i);
        anchors.swap(i, j);
    }
    for batch in anchors.chunks(cfg.batch_size) {
        let Some(plan) = wmse_plan(data, cfg, batch, rng) else { continue };
        anchor_loss += run_batch(model, cfg, opt, &plan, threads, debug_verify && batches == 0)?;
        anchor_batches += 1;
        batches += 1;
    }

    // ---- generated-triplet objective (L_t), Eq. 20 ------------------
    if cfg.use_triplets && !data.triplets.is_empty() {
        let mut used = 0usize;
        while used < cfg.triplets_per_epoch {
            let take = cfg.triplet_batch.min(cfg.triplets_per_epoch - used);
            let batch_triplets: Vec<Triplet> = (0..take)
                .map(|_| {
                    let t = data.triplets[*triplet_cursor % data.triplets.len()];
                    *triplet_cursor += 1;
                    t
                })
                .collect();
            used += take;
            let plan = triplet_plan(data, cfg, &batch_triplets);
            triplet_loss += run_batch(model, cfg, opt, &plan, threads, debug_verify && batches == 0)?;
            triplet_batches += 1;
            batches += 1;
        }
    }

    Ok(EpochStats {
        mean_loss: if batches > 0 { (anchor_loss + triplet_loss) / batches as f32 } else { 0.0 },
        anchor_loss: if anchor_batches > 0 { anchor_loss / anchor_batches as f32 } else { 0.0 },
        triplet_loss: if triplet_batches > 0 { triplet_loss / triplet_batches as f32 } else { 0.0 },
        batches,
    })
}

/// What [`run_epoch`] measured: the combined mean the guard inspects
/// plus the per-objective decomposition the epoch span exports.
struct EpochStats {
    /// Mean combined loss over all batches (the number the divergence
    /// guard and `TrainReport::epoch_losses` see).
    mean_loss: f32,
    /// Mean over the seed-anchor batches (`L_s + gamma L_r`).
    anchor_loss: f32,
    /// Mean over the generated-triplet batches (`gamma L_t`).
    triplet_loss: f32,
    /// Optimizer batches run this epoch.
    batches: usize,
}

/// Divergence guard: an epoch loss above this many times the last
/// accepted epoch's loss triggers a rollback (non-finite losses always
/// do).
const DIVERGENCE_FACTOR: f32 = 4.0;
/// Rollbacks of a single epoch before training gives up with
/// [`TrainError::Diverged`].
const MAX_ROLLBACKS: usize = 3;
/// Multiplier applied to the learning rate on each rollback.
const LR_BACKOFF: f32 = 0.5;

/// Trains the model in place and returns a report.
///
/// Equivalent to [`train_with_hooks`] with no hooks installed.
pub fn train(
    model: &mut Traj2Hash,
    data: &TrainData,
    cfg: &TrainConfig,
) -> Result<TrainReport, TrainError> {
    train_with_hooks(model, data, cfg, TrainHooks::default())
}

/// Loads `state`'s parameters, Adam moments, step counter and learning
/// rate: a resume and a rollback are the same operation.
fn restore(model: &Traj2Hash, opt: &mut Adam, state: &Checkpoint) -> Result<(), TrainError> {
    model
        .params
        .load_state_bytes(&state.params_state)
        .map_err(TrainError::IncompatibleCheckpoint)?;
    opt.lr = state.lr;
    opt.set_steps(state.adam_steps);
    Ok(())
}

/// Trains the model in place with instrumentation hooks.
///
/// The trainer's state of record is one [`Checkpoint`]: the last
/// accepted epoch. Fault tolerance, in order of engagement:
/// 1. `cfg.validate()` rejects bad hyper-parameters up front.
/// 2. With `cfg.resume` and an existing checkpoint at
///    `cfg.checkpoint_path`, that checkpoint becomes the state and is
///    restored — parameters, optimizer moments, scheduler position,
///    learning rate and history — and training continues.
/// 3. After every epoch, the divergence guard inspects the mean loss
///    (as transformed by the hook, if any): a non-finite value or a
///    spike beyond `DIVERGENCE_FACTOR` (4) times the last accepted
///    epoch loss appends a [`RecoveryEvent`] to the state, multiplies
///    its learning rate by `LR_BACKOFF` (0.5), restores it and retries
///    the epoch — at most `MAX_ROLLBACKS` (3) times before giving up
///    with [`TrainError::Diverged`].
/// 4. An accepted epoch updates the state and, when
///    `cfg.checkpoint_path` is set, writes it there atomically.
pub fn train_with_hooks(
    model: &mut Traj2Hash,
    data: &TrainData,
    cfg: &TrainConfig,
    mut hooks: TrainHooks<'_>,
) -> Result<TrainReport, TrainError> {
    cfg.validate()?;
    let start = std::time::Instant::now();
    let threads = cfg.resolved_threads();
    let n_seeds = data.seeds.len();
    if n_seeds < 2 {
        return Err(TrainError::TooFewSeeds { got: n_seeds });
    }

    let mut opt = Adam::new(cfg.lr);
    let resume_path = cfg.checkpoint_path.as_ref().filter(|p| cfg.resume && p.exists());
    let mut state = match resume_path {
        Some(path) => {
            let state = Checkpoint::read_from_file(path)?;
            restore(model, &mut opt, &state)?;
            state
        }
        None => Checkpoint {
            epoch: 0,
            adam_steps: opt.steps(),
            triplet_cursor: 0,
            lr: cfg.lr,
            best_epoch: 0,
            best_val: None,
            params_state: model.params.save_state_bytes(),
            best_params: model.save_bytes(),
            epoch_losses: Vec::with_capacity(cfg.epochs),
            val_hr10: Vec::new(),
            recoveries: Vec::new(),
        },
    };
    let resumed_from_epoch = resume_path.map(|_| state.epoch);

    let mut timings = TrainTimings::default();
    let _train_span = traj_obs::span("train")
        .field("epochs", cfg.epochs)
        .field("threads", threads)
        .field("seeds", n_seeds);
    let mut retries_this_epoch = 0usize;
    while state.epoch < cfg.epochs {
        let epoch = state.epoch;
        // HashNet continuation: increase beta each epoch so tanh(beta x)
        // approaches sign(x).
        model.beta = cfg.beta0 + cfg.beta_step * epoch as f32;
        let mut rng = epoch_rng(cfg.seed, epoch);
        let mut cursor = state.triplet_cursor;
        let mut ep_span =
            traj_obs::span("epoch").field("epoch", epoch).field("beta", model.beta);
        let ep_start = std::time::Instant::now();
        let stats = run_epoch(model, data, cfg, &mut opt, &mut rng, &mut cursor, threads)?;
        let ep_secs = ep_start.elapsed().as_secs_f64();
        let raw_loss = stats.mean_loss;
        let loss = match hooks.on_epoch_loss.as_mut() {
            Some(h) => h(epoch, raw_loss),
            None => raw_loss,
        };
        ep_span.add_field("loss", loss);
        ep_span.add_field("loss_anchors", stats.anchor_loss);
        ep_span.add_field("loss_triplets", stats.triplet_loss);
        ep_span.add_field("lr", opt.lr);

        // ---- divergence guard ---------------------------------------
        // Accepted losses are finite, so the last one is the reference.
        let spiked = match state.epoch_losses.last() {
            Some(g) => loss.is_finite() && loss > DIVERGENCE_FACTOR * g.abs().max(1e-6),
            None => false,
        };
        if !loss.is_finite() || spiked {
            retries_this_epoch += 1;
            if retries_this_epoch > MAX_ROLLBACKS {
                return Err(TrainError::Diverged { epoch, loss, retries: MAX_ROLLBACKS });
            }
            let lr_before = state.lr;
            state.lr *= LR_BACKOFF;
            let kind = if loss.is_finite() {
                RecoveryKind::LossSpike
            } else {
                RecoveryKind::NonFiniteLoss
            };
            state.recoveries.push(RecoveryEvent {
                epoch,
                kind,
                loss,
                restored_epoch: epoch,
                lr_after: state.lr,
            });
            traj_obs::counter("train.rollbacks", 1);
            traj_obs::event(
                "train.rollback",
                &[
                    ("epoch", epoch.into()),
                    ("kind", kind.to_string().into()),
                    ("loss", loss.into()),
                    ("restored_epoch", epoch.into()),
                    ("lr_after", state.lr.into()),
                ],
            );
            traj_obs::event(
                "train.lr_backoff",
                &[("epoch", epoch.into()), ("lr_before", lr_before.into()), ("lr_after", state.lr.into())],
            );
            ep_span.add_field("rolled_back", true);
            timings.rolled_back_seconds += ep_secs;
            // Retry the same epoch with the reduced learning rate.
            restore(model, &mut opt, &state)?;
            continue;
        }
        retries_this_epoch = 0;

        state.epoch_losses.push(loss);
        timings.epoch_seconds.push(ep_secs);
        timings.batches += stats.batches;

        // ---- model selection on validation HR@10 --------------------
        if cfg.validate {
            let val_start = std::time::Instant::now();
            let hr = validation_hr10_with_threads(model, data, threads);
            let val_secs = val_start.elapsed().as_secs_f64();
            timings.validation_seconds += val_secs;
            traj_obs::gauge("train.val_hr10", hr);
            traj_obs::observe_secs("train.validation_secs", val_secs);
            ep_span.add_field("val_hr10", hr);
            state.val_hr10.push(hr);
            if state.best_val.is_none_or(|b| hr > b) {
                state.best_epoch = epoch;
                state.best_val = Some(hr);
                state.best_params = model.save_bytes();
            }
        }

        state.epoch = epoch + 1;
        state.adam_steps = opt.steps();
        state.triplet_cursor = cursor;
        state.params_state = model.params.save_state_bytes();
        if let Some(path) = &cfg.checkpoint_path {
            let t0 = std::time::Instant::now();
            state.write_to_file(path)?;
            timings.checkpoint_seconds += t0.elapsed().as_secs_f64();
        }
    }

    // "Restore best" is explicit: only when validation actually
    // produced a best score (no `f64::MIN` sentinel).
    if cfg.validate && state.best_val.is_some() {
        model
            .load_bytes(&state.best_params)
            .map_err(TrainError::IncompatibleCheckpoint)?;
    }

    Ok(TrainReport {
        epoch_losses: state.epoch_losses,
        val_hr10: state.val_hr10,
        best_epoch: state.best_epoch,
        best_val: state.best_val,
        triplet_count: data.triplets.len(),
        seconds: start.elapsed().as_secs_f64(),
        recoveries: state.recoveries,
        resumed_from_epoch,
        final_lr: state.lr,
        threads_used: threads,
        timings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, TrainConfig};
    use crate::model::ModelContext;
    use traj_data::{CityParams, SplitSizes};

    fn tiny_dataset() -> Dataset {
        Dataset::generate(
            CityParams::test_city(),
            SplitSizes { seeds: 16, validation: 24, corpus: 120, query: 5, database: 40 },
            21,
        )
    }

    #[test]
    fn training_reduces_loss_and_improves_hr() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig {
            epochs: 4,
            validate: true,
            triplets_per_epoch: 32,
            triplet_batch: 16,
            ..TrainConfig::default()
        };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        let hr_before = validation_hr10(&model, &data);
        let report = train(&mut model, &data, &tcfg).unwrap();
        assert_eq!(report.epoch_losses.len(), 4);
        assert!(
            report.epoch_losses.last().unwrap() < report.epoch_losses.first().unwrap(),
            "loss did not decrease: {:?}",
            report.epoch_losses
        );
        let hr_after = validation_hr10(&model, &data);
        // Recorded at c2d81b1, whose ranking evaluated both distances
        // inside every comparator call: the ranking is the same one.
        assert_eq!((hr_before, hr_after), (0.7583333333333333, 0.8041666666666667));
        assert_eq!(report.val_hr10, [0.7625, 0.7708333333333334, 0.775, 0.8041666666666667]);
        assert!(
            hr_after >= hr_before,
            "training should not hurt validation HR@10 ({hr_before} -> {hr_after})"
        );
        assert!(report.recoveries.is_empty(), "healthy run must not roll back");
        assert_eq!(report.best_val, report.val_hr10.iter().copied().reduce(f64::max));
    }

    #[test]
    fn training_is_bit_identical_across_thread_counts() {
        // The tentpole guarantee: the shard partition and the gradient
        // reduction order depend only on the batch content, so the same
        // seed must yield the same losses and the same final parameters
        // EXACTLY, whether the shards ran on 1 thread or 4.
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let base = TrainConfig {
            epochs: 2,
            validate: true,
            triplets_per_epoch: 32,
            triplet_batch: 16,
            ..TrainConfig::default()
        };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &base).unwrap();
        let run = |threads: usize| {
            let mut model = Traj2Hash::new(ModelConfig::tiny(), &ctx, 2);
            let cfg = TrainConfig { num_threads: threads, ..base.clone() };
            let report = train(&mut model, &data, &cfg).unwrap();
            (report, model.params.clone_values())
        };
        let (r1, p1) = run(1);
        assert_eq!(r1.threads_used, 1);
        // 2 and 3 give uneven chunks (the calling thread's chunk is one
        // of them); 64 exceeds every batch's slot count (at most 16
        // seeds or 48 triplet trajectories) and is clamped per batch.
        for threads in [2, 3, 4, 64] {
            let (r, p) = run(threads);
            assert_eq!(r.threads_used, threads);
            assert_eq!(r1.epoch_losses, r.epoch_losses, "epoch losses differ at {threads}");
            assert_eq!(r1.val_hr10, r.val_hr10, "validation scores differ at {threads}");
            assert_eq!(p1.len(), p.len());
            for (a, b) in p1.iter().zip(&p) {
                assert_eq!(a.data(), b.data(), "final parameters differ at {threads}");
            }
        }
    }

    #[test]
    fn parallel_corpus_encoding_matches_serial() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let model = Traj2Hash::new(mcfg, &ctx, 2);
        let serial = model.embed_all(&dataset.corpus);
        let parallel = model.embed_all_with_threads(&dataset.corpus, 4);
        assert_eq!(serial, parallel, "threaded encoding must be bit-identical");
    }

    #[test]
    fn train_data_prepare_produces_consistent_supervision() {
        let dataset = tiny_dataset();
        let tcfg = TrainConfig::tiny();
        let data = TrainData::prepare(&dataset, Measure::Dtw, &tcfg).unwrap();
        let n = dataset.seeds.len();
        assert_eq!(data.sim.n(), n);
        // similarity diagonal is implicit 1, distances diagonal is unstored
        for i in 0..n {
            assert!((data.sim.get(i, i) - 1.0).abs() < 1e-9);
            assert_eq!(data.dist.get(i, i), None);
        }
        // supervision_k >= seeds - 1 on the tiny corpus: every
        // off-diagonal pair is stored exactly
        assert!(tcfg.supervision_k >= n - 1);
        assert_eq!(data.dist.nnz(), n * (n - 1));
        assert_eq!(data.val_truth.len(), data.val_queries.len());
        for t in &data.val_truth {
            assert_eq!(t.len(), 10);
        }
    }

    #[test]
    fn sparse_supervision_is_dense_equivalent_on_tiny_corpora() {
        // With supervision_k >= seeds - 1 nothing prunes, so theta, every
        // similarity, and the validation ground truth must be exactly
        // what the dense O(n^2) pipeline gives: every distance (upper
        // triangle, mirrored), theta from their median, similarity
        // exp(-theta * d) (its normaliser, the diagonal's exp(0), is 1).
        let dense = |trajs: &[Trajectory]| {
            let n = trajs.len();
            let mut d = vec![vec![0.0f64; n]; n];
            for i in 0..n {
                for j in i + 1..n {
                    d[i][j] = Measure::Dtw.distance(&trajs[i], &trajs[j]);
                    d[j][i] = d[i][j];
                }
            }
            d
        };
        let dataset = tiny_dataset();
        let tcfg = TrainConfig::tiny();
        let data = TrainData::prepare(&dataset, Measure::Dtw, &tcfg).unwrap();

        let dense_dist = dense(&dataset.seeds);
        let mut upper: Vec<f64> =
            dense_dist.iter().enumerate().flat_map(|(i, row)| row[i + 1..].to_vec()).collect();
        upper.sort_by(f64::total_cmp);
        let theta = -tcfg.theta_target.ln() / upper[upper.len() / 2].max(1e-9);
        assert_eq!(data.sim.theta(), theta, "theta must match the dense path exactly");
        assert_eq!(data.sim.n(), dense_dist.len());
        for (i, row) in dense_dist.iter().enumerate() {
            for (j, &d) in row.iter().enumerate() {
                assert_eq!(
                    data.sim.get(i, j),
                    (-theta * d).exp(),
                    "similarity ({i},{j}) diverged from the dense supervision"
                );
                if i != j {
                    assert_eq!(data.dist.get(i, j), Some(d));
                }
            }
        }

        let val_dense = dense(&dataset.validation);
        for (qi, &q) in data.val_queries.iter().enumerate() {
            let row = &val_dense[q];
            let mut nearest: Vec<usize> = (0..row.len()).filter(|&j| j != q).collect();
            nearest.sort_by(|&a, &b| row[a].total_cmp(&row[b]).then(a.cmp(&b)));
            nearest.truncate(10);
            assert_eq!(data.val_truth[qi], nearest);
        }
    }

    #[test]
    fn triplet_ablation_trains_without_triplets() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny().without_rev_aug();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig { epochs: 2, validate: false, ..TrainConfig::tiny() }
            .without_triplets();
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        let report = train(&mut model, &data, &tcfg).unwrap();
        assert_eq!(report.epoch_losses.len(), 2);
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn too_few_seeds_is_a_typed_error_not_an_abort() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig::tiny();
        let mut data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        data.seeds.truncate(1);
        match train(&mut model, &data, &tcfg) {
            Err(TrainError::TooFewSeeds { got: 1 }) => {}
            other => panic!("expected TooFewSeeds, got {other:?}"),
        }
    }

    #[test]
    fn invalid_config_is_rejected_before_training() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let good = TrainConfig::tiny();
        let data = TrainData::prepare(&dataset, Measure::Frechet, &good).unwrap();
        let bad = TrainConfig { lr: 0.0, ..good };
        assert!(matches!(
            train(&mut model, &data, &bad),
            Err(TrainError::InvalidConfig(_))
        ));
    }

    #[test]
    fn nan_loss_rolls_back_and_training_completes() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig { epochs: 3, ..TrainConfig::tiny() };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        // Inject a NaN the first time epoch 1 reports its loss.
        let mut injected = false;
        let hooks = TrainHooks::with_loss_hook(move |epoch, loss| {
            if epoch == 1 && !injected {
                injected = true;
                f32::NAN
            } else {
                loss
            }
        });
        let report = train_with_hooks(&mut model, &data, &tcfg, hooks).unwrap();
        assert_eq!(report.epoch_losses.len(), 3, "all epochs completed");
        assert!(report.epoch_losses.iter().all(|l| l.is_finite()));
        assert_eq!(report.recoveries.len(), 1);
        let ev = &report.recoveries[0];
        assert_eq!(ev.epoch, 1);
        assert_eq!(ev.kind, RecoveryKind::NonFiniteLoss);
        assert!(ev.loss.is_nan());
        assert_eq!(ev.restored_epoch, 1, "rolled back to the end of epoch 0");
        assert!((ev.lr_after - tcfg.lr * LR_BACKOFF).abs() < 1e-12);
        assert!((report.final_lr - tcfg.lr * LR_BACKOFF).abs() < 1e-12);
    }

    #[test]
    fn persistent_divergence_exhausts_retries_with_typed_error() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig { epochs: 3, ..TrainConfig::tiny() };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        let hooks = TrainHooks::with_loss_hook(|_, _| f32::INFINITY);
        match train_with_hooks(&mut model, &data, &tcfg, hooks) {
            Err(TrainError::Diverged { epoch: 0, retries: 3, .. }) => {}
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn loss_spike_triggers_rollback_too() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig { epochs: 3, ..TrainConfig::tiny() };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        let mut injected = false;
        let hooks = TrainHooks::with_loss_hook(move |epoch, loss| {
            if epoch == 2 && !injected {
                injected = true;
                loss * 100.0
            } else {
                loss
            }
        });
        let report = train_with_hooks(&mut model, &data, &tcfg, hooks).unwrap();
        assert_eq!(report.recoveries.len(), 1);
        assert_eq!(report.recoveries[0].kind, RecoveryKind::LossSpike);
        assert_eq!(report.epoch_losses.len(), 3);
    }

    /// Losses, validation scores and every parameter bit of a report
    /// and its model.
    fn assert_same_run(a: &(TrainReport, Vec<Tensor>), b: &(TrainReport, Vec<Tensor>)) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.0.epoch_losses), bits(&b.0.epoch_losses), "epoch losses");
        assert_eq!(a.0.val_hr10, b.0.val_hr10, "validation scores");
        assert_eq!(a.0.final_lr.to_bits(), b.0.final_lr.to_bits(), "final learning rate");
        let log = |r: &TrainReport| {
            r.recoveries
                .iter()
                .map(|e| {
                    (e.epoch, e.kind, e.loss.to_bits(), e.restored_epoch, e.lr_after.to_bits())
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(log(&a.0), log(&b.0), "recovery log");
        assert_eq!(a.1.len(), b.1.len());
        for (x, y) in a.1.iter().zip(&b.1) {
            assert_eq!(bits(x.data()), bits(y.data()), "parameters must be bit-identical");
        }
    }

    /// Trains a fresh model (init seed 2; 999 when resuming, so only
    /// the checkpoint can make it match) and returns its report and
    /// final parameters.
    fn run_hooked(
        ctx: &ModelContext,
        data: &TrainData,
        cfg: &TrainConfig,
        hook: impl FnMut(usize, f32) -> f32,
    ) -> (TrainReport, Vec<Tensor>) {
        let init_seed = if cfg.resume { 999 } else { 2 };
        let mut model = Traj2Hash::new(ModelConfig::tiny(), ctx, init_seed);
        let hooks = TrainHooks::with_loss_hook(hook);
        let report = train_with_hooks(&mut model, data, cfg, hooks).unwrap();
        (report, model.params.clone_values())
    }

    #[test]
    fn checkpoint_resume_continues_from_saved_epoch() {
        let dir = std::env::temp_dir().join("traj2hash_resume_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let _ = std::fs::remove_file(&path);

        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let tcfg = TrainConfig {
            epochs: 4,
            validate: true,
            checkpoint_path: Some(path.clone()),
            ..TrainConfig::tiny()
        };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        let identity = |_: usize, loss: f32| loss;

        // Full uninterrupted run for reference.
        let ref_cfg = TrainConfig { checkpoint_path: None, ..tcfg.clone() };
        let reference = run_hooked(&ctx, &data, &ref_cfg, identity);

        // Interrupted run: stop after 2 epochs (checkpoint written),
        // then resume in a fresh model.
        run_hooked(&ctx, &data, &TrainConfig { epochs: 2, ..tcfg.clone() }, identity);
        let resume_cfg = TrainConfig { resume: true, ..tcfg.clone() };
        let resumed = run_hooked(&ctx, &data, &resume_cfg, identity);
        assert_eq!(resumed.0.resumed_from_epoch, Some(2));
        assert_eq!(resumed.0.epoch_losses.len(), 4, "history spans both runs");
        // The resumed run must match the uninterrupted run bit-for-bit:
        // same per-epoch RNG, same parameters, same optimizer moments.
        assert_same_run(&resumed, &reference);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_after_rollback_keeps_the_lowered_rate_and_the_log() {
        let dir = std::env::temp_dir().join("traj2hash_resume_rollback_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let _ = std::fs::remove_file(&path);

        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let tcfg = TrainConfig {
            epochs: 4,
            validate: true,
            checkpoint_path: Some(path.clone()),
            ..TrainConfig::tiny()
        };
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        // NaN the first time epoch 1 reports its loss.
        let nan_once = || {
            let mut fired = false;
            move |epoch: usize, loss: f32| {
                if epoch == 1 && !fired {
                    fired = true;
                    f32::NAN
                } else {
                    loss
                }
            }
        };

        let ref_cfg = TrainConfig { checkpoint_path: None, ..tcfg.clone() };
        let reference = run_hooked(&ctx, &data, &ref_cfg, nan_once());
        assert_eq!(reference.0.recoveries.len(), 1);

        // Stopped after epoch 2, past the rollback: the checkpoint must
        // carry the halved rate and the recovery log into the resume.
        run_hooked(&ctx, &data, &TrainConfig { epochs: 2, ..tcfg.clone() }, nan_once());
        let resumed =
            run_hooked(&ctx, &data, &TrainConfig { resume: true, ..tcfg.clone() }, nan_once());
        assert_eq!(resumed.0.resumed_from_epoch, Some(2));
        assert_same_run(&resumed, &reference);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_with_missing_checkpoint_starts_fresh() {
        let dataset = tiny_dataset();
        let mcfg = ModelConfig::tiny();
        let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 1);
        let mut model = Traj2Hash::new(mcfg, &ctx, 2);
        let tcfg = TrainConfig {
            epochs: 2,
            resume: true,
            checkpoint_path: Some(std::env::temp_dir().join("traj2hash_missing.ckpt.nope")),
            ..TrainConfig::tiny()
        };
        let _ = std::fs::remove_file(tcfg.checkpoint_path.as_ref().unwrap());
        let data = TrainData::prepare(&dataset, Measure::Frechet, &tcfg).unwrap();
        let report = train(&mut model, &data, &tcfg).unwrap();
        assert_eq!(report.resumed_from_epoch, None);
        assert_eq!(report.epoch_losses.len(), 2);
        let _ = std::fs::remove_file(tcfg.checkpoint_path.as_ref().unwrap());
    }
}
