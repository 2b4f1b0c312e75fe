//! Model-checking the publish protocol with the loomlet enumerator.
//!
//! [`loomlet::explore`] executes **every** interleaving of
//! a reader / writer / hot-swap schedule over real publish cells — a
//! [`ShardCell`] holding genuine [`ShardState`] generations and the
//! [`ModelBlueprint`] version cell — and checks the protocol's
//! invariants after every single step:
//!
//! * **monotone publish sequences** — the shard cell's `publish_seq`
//!   and the blueprint cell's version never move backwards, in the
//!   reader's observation order or anywhere else;
//! * **no torn views** — every pinned state passes the full structural
//!   consistency check, and two pins observing the same sequence are
//!   the *same* `Arc` (a sequence can never alias two states);
//! * **readers land on published generations** — every pinned sequence
//!   is either the initial value or one a writer's publish actually
//!   returned.
//!
//! The enumeration count is asserted against the exact multinomial so
//! the explored schedule space can never silently shrink.

#[path = "common/loomlet.rs"]
mod loomlet;

use std::sync::Arc;

use loomlet::{explore, interleaving_count, Step};
use traj_data::{CityParams, Dataset, SplitSizes, Trajectory};
use traj_engine::shard::{Rows, ShardState};
use traj_engine::sharded::ShardCell;
use traj_engine::{EngineConfig, ModelBlueprint, PublishCell};
use traj_index::BinaryCode;
use traj2hash::{ModelConfig, ModelContext, Traj2Hash};

fn world() -> (Dataset, Traj2Hash) {
    let sizes = SplitSizes { seeds: 16, validation: 20, corpus: 60, query: 4, database: 24 };
    let dataset = Dataset::generate(CityParams::test_city(), sizes, 11);
    let mcfg = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&dataset.training_visible(), &mcfg, 11);
    let model = Traj2Hash::new(mcfg, &ctx, 13);
    (dataset, model)
}

/// One shard entry: id, trajectory, embedding, code.
fn entries(model: &Traj2Hash, trajs: &[Trajectory]) -> Vec<(u64, Trajectory, Vec<f32>, BinaryCode)> {
    model
        .embed_all(trajs)
        .into_iter()
        .zip(trajs)
        .enumerate()
        .map(|(i, (emb, t))| {
            let code = BinaryCode::from_floats(&emb);
            (i as u64, t.clone(), emb, code)
        })
        .collect()
}

fn build_state(rows: &[(u64, Trajectory, Vec<f32>, BinaryCode)], cfg: &EngineConfig) -> ShardState {
    let mut block = Rows::default();
    for (id, traj, emb, code) in rows {
        block.push(*id, traj.clone(), emb, code).unwrap();
    }
    ShardState::build(block, cfg)
}

/// The shared state each schedule runs over: both publish cells plus
/// everything the reader and writers observed, so the invariant can
/// audit the full history after every step.
struct World {
    shard: ShardCell,
    model: PublishCell<ModelBlueprint>,
    /// The reader's pinned shard views, in pin order.
    pins: Vec<Arc<ShardState>>,
    /// The blueprint cell's version at each reader step.
    model_seqs: Vec<u64>,
    /// Sequences returned by shard publishes, in execution order.
    published: Vec<u64>,
    /// Versions returned by blueprint publishes, in execution order.
    model_published: Vec<u64>,
}

fn check_world(w: &World) -> Result<(), String> {
    // The currently published state is never torn.
    let cur = w.shard.pin();
    cur.check_consistent()?;

    // Shard publishes stamp strictly increasing sequences, and the
    // cell's live sequence is exactly the latest stamp.
    for pair in w.published.windows(2) {
        if pair[1] <= pair[0] {
            return Err(format!("publish stamped {} after {}", pair[1], pair[0]));
        }
    }
    let latest = w.published.last().copied().unwrap_or(0);
    if w.shard.seq() != latest {
        return Err(format!("cell seq {} but latest publish stamped {latest}", w.shard.seq()));
    }

    // Reader pins: consistent, monotone, and each one is a generation a
    // writer actually published (or the initial state, seq 0).
    for pin in &w.pins {
        pin.check_consistent()?;
        let seq = pin.publish_seq;
        if seq != 0 && !w.published.contains(&seq) {
            return Err(format!("reader pinned seq {seq}, which no writer published"));
        }
    }
    for pair in w.pins.windows(2) {
        if pair[1].publish_seq < pair[0].publish_seq {
            return Err(format!(
                "reader saw publish_seq move backwards: {} then {}",
                pair[0].publish_seq, pair[1].publish_seq
            ));
        }
        // Equal sequence must mean the identical published Arc — a
        // sequence aliasing two distinct states would be a torn swap.
        if pair[1].publish_seq == pair[0].publish_seq && !Arc::ptr_eq(&pair[0], &pair[1]) {
            return Err(format!(
                "two distinct states share publish_seq {}",
                pair[0].publish_seq
            ));
        }
    }

    // Blueprint versions: same story on the model cell.
    for pair in w.model_seqs.windows(2) {
        if pair[1] < pair[0] {
            return Err(format!(
                "reader saw blueprint version move backwards: {} then {}",
                pair[0], pair[1]
            ));
        }
    }
    for &v in &w.model_seqs {
        if v != 0 && !w.model_published.contains(&v) {
            return Err(format!("reader saw blueprint version {v}, which no swap published"));
        }
    }
    Ok(())
}

/// The tentpole schedule: 3 reader pins, 3 writer publishes
/// (insert → remove → rebuild), 2 hot-swap steps (blueprint publish →
/// shard republish-degraded) — 8!/(3!·3!·2!) = 560 interleavings,
/// every one executed over fresh cells, invariants checked after every
/// step.
#[test]
fn every_interleaving_of_reader_writer_swap_holds_the_invariants() {
    let (dataset, model) = world();
    let cfg = EngineConfig::default();
    let rows = entries(&model, &dataset.database[..6]);
    let base_rows: Vec<_> = rows[..5].to_vec();
    let (ins_id, ins_traj, ins_emb, ins_code) =
        (100u64, rows[5].1.clone(), rows[5].2.clone(), rows[5].3.clone());
    let model_b = {
        let ctx = ModelContext::prepare(&dataset.training_visible(), &ModelConfig::tiny(), 11);
        Traj2Hash::new(ModelConfig::tiny(), &ctx, 29)
    };

    let mk_state = {
        let base_rows = base_rows.clone();
        let cfg = cfg.clone();
        let mk_model = Traj2Hash::from_spec(&model.spec(), &model.params.clone_values());
        move || World {
            shard: ShardCell::new(build_state(&base_rows, &cfg)),
            model: PublishCell::new(ModelBlueprint::of(&mk_model)),
            pins: Vec::new(),
            model_seqs: Vec::new(),
            published: Vec::new(),
            model_published: Vec::new(),
        }
    };

    let reader_step = || -> Step<World> {
        Box::new(|w: &mut World| {
            w.pins.push(w.shard.pin());
            w.model_seqs.push(w.model.seq());
        })
    };
    let reader = vec![reader_step(), reader_step(), reader_step()];

    let writer: Vec<Step<World>> = vec![
        {
            let (traj, emb, code) = (ins_traj, ins_emb, ins_code);
            Box::new(move |w: &mut World| {
                let cur = w.shard.pin();
                let next = cur.with_insert(ins_id, traj.clone(), &emb, &code).unwrap();
                let seq = w.shard.publish(next);
                w.published.push(seq);
            })
        },
        Box::new(|w: &mut World| {
            let cur = w.shard.pin();
            let seq = w.shard.publish(cur.with_remove(0));
            w.published.push(seq);
        }),
        {
            let cfg = cfg.clone();
            Box::new(move |w: &mut World| {
                let cur = w.shard.pin();
                let seq = w.shard.publish(cur.rebuilt(&cfg));
                w.published.push(seq);
            })
        },
    ];

    let swap: Vec<Step<World>> = vec![
        Box::new(move |w: &mut World| {
            let v = w.model.publish(ModelBlueprint::of(&model_b));
            w.model_published.push(v);
        }),
        Box::new(|w: &mut World| {
            let cur = w.shard.pin();
            let seq = w.shard.publish(cur.with_degraded());
            w.published.push(seq);
        }),
    ];

    let threads = vec![reader, writer, swap];
    let lens: Vec<usize> = threads.iter().map(|t| t.len()).collect();
    assert_eq!(lens, vec![3, 3, 2], "the schedule shape the count below pins");

    let explored = match explore(mk_state, &threads, check_world) {
        Ok(n) => n,
        Err(v) => panic!("publish protocol violated: {v}"),
    };

    // Exhaustiveness is part of the contract: exactly the multinomial,
    // pinned numerically so the schedule space cannot silently shrink.
    assert_eq!(explored, interleaving_count(&[3, 3, 2]));
    assert_eq!(explored, 560);
}

/// Readers refresh their model replica from the blueprint cell; a pin
/// taken before a hot swap must keep instantiating the *old* model
/// bit-for-bit, while pins taken after the swap see the new one.
#[test]
fn pinned_blueprints_are_immune_to_hot_swaps() {
    let (dataset, model) = world();
    let cell = PublishCell::new(ModelBlueprint::of(&model));
    let probe = &dataset.query[0];

    let before = cell.pin();
    assert_eq!(before.version(), 0);

    let ctx = ModelContext::prepare(&dataset.training_visible(), &ModelConfig::tiny(), 11);
    let model_b = Traj2Hash::new(ModelConfig::tiny(), &ctx, 29);
    let stamped = cell.publish(ModelBlueprint::of(&model_b));
    assert_eq!(stamped, 1, "first swap stamps version 1");

    let after = cell.pin();
    assert_eq!(after.version(), 1);

    let e_before = before.instantiate().embed(probe);
    let e_after = after.instantiate().embed(probe);
    assert_eq!(
        e_before.data(),
        model.embed(probe).data(),
        "pre-swap pin must replicate the original model exactly"
    );
    assert_eq!(
        e_after.data(),
        model_b.embed(probe).data(),
        "post-swap pin must replicate the swapped model exactly"
    );
    assert_ne!(
        e_before.data(),
        e_after.data(),
        "the two generations are genuinely different models"
    );
}
