//! Model-checking the engine's publish protocol with the loomlet
//! enumerator.
//!
//! The engine has one publish point — a view holding the model and every
//! shard that model encoded — so every engine operation is one pin or
//! one publish, and any concurrent execution equals some interleaving of
//! whole operations. [`loomlet::explore`] executes **every** interleaving
//! of a reader / writer / hot-swap schedule over a real
//! [`ShardedEngine`] and a real [`ShardReader`] and checks after every
//! single step:
//!
//! * **every answer is the scan oracle's for the view it pinned** — the
//!   oracle (`tests/common/oracle.rs`) is advanced with the writer and
//!   its answers recorded per published view sequence; a query encoded
//!   by one model and ranked against rows of another matches neither;
//! * **views never regress** — the sequences a reader pins are
//!   non-decreasing in its own order;
//! * **no torn views** — every pinned view passes the structural check,
//!   which includes that each shard's rows are as wide as the view's
//!   model makes them: the swap installs a model of another width, so a
//!   view split across the swap (one shard old, one new) cannot pass;
//! * **pinned views are frozen** — a view held across inserts, removes,
//!   compaction and the swap keeps its sequence, corpus and consistency.
//!
//! A second schedule runs the flight recorder's ring (`offer` / `drain` /
//! `force_dump`) the same way: no entry lost or duplicated.
//!
//! The enumeration counts are asserted against the exact multinomial so
//! the explored schedule spaces can never silently shrink.

#[path = "common/loomlet.rs"]
mod loomlet;

#[allow(dead_code)]
#[path = "common/oracle.rs"]
mod oracle;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};

use loomlet::{explore, interleaving_count, Step};
use oracle::{embed, narrow_model, world, Oracle};
use traj_data::Trajectory;
use traj_engine::{
    EngineConfig, Hit, PinnedView, ShardConfig, ShardReader, ShardedEngine, Strategy,
};
use traj_obs::{FlightConfig, FlightRecorder};
use traj2hash::Traj2Hash;

const K: usize = 4;

fn two_shards() -> ShardConfig {
    ShardConfig { shards: 2, fan_out_threads: 0 }
}

/// The oracle's answer to `probe` under every strategy.
fn oracle_answers(oracle: &Oracle, model: &Traj2Hash, probe: &Trajectory) -> Vec<Vec<Hit>> {
    let q = embed(model, probe);
    Strategy::ALL.iter().map(|&s| oracle.top_k(s, &q, K)).collect()
}

fn reader_answers(reader: &mut ShardReader, probe: &Trajectory) -> Vec<Vec<Hit>> {
    Strategy::ALL.iter().map(|&s| reader.query(probe, K, s).unwrap()).collect()
}

/// What a held view looked like when it was pinned.
struct Held {
    view: PinnedView,
    seq: u64,
    live: usize,
    publish_seqs: Vec<u64>,
}

/// The state each schedule runs over: the real engine and reader, the
/// oracle mirroring the writer, and everything observed so far.
struct World {
    engine: ShardedEngine,
    reader: ShardReader,
    probe: Trajectory,
    oracle: Oracle,
    /// The model the engine currently serves (what the oracle encodes with).
    model: Rc<Traj2Hash>,
    /// Oracle answers per view sequence a step boundary published.
    want: BTreeMap<u64, Vec<Vec<Hit>>>,
    /// `(view sequence pinned, answers)` per reader step, in order.
    reads: Vec<(u64, Vec<Vec<Hit>>)>,
    /// Views pinned by the reader and held to the end of the schedule.
    held: Vec<Held>,
}

impl World {
    /// Records the oracle's answers for the view the writer just published.
    fn record_published(&mut self) {
        let seq = self.engine.pin().seq();
        self.want.insert(seq, oracle_answers(&self.oracle, &self.model, &self.probe));
    }
}

fn check_world(w: &World) -> Result<(), String> {
    let current = w.engine.pin();
    current.check_consistent()?;
    for (i, (seq, got)) in w.reads.iter().enumerate() {
        let want = w.want.get(seq).ok_or(format!("read {i} pinned unpublished view {seq}"))?;
        if got != want {
            return Err(format!("read {i} at view {seq} is not the oracle's answer"));
        }
        if *seq > current.seq() {
            return Err(format!("read {i} pinned view {seq}, ahead of the engine's"));
        }
    }
    for pair in w.reads.windows(2) {
        if pair[1].0 < pair[0].0 {
            return Err(format!("reader saw view {} after view {}", pair[1].0, pair[0].0));
        }
    }
    for h in &w.held {
        h.view.check_consistent().map_err(|e| format!("held view {}: {e}", h.seq))?;
        let now = (h.view.seq(), h.view.live(), h.view.publish_seqs());
        if now != (h.seq, h.live, h.publish_seqs.clone()) {
            return Err(format!("held view {} changed under its holder: {now:?}", h.seq));
        }
    }
    Ok(())
}

/// 3 reader queries (all five strategies each, holding the pinned view),
/// 3 writer operations (`try_insert` → `remove` → `compact`) and 1 hot
/// swap to a model of another width — 7!/(3!·3!·1!) = 140 interleavings
/// of whole engine operations, every one on a fresh two-shard engine,
/// invariants checked after every step. Among them are the three
/// schedules a per-shard protocol got wrong: the swap between two reads
/// (the reader must re-encode with the new model exactly when it pins
/// the new rows), the swap "between the reads of two shards" (one pin
/// now, so no view holds shards of two models) and compaction against a
/// held view.
#[test]
fn every_interleaving_of_reader_writer_swap_holds_the_invariants() {
    let (dataset, model_a) = world();
    let model_a = Rc::new(model_a);
    let model_b = Rc::new(narrow_model(&dataset));
    let corpus: Vec<Trajectory> = dataset.database[..6].to_vec();
    let extra = dataset.database[6].clone();
    let probe = dataset.query[0].clone();

    let mk_state = {
        let model_a = Rc::clone(&model_a);
        move || {
            let engine = ShardedEngine::build_from(
                &model_a,
                corpus.clone(),
                EngineConfig::default(),
                two_shards(),
            )
            .unwrap();
            let mut w = World {
                reader: engine.reader().into_reader(),
                engine,
                probe: probe.clone(),
                oracle: Oracle::build(&model_a, &corpus),
                model: Rc::clone(&model_a),
                want: BTreeMap::new(),
                reads: Vec::new(),
                held: Vec::new(),
            };
            w.record_published();
            w
        }
    };

    let reader_step = || -> Step<World> {
        Box::new(|w: &mut World| {
            // Nothing interleaves inside a step, so this is the view
            // the queries below pin.
            let view = w.reader.pin();
            let answers = reader_answers(&mut w.reader, &w.probe);
            w.reads.push((view.seq(), answers));
            w.held.push(Held {
                seq: view.seq(),
                live: view.live(),
                publish_seqs: view.publish_seqs(),
                view,
            });
        })
    };
    let reader = vec![reader_step(), reader_step(), reader_step()];

    let writer: Vec<Step<World>> = vec![
        Box::new(move |w: &mut World| {
            let id = w.engine.try_insert(extra.clone()).unwrap();
            assert_eq!(w.oracle.insert(&w.model, extra.clone()), id);
            w.record_published();
        }),
        Box::new(|w: &mut World| {
            w.engine.remove(0).unwrap();
            assert!(w.oracle.remove(0));
            w.record_published();
        }),
        Box::new(|w: &mut World| {
            w.engine.compact();
            w.record_published();
        }),
    ];

    let swap: Vec<Step<World>> = vec![Box::new(move |w: &mut World| {
        let replacement = w.engine.refreshed(oracle::replica(&model_b)).unwrap();
        w.engine.hot_swap(replacement);
        w.model = Rc::clone(&model_b);
        w.oracle.reencode(&model_b);
        w.record_published();
    })];

    let threads = vec![reader, writer, swap];
    let lens: Vec<usize> = threads.iter().map(|t| t.len()).collect();
    assert_eq!(lens, vec![3, 3, 1], "the schedule shape the count below pins");

    let explored = match explore(mk_state, &threads, check_world) {
        Ok(n) => n,
        Err(v) => panic!("publish protocol violated: {v}"),
    };

    // Exhaustiveness is part of the contract: exactly the multinomial,
    // pinned numerically so the schedule space cannot silently shrink.
    assert_eq!(explored, interleaving_count(&[3, 3, 1]));
    assert_eq!(explored, 140);
}

/// A view pinned before a hot swap stays the old model's view — same
/// sequence, same corpus, rows still as wide as its model — while a
/// reader's next query pins the new view and answers with the new model,
/// bit for bit what the oracle says for each.
#[test]
fn pinned_blueprints_are_immune_to_hot_swaps() {
    let (dataset, model_a) = world();
    let model_b = narrow_model(&dataset);
    let corpus = &dataset.database[..12];
    let probe = &dataset.query[0];
    let mut engine =
        ShardedEngine::build_from(&model_a, corpus.to_vec(), EngineConfig::default(), two_shards())
            .unwrap();
    let mut reader = engine.reader().into_reader();
    let mut oracle = Oracle::build(&model_a, corpus);

    let before = reader.pin();
    assert_eq!((before.seq(), before.publish_seqs()), (0, vec![0, 0]));
    let old = reader_answers(&mut reader, probe);
    assert_eq!(old, oracle_answers(&oracle, &model_a, probe), "pre-swap answers are model A's");

    let replacement = engine.refreshed(oracle::replica(&model_b)).unwrap();
    engine.hot_swap(replacement);
    oracle.reencode(&model_b);

    assert_eq!((before.seq(), before.live()), (0, corpus.len()), "the pinned view is frozen");
    before.check_consistent().expect("the old view still pairs the old model with its rows");
    let after = reader.pin();
    assert_eq!((after.seq(), after.publish_seqs()), (1, vec![1, 1]), "one publish, every shard");
    after.check_consistent().expect("the new view pairs the new model with its rows");

    let new = reader_answers(&mut reader, probe);
    assert_eq!(new, oracle_answers(&oracle, &model_b, probe), "post-swap answers are model B's");
    assert_ne!(old, new, "the two generations are genuinely different models");
}

// ---------------------------------------------------------------------
// The flight recorder's ring.
// ---------------------------------------------------------------------

/// A private recorder dumping to its own file, and what left the ring.
struct Ring {
    rec: FlightRecorder,
    dump: PathBuf,
    /// Capture sequences `drain` handed out, in order.
    drained: Vec<u64>,
    steps: usize,
}

impl Drop for Ring {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.dump);
    }
}

/// Capture sequences written to the dump file so far.
fn dumped(ring: &Ring) -> Result<Vec<u64>, String> {
    let text = std::fs::read_to_string(&ring.dump).unwrap_or_default();
    text.lines()
        .filter(|l| l.contains("\"flight.trace\""))
        .map(|l| {
            let doc = traj_obs::parse_json(l)?;
            let seq = doc.get("fields").and_then(|f| f.get("flight_seq")).and_then(|v| v.as_f64());
            seq.map(|s| s as u64).ok_or(format!("no flight_seq in {l}"))
        })
        .collect()
}

const RING_STEPS: usize = 6;
const OFFERS: u64 = 3;

fn check_ring(ring: &Ring) -> Result<(), String> {
    let mut taken = ring.drained.clone();
    taken.extend(dumped(ring)?);
    let mut unique = taken.clone();
    unique.sort_unstable();
    unique.dedup();
    if unique.len() != taken.len() {
        return Err(format!("an entry left the ring twice: {taken:?}"));
    }
    let (captured, dropped) = (ring.rec.captured(), ring.rec.dropped());
    let retained = captured
        .checked_sub(dropped + taken.len() as u64)
        .ok_or(format!("{captured} captured < {dropped} dropped + {} taken", taken.len()))?;
    if retained > ring.rec.capacity() as u64 {
        return Err(format!("{retained} entries retained in {} slots", ring.rec.capacity()));
    }
    if ring.steps == RING_STEPS {
        // Schedule over: what the counters say is retained is exactly
        // what is still in the ring.
        let left = ring.rec.drain().len() as u64;
        if (captured, left) != (OFFERS, retained) {
            return Err(format!("{captured} captured, {retained} accounted retained, {left} found"));
        }
    }
    Ok(())
}

/// 3 `offer`s into a 2-slot ring (so one overwrites), 2 `drain`s and a
/// `force_dump` — 6!/(3!·2!·1!) = 60 interleavings. After every step:
/// no entry reached a drain or the dump file twice, and `captured −
/// dropped − taken` is what the ring still holds.
#[test]
fn flight_ring_neither_loses_nor_duplicates_entries() {
    static WORLDS: AtomicUsize = AtomicUsize::new(0);
    let mk_state = || {
        let n = WORLDS.fetch_add(1, Ordering::Relaxed);
        let dump = std::env::temp_dir()
            .join(format!("t2h-loomlet-flight-{}-{n}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&dump);
        let cfg = FlightConfig {
            capacity: 2,
            tail_threshold_seconds: 0.0,
            dump_path: Some(dump.clone()),
        };
        Ring { rec: FlightRecorder::new(cfg), dump, drained: Vec::new(), steps: 0 }
    };
    let step = |f: fn(&mut Ring)| -> Step<Ring> {
        Box::new(move |r: &mut Ring| {
            f(r);
            r.steps += 1;
        })
    };
    let offer = |r: &mut Ring| {
        assert!(r.rec.offer(1e-3, || ("flight.trace", Vec::new())));
    };
    let drain = |r: &mut Ring| r.drained.extend(r.rec.drain().iter().map(|e| e.seq));
    let dump = |r: &mut Ring| {
        r.rec.force_dump("loomlet");
    };
    let threads = vec![
        vec![step(offer), step(offer), step(offer)],
        vec![step(drain), step(drain)],
        vec![step(dump)],
    ];
    assert_eq!(threads.iter().map(Vec::len).sum::<usize>(), RING_STEPS);
    let explored = match explore(mk_state, &threads, check_ring) {
        Ok(n) => n,
        Err(v) => panic!("flight ring violated: {v}"),
    };
    assert_eq!(explored, interleaving_count(&[3, 2, 1]));
    assert_eq!(explored, 60);
}
