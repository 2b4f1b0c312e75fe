//! Steady-state `Traj2Hash::embed` allocates its result and nothing
//! else: no tape, no per-op tensor, no weight clone — whatever the
//! trajectory length, block count or head count. And with no recorder
//! and no flight recorder installed, the `traj_obs` record calls
//! allocate nothing at all and a whole engine query no more than it did
//! before its trace was folded into its record.
//!
//! This file holds exactly one test: the counter is process-wide, and
//! libtest would run a second test on a second thread.

// The workspace denies `unsafe_code`; a counting `GlobalAlloc` cannot be
// written without it, and this file is its one sanctioned home.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use traj2hash::{ModelConfig, ModelContext, Readout, Traj2Hash};
use traj_data::{CityGenerator, CityParams, Trajectory};
use traj_engine::{EngineConfig, ShardConfig, ShardedEngine, Strategy};

struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose contract is the one the caller already upholds; the counter is
// a relaxed statistic and touches no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `layout` is the caller's, passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` describe a live `System` block; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations of one `ShardedEngine::query`, in `Strategy::ALL` order.
const PARENT_QUERY_ALLOCATIONS: [usize; 5] = [10, 10, 316, 24, 321];

fn allocations_of(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn second_embed_of_a_length_allocates_only_its_result() {
    let trajs = CityGenerator::new(CityParams::test_city(), 3).generate(12);
    let base = ModelConfig::tiny();
    let ctx = ModelContext::prepare(&trajs, &base, 3);
    let xy: Vec<(f64, f64)> = (0..150).map(|i| (13.0 * i as f64, 2000.0 - 11.0 * i as f64)).collect();
    for (blocks, heads, readout) in [
        (1, 2, Readout::LowerBound),
        (3, 4, Readout::LowerBound),
        (2, 2, Readout::Mean),
        (2, 4, Readout::Cls),
    ] {
        let cfg = ModelConfig { blocks, heads, readout, ..base.clone() };
        let model = Traj2Hash::new(cfg, &ctx, 3);
        for n in [150, 9, 64] {
            let t = Trajectory::from_xy(&xy[..n]);
            let first = model.embed(&t);
            let mut second = None;
            let count = allocations_of(|| second = Some(model.embed(&t)));
            assert_eq!(second, Some(first));
            assert_eq!(
                count, 1,
                "embed of {n} points at blocks={blocks} heads={heads} {readout:?} \
                 made {count} allocations; only the returned tensor may allocate"
            );
        }
    }

    // The disabled path: a count, so it repeats; the nanoseconds of one
    // disabled record call are `t2h_bench`'s `obs.disabled_record_ns`.
    assert!(!traj_obs::enabled() && !traj_obs::flight::installed());
    let count = allocations_of(|| {
        traj_obs::counter("test.noop", 1);
        traj_obs::observe_secs("test.noop", 0.5);
    });
    assert_eq!(count, 0, "the disabled record path made {count} allocations");

    // One whole query per strategy over two shards, second of its
    // length. Ceilings counted at c2d81b1, where a disabled trace
    // context rode along: the inert trace may not cost an allocation more.
    let model = Traj2Hash::new(base, &ctx, 3);
    let scfg = ShardConfig { shards: 2, fan_out_threads: 0 };
    let engine = ShardedEngine::build(model, trajs.clone(), EngineConfig::default(), scfg).unwrap();
    for (strategy, ceiling) in Strategy::ALL.into_iter().zip(PARENT_QUERY_ALLOCATIONS) {
        let first = engine.query(&trajs[0], 5, strategy).unwrap();
        let mut second = Vec::new();
        let count = allocations_of(|| second = engine.query(&trajs[0], 5, strategy).unwrap());
        assert_eq!(second, first);
        assert!(count <= ceiling, "{} query: {count} allocations, {ceiling} before", strategy.name());
    }
}
