//! The workspace invariant registries: the single place every on-disk
//! format header, sanctioned lock helper, compute boundary, and atomic
//! ordering intent used anywhere in the workspace must be declared.
//!
//! Seven tables live here:
//!
//! * [`KNOWN_MAGICS`] — container magics, backing the
//!   `checkpoint-magic-registry` rule;
//! * [`LOCK_HELPERS`] — the poison-proof lock-acquisition helpers,
//!   backing `no-bare-lock`: only these functions may call
//!   `.lock()`/`.read()`/`.write()` directly, and only in their
//!   registered file;
//! * [`COMPUTE_CALLS`] — the heavy compute/IO entry points a lock guard
//!   must never be held across, backing `no-guard-across-compute`;
//! * [`ATOMIC_INTENTS`] — the declared memory-ordering policy for every
//!   atomic in the workspace, backing `atomic-ordering-registry`;
//! * [`RAW_PRINT_ALLOWED`] — the library files sanctioned to print to
//!   stdout/stderr directly, backing `no-raw-print-in-lib`;
//! * [`TRACED_ENTRY_POINTS`] — the `query*` entry points sanctioned
//!   without a visible trace type in their span, backing
//!   `trace-span-coverage`;
//! * [`UNSAFE_SITES`] — the files sanctioned to contain `unsafe`,
//!   backing `unsafe-registry`.
//!
//! Declaring intent centrally is the point: a new lock helper, a new
//! atomic, or a stronger ordering shows up as a diff *to this file*,
//! where a reviewer sees the whole concurrency story at a glance.

/// Every known container magic, with its owning format:
///
/// | magic      | format                                             |
/// |------------|----------------------------------------------------|
/// | `TNN1`     | `tinynn` parameter values blob                     |
/// | `TNS1`     | `tinynn` parameter + optimizer state blob          |
/// | `T2HCKPT1` | training checkpoint (`traj2hash::checkpoint`)      |
/// | `T2HSNAP1` | engine snapshot (`traj_engine::snapshot`)          |
pub const KNOWN_MAGICS: &[&str] = &["TNN1", "TNS1", "T2HCKPT1", "T2HSNAP1"];

/// A sanctioned poison-proof lock helper: the only functions allowed to
/// call `.lock()` / `.read()` / `.write()` on a `Mutex`/`RwLock`
/// directly. Each helper owns the poison-recovery decision for exactly
/// one lock family, so a panicking writer can never wedge the rest of
/// the process by accident of `.unwrap()`-on-`PoisonError`.
#[derive(Debug, Clone, Copy)]
pub struct LockHelper {
    /// Repo-relative file the helper is defined in — bare lock calls
    /// are exempt only inside this file's function of that name.
    pub path: &'static str,
    /// The helper's function name; calling it anywhere is sanctioned.
    pub name: &'static str,
    /// One-line rationale: what lock it guards and why poison recovery
    /// is sound there.
    pub why: &'static str,
}

/// The sanctioned-helper registry (the `no-bare-lock` rule's ground
/// truth). Paths under `crates/demo/` are the lint fixture namespace —
/// they never exist in the repo and are exempt from staleness checks.
pub const LOCK_HELPERS: &[LockHelper] = &[
    LockHelper {
        path: "crates/engine/src/cell.rs",
        name: "rread",
        why: "publish-cell RwLock read; the Arc inside a poisoned guard is still a valid \
              published state, so recovery serves it",
    },
    LockHelper {
        path: "crates/engine/src/cell.rs",
        name: "rwrite",
        why: "publish-cell RwLock write; a poisoned cell still holds the last published \
              Arc, so the next writer may replace it",
    },
    LockHelper {
        path: "crates/engine/src/engine.rs",
        name: "tlock",
        why: "telemetry Mutex; counters are plain integers, valid after any panic",
    },
    LockHelper {
        path: "crates/obs/src/lib.rs",
        name: "olock",
        why: "recorder-internal Mutex (sink buffers, flight-ring slots); both stay \
              structurally valid after a panicking append — a slot is one Option moved \
              in or out — and the poisoned guard is released before the poison dump \
              drains the ring through this same helper",
    },
    LockHelper {
        path: "crates/obs/src/lib.rs",
        name: "gread",
        why: "GLOBAL recorder RwLock read; a poisoned global still names a usable \
              recorder Arc",
    },
    LockHelper {
        path: "crates/obs/src/lib.rs",
        name: "gwrite",
        why: "GLOBAL recorder RwLock write; install/uninstall may proceed after a \
              poisoned reader",
    },
    LockHelper {
        path: "crates/obs/src/flight.rs",
        name: "fread",
        why: "FLIGHT recorder-slot RwLock read; the slot only ever holds a whole \
              Option<Arc<..>> replaced atomically, so a poisoned guard still names a \
              usable recorder",
    },
    LockHelper {
        path: "crates/obs/src/flight.rs",
        name: "fwrite",
        why: "FLIGHT recorder-slot RwLock write; install/uninstall may proceed after \
              a poisoned reader for the same reason as fread",
    },
    LockHelper {
        path: "crates/tinynn/src/sync.rs",
        name: "cread",
        why: "positional-encoding table RwLock read (its only client, reached from the \
              training forward only — inference keeps a per-model table); the table \
              holds pure recomputable values, poison cannot corrupt them",
    },
    LockHelper {
        path: "crates/tinynn/src/sync.rs",
        name: "cwrite",
        why: "positional-encoding table RwLock write (its only client, training forward \
              only); worst case after poison is a redundant recompute",
    },
];

/// Heavy compute / IO entry points a lock guard must never be live
/// across (the `no-guard-across-compute` rule): holding a publish-cell
/// or telemetry guard across any of these stalls every reader behind
/// a long computation and widens the poison blast radius to the whole
/// serving plane. Snapshot first (`Arc::clone(&rread(..))`), drop the
/// guard, then compute — the engine's writes build the next shard state
/// (`with_insert`, `rebuilt`, `refreshed`) before `PublishCell::publish`
/// takes the write lock to assemble the view from finished parts. The forward-only evaluator has no entry of its
/// own: it is reached only through `embed` / `embed_all` /
/// `embed_all_with_threads`, which are listed.
pub const COMPUTE_CALLS: &[&str] = &[
    "search",
    "embed",
    "embed_batch",
    "embed_all",
    "embed_all_with_threads",
    "with_insert",
    "rebuilt",
    "rebuild_shard",
    "refreshed",
    "instantiate",
    "encode_view",
    "decode_parts",
    "snapshot_bytes",
    "from_spec",
];

/// A declared memory-ordering policy for one atomic.
#[derive(Debug, Clone, Copy)]
pub struct AtomicIntent {
    /// Repo-relative file the atomic's operations live in.
    pub path: &'static str,
    /// The atomic's identifier (field or static name) as it appears at
    /// the use sites.
    pub atomic: &'static str,
    /// Orderings permitted at those sites.
    pub allowed: &'static [&'static str],
    /// One-line rationale for the policy.
    pub why: &'static str,
}

/// The atomic-ordering intent table (the `atomic-ordering-registry`
/// rule's ground truth). Policy: `Relaxed` only for monotone
/// observability counters whose values carry no synchronization
/// meaning; anything that publishes state other threads then read
/// must use `Acquire`/`Release` pairs or `SeqCst`. Entries under
/// `crates/demo/` are lint fixture pins (that namespace never exists
/// in the repo) and are exempt from staleness checks.
pub const ATOMIC_INTENTS: &[AtomicIntent] = &[
    AtomicIntent {
        path: "crates/obs/src/lib.rs",
        atomic: "ACTIVE",
        allowed: &["Relaxed", "SeqCst"],
        why: "Relaxed for the enabled() fast-path load (stale reads only cost one \
              recorded/unrecorded event); SeqCst on install/uninstall so the count \
              totally orders with GLOBAL swaps",
    },
    AtomicIntent {
        path: "crates/obs/src/jsonl.rs",
        atomic: "SEQ",
        allowed: &["Relaxed"],
        why: "unique-suffix counter for export file names; uniqueness needs atomicity, \
              not ordering",
    },
    AtomicIntent {
        path: "crates/obs/src/memory.rs",
        atomic: "records",
        allowed: &["Relaxed"],
        why: "monotone record counter in the obs fast path; read only for reporting",
    },
    AtomicIntent {
        path: "crates/core/src/iofault.rs",
        atomic: "attempts",
        allowed: &["Relaxed"],
        why: "fault-injection attempt counter; test-harness statistics only",
    },
    AtomicIntent {
        path: "crates/core/src/iofault.rs",
        atomic: "injected",
        allowed: &["Relaxed"],
        why: "fault-injection hit counter; test-harness statistics only",
    },
    AtomicIntent {
        path: "crates/core/src/iofault.rs",
        atomic: "TMP_COUNTER",
        allowed: &["Relaxed"],
        why: "unique temp-file suffix; uniqueness needs atomicity, not ordering",
    },
    AtomicIntent {
        path: "crates/core/src/model.rs",
        atomic: "next",
        allowed: &["Relaxed"],
        why: "bulk-encode claim cursor; a claim needs atomicity only — the trajectories \
              are read-only and every result reaches the caller through its thread's join",
    },
    AtomicIntent {
        path: "crates/engine/src/trace.rs",
        atomic: "QUERY_IDS",
        allowed: &["Relaxed"],
        why: "unique trace query-id counter; uniqueness needs atomicity, not ordering",
    },
    AtomicIntent {
        path: "crates/engine/src/trace.rs",
        atomic: "INSTANCE_IDS",
        allowed: &["Relaxed"],
        why: "unique engine-instance id for trace grouping; uniqueness needs \
              atomicity, not ordering",
    },
    AtomicIntent {
        path: "crates/obs/src/flight.rs",
        atomic: "captured",
        allowed: &["Relaxed"],
        why: "monotone flight-capture counter; read only for reporting",
    },
    AtomicIntent {
        path: "crates/obs/src/flight.rs",
        atomic: "dropped",
        allowed: &["Relaxed"],
        why: "monotone overwrite counter; read only for reporting",
    },
    AtomicIntent {
        path: "crates/obs/src/flight.rs",
        atomic: "seq",
        allowed: &["Relaxed"],
        why: "per-entry sequence stamp; the drain sorts by it, so allocation order \
              needs atomicity only",
    },
    AtomicIntent {
        path: "crates/obs/src/flight.rs",
        atomic: "head",
        allowed: &["Relaxed"],
        why: "ring write cursor; slot claims need atomicity only — the entry payload \
              is handed over under the slot's Mutex, not by this index",
    },
    AtomicIntent {
        path: "crates/obs/src/flight.rs",
        atomic: "FLIGHT_ACTIVE",
        allowed: &["Relaxed", "SeqCst"],
        why: "Relaxed for the installed() fast-path load (a stale read only costs one \
              captured/uncaptured trace); SeqCst on install/uninstall so the count \
              totally orders with FLIGHT slot swaps",
    },
    AtomicIntent {
        path: "crates/obs/src/flight.rs",
        atomic: "DUMPING",
        allowed: &["SeqCst"],
        why: "poison_dump re-entrancy latch; runs on panic paths where a total order \
              is worth more than the saved fence",
    },
    AtomicIntent {
        path: "crates/obs/src/serve.rs",
        atomic: "healthy",
        allowed: &["Relaxed"],
        why: "OpsHealth flag read by /healthz; a stale read serves one slightly-old \
              health verdict, which scraping tolerates by design",
    },
    AtomicIntent {
        path: "crates/obs/src/serve.rs",
        atomic: "stop",
        allowed: &["SeqCst"],
        why: "ops-server shutdown latch; set once at shutdown, checked per accept — \
              not hot, so the strongest ordering documents intent for free",
    },
    AtomicIntent {
        path: "crates/demo/src/fail.rs",
        atomic: "DEMO_HITS",
        allowed: &["Relaxed"],
        why: "lint fixture pin: exercises the declared-but-wrong-ordering diagnostic",
    },
    AtomicIntent {
        path: "crates/demo/src/pass.rs",
        atomic: "DEMO_HITS",
        allowed: &["Relaxed"],
        why: "lint fixture pin: exercises the declared-and-conforming path",
    },
];

/// A sanctioned raw-print site: one library file allowed to write to
/// stdout/stderr directly (the `no-raw-print-in-lib` rule skips it).
#[derive(Debug, Clone, Copy)]
pub struct RawPrintAllowance {
    /// Repo-relative file the allowance covers.
    pub path: &'static str,
    /// One-line rationale: why this file cannot route through
    /// `traj_obs` like everyone else.
    pub why: &'static str,
}

/// The raw-print allowance registry. Keep it short: the only library
/// code that may print is code for which the obs pipeline itself is
/// the thing that might be broken.
pub const RAW_PRINT_ALLOWED: &[RawPrintAllowance] = &[RawPrintAllowance {
    path: "crates/obs/src/serve.rs",
    why: "the ops HTTP server's accept-loop error report; it cannot route through \
          traj_obs because the recorder may be exactly the component being debugged, \
          and a silent accept failure would look like a healthy-but-mute server",
}];

/// A `query*` entry point sanctioned without a visible `QueryTrace` in
/// its span (the `trace-span-coverage` rule's ground truth): it
/// delegates to a traced sibling.
#[derive(Debug, Clone, Copy)]
pub struct TracedEntryPoint {
    /// Repo-relative file the function is defined in.
    pub path: &'static str,
    /// The function's name.
    pub func: &'static str,
    /// One-line rationale for the exemption.
    pub why: &'static str,
}

/// The traced-entry-point registry. Every public `query*` function in
/// `crates/engine` must return or fill a `QueryTrace`; the ones listed
/// here are sanctioned because they delegate into one that does.
pub const TRACED_ENTRY_POINTS: &[TracedEntryPoint] = &[
    TracedEntryPoint {
        path: "crates/engine/src/sharded.rs",
        func: "query",
        why: "both ShardedEngine::query and ShardReader::query delegate to their \
              query_traced siblings",
    },
    TracedEntryPoint {
        path: "crates/engine/src/sharded.rs",
        func: "query_with_info",
        why: "both query_with_info variants delegate to their query_traced siblings",
    },
    TracedEntryPoint {
        path: "crates/engine/src/sharded.rs",
        func: "query_many",
        why: "runs every member through query_pinned, the traced single-query path",
    },
];

/// A file sanctioned to contain `unsafe` (the `unsafe-registry` rule's
/// ground truth). Library crates cannot appear here: each carries
/// `#![forbid(unsafe_code)]`.
#[derive(Debug, Clone, Copy)]
pub struct UnsafeSite {
    /// Repo-relative file the `unsafe` lives in.
    pub path: &'static str,
    /// One-line rationale: what safe code cannot express there.
    pub why: &'static str,
}

/// The workspace's `unsafe`, all of it.
pub const UNSAFE_SITES: &[UnsafeSite] = &[
    UnsafeSite {
        path: "tests/embed_allocations.rs",
        why: "test-only counting `GlobalAlloc`: the trait is unsafe to implement, and \
              counting allocations is how the zero-allocation disabled path is held",
    },
    UnsafeSite {
        path: "crates/demo/src/pass.rs",
        why: "lint fixture pin: exercises the declared-site path",
    },
];

/// The lint fixture namespace: registry entries under this prefix pin
/// fixture behaviour and are exempt from staleness warnings.
pub const FIXTURE_PATH_PREFIX: &str = "crates/demo/";

/// Duplicate entries would defeat the whole point of the registry; the
/// driver checks this on every run (and the test below pins it).
pub fn registry_duplicates() -> Vec<&'static str> {
    let mut seen = std::collections::HashSet::new();
    KNOWN_MAGICS.iter().filter(|m| !seen.insert(**m)).copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_no_duplicates() {
        assert!(registry_duplicates().is_empty());
    }

    #[test]
    fn registry_entries_look_like_magics() {
        for m in KNOWN_MAGICS {
            assert!((4..=8).contains(&m.len()), "{m}");
            assert!(m.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit()), "{m}");
        }
    }

    #[test]
    fn lock_helpers_are_unique_by_name_and_carry_rationale() {
        let mut seen = std::collections::HashSet::new();
        for h in LOCK_HELPERS {
            assert!(seen.insert(h.name), "helper name {} registered twice", h.name);
            assert!(!h.why.trim().is_empty(), "{}: empty rationale", h.name);
            assert!(h.path.starts_with("crates/"), "{}: odd path {}", h.name, h.path);
        }
    }

    #[test]
    fn atomic_intents_are_unique_per_site_and_use_real_orderings() {
        const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
        let mut seen = std::collections::HashSet::new();
        for i in ATOMIC_INTENTS {
            assert!(seen.insert((i.path, i.atomic)), "{}:{} declared twice", i.path, i.atomic);
            assert!(!i.allowed.is_empty(), "{}: empty allowed set", i.atomic);
            for o in i.allowed {
                assert!(ORDERINGS.contains(o), "{}: unknown ordering {o}", i.atomic);
            }
            assert!(!i.why.trim().is_empty(), "{}: empty rationale", i.atomic);
        }
    }

    #[test]
    fn raw_print_allowances_are_unique_and_carry_rationale() {
        let mut seen = std::collections::HashSet::new();
        for a in RAW_PRINT_ALLOWED {
            assert!(seen.insert(a.path), "{} allowed twice", a.path);
            assert!(!a.why.trim().is_empty(), "{}: empty rationale", a.path);
            assert!(a.path.starts_with("crates/"), "odd path {}", a.path);
        }
    }

    #[test]
    fn traced_entry_points_are_unique_and_engine_scoped() {
        let mut seen = std::collections::HashSet::new();
        for e in TRACED_ENTRY_POINTS {
            assert!(seen.insert((e.path, e.func)), "{}:{} declared twice", e.path, e.func);
            assert!(!e.why.trim().is_empty(), "{}: empty rationale", e.func);
            assert!(
                e.path.starts_with("crates/engine/src/")
                    || e.path.starts_with(FIXTURE_PATH_PREFIX),
                "{}: the rule only covers crates/engine",
                e.path
            );
            assert!(e.func.starts_with("query"), "{}: rule only matches query*", e.func);
        }
    }

    #[test]
    fn unsafe_sites_are_unique_outside_library_crates_and_carry_rationale() {
        let mut seen = std::collections::HashSet::new();
        for u in UNSAFE_SITES {
            assert!(seen.insert(u.path), "{} declared twice", u.path);
            assert!(!u.why.trim().is_empty(), "{}: empty rationale", u.path);
            assert!(
                !u.path.contains("/src/") || u.path.starts_with(FIXTURE_PATH_PREFIX),
                "{}: library code forbids unsafe",
                u.path
            );
        }
    }

    #[test]
    fn compute_calls_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for c in COMPUTE_CALLS {
            assert!(seen.insert(*c), "compute call {c} listed twice");
        }
    }
}
