//! The workspace invariant registries: the single place every sanctioned
//! lock helper, compute boundary and raw-print file is declared.
//!
//! Three tables live here:
//!
//! * [`LOCK_HELPERS`] — the poison-proof lock-acquisition helpers,
//!   backing `no-bare-lock`: only these functions may call
//!   `.lock()`/`.read()`/`.write()` directly, and only in their
//!   registered file;
//! * [`COMPUTE_CALLS`] — the heavy compute/IO entry points a lock guard
//!   must never be held across, backing `no-guard-across-compute`;
//! * [`RAW_PRINT_ALLOWED`] — the library files sanctioned to print to
//!   stdout/stderr directly, backing `no-raw-print-in-lib`.
//!
//! Declaring intent centrally is the point: a new lock helper shows up
//! as a diff *to this file*, where a reviewer sees the whole poison
//! policy at a glance.

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
/// truth).
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn raw_print_allowances_are_unique_and_carry_rationale() {
        let mut seen = std::collections::HashSet::new();
        for a in RAW_PRINT_ALLOWED {
            assert!(seen.insert(a.path), "{} allowed twice", a.path);
            assert!(!a.why.trim().is_empty(), "{}: empty rationale", a.path);
            assert!(a.path.starts_with("crates/"), "odd path {}", a.path);
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
