//! # traj-obs — zero-dependency observability for the Traj2Hash workspace
//!
//! The serving and training layers need one answer to "why did recall
//! drop" and "which strategy is slow" without a debugger: hierarchical
//! spans with wall-clock timings, counters and gauges, and log-bucketed
//! latency histograms (p50/p95/p99), all behind a cheap global recorder.
//!
//! Design constraints, in order:
//!
//! 1. **Near-zero disabled overhead.** Every emission site first loads
//!    one relaxed atomic ([`enabled`]); with no recorder installed the
//!    call returns immediately — no clock read, no allocation, no lock.
//!    The hot paths PR 2 optimized stay hot.
//! 2. **Zero dependencies, offline friendly.** No `tracing`, no
//!    `serde`: the JSONL sink hand-writes (and hand-parses, for the
//!    round-trip gate) its own lines.
//! 3. **Test isolation.** [`with_local_recorder`] installs a recorder
//!    for the current thread only, so parallel tests never observe each
//!    other's metrics.
//!
//! ## Sinks
//!
//! * [`InMemoryRecorder`] — aggregates everything; tests assert on its
//!   [`aggregates`](InMemoryRecorder::aggregates) and `/metrics` renders
//!   them.
//! * [`JsonlRecorder`] — streams events/spans as JSON lines and dumps
//!   aggregated counters/gauges/histograms on [`flush`](Recorder::flush);
//!   enabled in binaries via `OBS_JSONL=path` ([`init_from_env`]).
//!
//! ## Emitting
//!
//! ```
//! let _handle = traj_obs::with_local_recorder(
//!     std::sync::Arc::new(traj_obs::InMemoryRecorder::default()),
//!     || {
//!         let _span = traj_obs::span("epoch").field("epoch", 0u64);
//!         traj_obs::counter("train.batches", 1);
//!         traj_obs::observe_secs("engine.query.hamming_bf", 1.2e-4);
//!         traj_obs::event("train.rollback", &[("epoch", 3u64.into())]);
//!     },
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used)]
#![deny(clippy::print_stdout, clippy::print_stderr)]
#![deny(clippy::cast_possible_truncation, clippy::cast_sign_loss, clippy::cast_possible_wrap)]
#![warn(missing_docs)]

pub mod flight;
pub mod hist;
pub mod jsonl;
pub mod memory;
pub mod serve;

pub use flight::{FlightConfig, FlightEntry, FlightRecorder};
pub use hist::Histogram;
pub use jsonl::{parse_json, validate_record, Json, JsonlRecorder, RecordSummary};
pub use memory::{Aggregates, EventRecord, InMemoryRecorder, SpanRecord};
pub use serve::{render_prometheus, validate_exposition, OpsHealth, OpsServer};

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Values and fields
// ---------------------------------------------------------------------

/// A structured field value on an event or span.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// String.
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<f32> for Value {
    fn from(v: f32) -> Self {
        Value::F64(v as f64)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One `key = value` pair attached to an event or span.
pub type Field = (&'static str, Value);

// ---------------------------------------------------------------------
// The recorder trait and the global/local installation machinery
// ---------------------------------------------------------------------

/// A metric/event sink. Implementations must be cheap enough to sit on
/// per-query paths when enabled, and are only ever called when a
/// recorder is actually installed.
pub trait Recorder: Send + Sync {
    /// Adds `delta` to the named monotonic counter.
    fn counter(&self, name: &str, delta: u64);
    /// Sets the named gauge to `value` (last write wins).
    fn gauge(&self, name: &str, value: f64);
    /// Records one observation into the named log-bucketed histogram.
    /// Latencies are recorded in seconds; other magnitudes (candidate
    /// counts, byte sizes) use their natural unit.
    fn observe(&self, name: &str, value: f64);
    /// Records a discrete event with structured fields.
    fn event(&self, name: &str, fields: &[Field]);
    /// Records a completed span: its `/`-joined ancestry path and
    /// wall-clock duration.
    fn span_end(&self, path: &str, seconds: f64, fields: &[Field]);
    /// Flushes buffered output (JSONL metric summaries, file buffers).
    fn flush(&self) {}
    /// A snapshot of the aggregated counters/gauges/histograms, when
    /// the sink keeps one. The ops server's `/metrics` endpoint renders
    /// whatever this returns; sinks without aggregation return `None`
    /// (the default) and scrape as an empty exposition.
    fn aggregates_snapshot(&self) -> Option<Aggregates> {
        None
    }
}

/// Number of installed recorders (global slot counts 1, each thread
/// local counts 1). The disabled fast path is a single relaxed load of
/// this counter (a stale read costs one recorded or unrecorded event).
/// Install and uninstall use `SeqCst` so the count is totally ordered
/// with the `GLOBAL` swaps.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: RwLock<Option<Arc<dyn Recorder>>> = RwLock::new(None);

thread_local! {
    static LOCAL: RefCell<Option<Arc<dyn Recorder>>> = const { RefCell::new(None) };
    static SPAN_STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

/// Poison-proof mutex acquisition for recorder internals: a recorder
/// panicking while holding its own lock must not disable observability
/// for the rest of the process. This is the obs crate's one sanctioned
/// `Mutex` acquisition point (`clippy.toml` disallows the rest). Recovering
/// from poison means a panic unwound through instrumented code — that
/// is exactly the moment tail exemplars matter, so the poison arm
/// force-dumps the flight recorder (re-entrancy-guarded) before
/// continuing. The poisoned guard is released first: the dump drains
/// the flight ring, whose slots are taken through this helper too.
#[expect(clippy::disallowed_methods, reason = "the recorder mutexes' one acquisition point")]
pub(crate) fn olock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => {
            drop(poisoned);
            flight::poison_dump("obs.lock.poisoned");
            m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
        }
    }
}

/// Poison-proof read of the global recorder slot. Recovery is sound
/// because the slot only ever holds a whole `Option<Arc<..>>` that is
/// replaced atomically under the write lock — a panicked installer
/// cannot leave it half-written.
#[expect(clippy::disallowed_methods, reason = "the global recorder slot's one read point")]
fn gread() -> std::sync::RwLockReadGuard<'static, Option<Arc<dyn Recorder>>> {
    match GLOBAL.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Poison-proof write of the global recorder slot; see [`gread`].
#[expect(clippy::disallowed_methods, reason = "the global recorder slot's one write point")]
fn gwrite() -> std::sync::RwLockWriteGuard<'static, Option<Arc<dyn Recorder>>> {
    match GLOBAL.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// True when any recorder (global or thread-local) is installed. This
/// is the disabled-overhead fast path: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    ACTIVE.load(Ordering::Relaxed) != 0
}

/// Installs `rec` as the process-wide recorder, replacing any previous
/// one. Thread-local recorders (tests) take precedence on their thread.
pub fn install(rec: Arc<dyn Recorder>) {
    let mut g = gwrite();
    if g.is_none() {
        ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    *g = Some(rec);
}

/// Removes the process-wide recorder; emission sites return to the
/// near-zero no-op path.
pub fn uninstall() {
    let mut g = gwrite();
    if g.take().is_some() {
        ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs `f` with `rec` installed for the **current thread only**,
/// shadowing the global recorder. The previous state is restored even
/// if `f` panics. This is how tests observe their own emissions without
/// interference from concurrently running tests.
pub fn with_local_recorder<R>(rec: Arc<dyn Recorder>, f: impl FnOnce() -> R) -> R {
    struct Reset(Option<Arc<dyn Recorder>>);
    impl Drop for Reset {
        fn drop(&mut self) {
            LOCAL.with(|l| *l.borrow_mut() = self.0.take());
            ACTIVE.fetch_sub(1, Ordering::SeqCst);
        }
    }
    let prev = LOCAL.with(|l| l.borrow_mut().replace(rec));
    ACTIVE.fetch_add(1, Ordering::SeqCst);
    let _reset = Reset(prev);
    f()
}

/// The recorder emissions on this thread should go to, if any.
fn current() -> Option<Arc<dyn Recorder>> {
    if !enabled() {
        return None;
    }
    if let Some(local) = LOCAL.with(|l| l.borrow().clone()) {
        return Some(local);
    }
    gread().clone()
}

// ---------------------------------------------------------------------
// Emission entry points
// ---------------------------------------------------------------------

/// Adds `delta` to a monotonic counter. No-op without a recorder.
#[inline]
pub fn counter(name: &str, delta: u64) {
    if let Some(r) = current() {
        r.counter(name, delta);
    }
}

/// Sets a gauge. No-op without a recorder.
#[inline]
pub fn gauge(name: &str, value: f64) {
    if let Some(r) = current() {
        r.gauge(name, value);
    }
}

/// Records one histogram observation (seconds for latencies). No-op
/// without a recorder.
#[inline]
pub fn observe_secs(name: &str, seconds: f64) {
    if let Some(r) = current() {
        r.observe(name, seconds);
    }
}

/// Records one histogram observation of a non-latency magnitude
/// (candidate counts, bytes). Same machinery as [`observe_secs`],
/// separate name so call sites document their unit.
#[inline]
pub fn observe_value(name: &str, value: f64) {
    if let Some(r) = current() {
        r.observe(name, value);
    }
}

/// Records a discrete structured event. No-op without a recorder.
#[inline]
pub fn event(name: &str, fields: &[Field]) {
    if let Some(r) = current() {
        r.event(name, fields);
    }
}

/// Flushes the installed recorder(s), if any.
pub fn flush() {
    if let Some(r) = current() {
        r.flush();
    }
}

/// A snapshot of the installed recorder's aggregated metrics, if a
/// recorder is installed and keeps aggregates. This is what the ops
/// server's `/metrics` endpoint scrapes.
pub fn snapshot_aggregates() -> Option<Aggregates> {
    current().and_then(|r| r.aggregates_snapshot())
}

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// A live hierarchical span; records its wall-clock duration and
/// `/`-joined ancestry path on drop. Inert (no clock read, no stack
/// push) when no recorder is installed at creation time.
#[must_use = "a span measures the scope it is bound to; dropping it immediately measures nothing"]
pub struct Span {
    start: Option<Instant>,
    fields: Vec<Field>,
}

/// Opens a span named `name` nested under any spans already open on
/// this thread.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { start: None, fields: Vec::new() };
    }
    SPAN_STACK.with(|s| s.borrow_mut().push(name));
    Span { start: Some(Instant::now()), fields: Vec::new() }
}

impl Span {
    /// Attaches a field (builder style, for values known up front).
    pub fn field(mut self, key: &'static str, value: impl Into<Value>) -> Self {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
        self
    }

    /// Attaches a field to an already-bound span (for values only known
    /// at the end of the scope, like a loss).
    pub fn add_field(&mut self, key: &'static str, value: impl Into<Value>) {
        if self.start.is_some() {
            self.fields.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let seconds = start.elapsed().as_secs_f64();
        let path = SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            let path = stack.join("/");
            stack.pop();
            path
        });
        if let Some(r) = current() {
            r.span_end(&path, seconds, &self.fields);
        }
    }
}

// ---------------------------------------------------------------------
// Environment bootstrap for binaries
// ---------------------------------------------------------------------

/// Binary bootstrap: installs the JSONL exporter globally when
/// `OBS_JSONL=path` is set, otherwise an in-memory recorder (which
/// backs the ops server's `/metrics`). Library code never calls this —
/// recorder installation is the application's decision.
pub fn init_from_env() -> std::io::Result<()> {
    match std::env::var_os("OBS_JSONL") {
        Some(path) => install(Arc::new(JsonlRecorder::create(std::path::Path::new(&path))?)),
        None => install(Arc::new(InMemoryRecorder::default())),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_calls_are_inert() {
        // No recorder installed on this thread: nothing panics, nothing
        // allocates a span stack entry.
        counter("x", 1);
        gauge("x", 1.0);
        observe_secs("x", 0.1);
        event("x", &[("k", 1u64.into())]);
        let s = span("quiet");
        drop(s);
        SPAN_STACK.with(|st| assert!(st.borrow().is_empty()));
    }

    #[test]
    fn local_recorder_captures_and_restores() {
        let rec = Arc::new(InMemoryRecorder::default());
        let out = with_local_recorder(rec.clone(), || {
            counter("c", 2);
            counter("c", 3);
            gauge("g", 0.5);
            observe_secs("h", 0.001);
            event("e", &[("answer", 42u64.into())]);
            7
        });
        assert_eq!(out, 7);
        let agg = rec.aggregates();
        assert_eq!(agg.counters.get("c"), Some(&5));
        assert_eq!(agg.gauges.get("g"), Some(&0.5));
        assert_eq!(agg.histograms.get("h").map(|h| h.count()), Some(1));
        assert_eq!(agg.events.len(), 1);
        assert_eq!(agg.events[0].name, "e");
        // After the scope the thread is back to no-op.
        counter("c", 100);
        assert_eq!(rec.aggregates().counters.get("c"), Some(&5));
    }

    #[test]
    fn spans_nest_into_slash_paths() {
        let rec = Arc::new(InMemoryRecorder::default());
        with_local_recorder(rec.clone(), || {
            let _outer = span("train");
            {
                let _inner = span("epoch").field("epoch", 3u64);
                let _leaf = span("checkpoint_write");
            }
        });
        let agg = rec.aggregates();
        let paths: Vec<&str> = agg.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, vec!["train/epoch/checkpoint_write", "train/epoch", "train"]);
        let epoch = &agg.spans[1];
        assert_eq!(epoch.fields[0].0, "epoch");
        assert!(epoch.seconds >= 0.0);
    }

    #[test]
    fn local_recorder_survives_inner_panic() {
        let rec = Arc::new(InMemoryRecorder::default());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            with_local_recorder(rec.clone(), || {
                counter("before", 1);
                panic!("boom");
            })
        }));
        assert!(result.is_err());
        // TLS restored: this emission is a no-op, not a capture.
        counter("after", 1);
        let agg = rec.aggregates();
        assert_eq!(agg.counters.get("before"), Some(&1));
        assert_eq!(agg.counters.get("after"), None);
    }

    #[test]
    fn global_install_uninstall_toggles_enabled() {
        // Serialized through the global slot: this test is the only one
        // in the crate touching the global recorder.
        assert!(!enabled() || ACTIVE.load(Ordering::SeqCst) > 0);
        let rec = Arc::new(InMemoryRecorder::default());
        install(rec.clone());
        assert!(enabled());
        counter("global", 1);
        uninstall();
        counter("global", 1);
        assert_eq!(rec.aggregates().counters.get("global"), Some(&1));
    }
}
