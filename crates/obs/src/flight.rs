//! Tail-exemplar flight recorder: a ring buffer of recent slow-query
//! traces, force-dumped to JSONL when the engine degrades,
//! a refresh fails, or a panic poisons an instrumented lock.
//!
//! Aggregate histograms (PR 5) answer "what is p99"; the flight
//! recorder answers "show me the last N queries that *were* the p99".
//! Producers call [`offer`] with the query's wall-clock seconds and a
//! closure that builds the trace fields; the closure only runs when the
//! latency lands at or above the configured tail bucket, so fast
//! queries pay one atomic load and one bucket comparison.
//!
//! The ring is a fixed array of `Mutex<Option<FlightEntry>>` slots, each
//! held only to move one entry in or out: capture replaces a slot's
//! entry and counts what it displaced, drain takes what it finds. The
//! capture path already allocates per entry and runs for tail exemplars
//! only, so an uncontended slot lock costs nothing that shows. Only
//! [`force_dump`] serializes on more than a slot (via `try_lock`, so a
//! dump contended by another dump is skipped rather than waited for,
//! which keeps the poison path re-entrancy safe).

use crate::hist::bucket_of;
use crate::jsonl::{event_line, parse_json, validate_record, Json};
use crate::{olock, Field};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock};

/// Configuration for a [`FlightRecorder`].
#[derive(Debug, Clone)]
pub struct FlightConfig {
    /// Ring capacity: how many tail exemplars are retained before the
    /// oldest is overwritten. Clamped to at least 1.
    pub capacity: usize,
    /// Latency threshold in seconds. A query qualifies for capture when
    /// its latency lands in the same log-histogram bucket as this value
    /// or higher (bucket-granularity comparison, matching how the
    /// aggregate histograms would classify it). `0.0` captures
    /// everything.
    pub tail_threshold_seconds: f64,
    /// Where [`force_dump`] appends JSONL; `None` disables dumping
    /// (the ring still captures and [`drain`](FlightRecorder::drain)
    /// still works, e.g. for the `/traces` endpoint).
    pub dump_path: Option<PathBuf>,
}

impl Default for FlightConfig {
    fn default() -> Self {
        FlightConfig { capacity: 64, tail_threshold_seconds: 0.0, dump_path: None }
    }
}

/// One captured trace: a named event plus its structured fields, stamped
/// with a process-wide capture sequence number.
#[derive(Debug, Clone)]
pub struct FlightEntry {
    /// Monotone capture sequence (process-wide per recorder); drains
    /// and dumps are ordered by this.
    pub seq: u64,
    /// Event name, e.g. `flight.trace`.
    pub name: &'static str,
    /// Structured trace fields. The recorder appends `flight_seq` and
    /// `seconds` at capture time.
    pub fields: Vec<Field>,
}

impl FlightEntry {
    /// Renders the entry as one JSONL event line, byte-compatible with
    /// the [`JsonlRecorder`](crate::JsonlRecorder) event schema so the
    /// same validator reads both.
    pub fn to_json_line(&self) -> String {
        event_line(self.name, &self.fields)
    }
}

/// The ring buffer of tail exemplars. Install one globally with
/// [`install`]; producers reach it through [`offer`].
///
/// Every atomic here is `Relaxed`: each needs atomicity only. An entry
/// is handed over under its slot's `Mutex`, never by an index, and the
/// drain orders entries by `seq`.
pub struct FlightRecorder {
    slots: Vec<Mutex<Option<FlightEntry>>>,
    /// Write cursor: the next slot a capture claims.
    head: AtomicUsize,
    /// The next capture's sequence stamp.
    seq: AtomicU64,
    threshold_bucket: usize,
    /// Entries captured (monotone; read only for reporting).
    captured: AtomicU64,
    /// Entries overwritten before a drain (monotone; reporting only).
    dropped: AtomicU64,
    dump_path: Option<PathBuf>,
    dump_file: Mutex<()>,
}

impl FlightRecorder {
    /// Builds a recorder from `cfg` (capacity clamped to at least 1,
    /// non-finite/negative thresholds treated as 0).
    pub fn new(cfg: FlightConfig) -> Self {
        let capacity = cfg.capacity.max(1);
        let threshold = if cfg.tail_threshold_seconds.is_finite() && cfg.tail_threshold_seconds > 0.0
        {
            cfg.tail_threshold_seconds
        } else {
            0.0
        };
        FlightRecorder {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            threshold_bucket: if threshold == 0.0 { 0 } else { bucket_of(threshold) },
            captured: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            dump_path: cfg.dump_path,
            dump_file: Mutex::new(()),
        }
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries captured so far (including ones since overwritten).
    pub fn captured(&self) -> u64 {
        self.captured.load(Ordering::Relaxed)
    }

    /// Entries overwritten before ever being drained or dumped.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Whether a latency of `seconds` lands at or above the tail
    /// threshold bucket (non-finite and negative latencies never
    /// qualify — they are quarantined by the histograms too).
    pub fn qualifies(&self, seconds: f64) -> bool {
        seconds.is_finite() && seconds >= 0.0 && bucket_of(seconds) >= self.threshold_bucket
    }

    /// Captures one trace if `seconds` qualifies; `build` runs only on
    /// the capture path. Returns whether the entry was retained.
    pub fn offer(&self, seconds: f64, build: impl FnOnce() -> (&'static str, Vec<Field>)) -> bool {
        if !self.qualifies(seconds) {
            return false;
        }
        let (name, mut fields) = build();
        let seq = self.seq.fetch_add(1, Ordering::Relaxed);
        fields.push(("flight_seq", seq.into()));
        fields.push(("seconds", seconds.into()));
        let idx = self.head.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        let displaced = olock(&self.slots[idx]).replace(FlightEntry { seq, name, fields });
        if displaced.is_some() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        self.captured.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Takes every retained entry out of the ring, oldest first.
    pub fn drain(&self) -> Vec<FlightEntry> {
        let mut out: Vec<FlightEntry> =
            self.slots.iter().filter_map(|slot| olock(slot).take()).collect();
        out.sort_by_key(|e| e.seq);
        out
    }

    /// Poison-proof, non-blocking acquisition of the dump-file lock.
    /// `None` means another dump is in flight (skip, never wait: the
    /// caller may be inside a panic path).
    fn try_dump_lock(&self) -> Option<MutexGuard<'_, ()>> {
        match self.dump_file.try_lock() {
            Ok(g) => Some(g),
            Err(std::sync::TryLockError::WouldBlock) => None,
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
        }
    }

    /// Drains the ring and appends the entries to the configured dump
    /// path as JSONL, preceded by a `flight.dump` header event carrying
    /// `reason` and the entry count. Returns the number of trace
    /// entries written (0 when no path is configured, the ring is
    /// empty, another dump holds the lock, or IO fails — a failed dump
    /// must never take the process down).
    pub fn force_dump(&self, reason: &str) -> usize {
        let Some(path) = &self.dump_path else { return 0 };
        let Some(_guard) = self.try_dump_lock() else { return 0 };
        let entries = self.drain();
        if entries.is_empty() {
            return 0;
        }
        let Ok(mut file) =
            std::fs::OpenOptions::new().create(true).append(true).open(path)
        else {
            return 0;
        };
        let mut body =
            event_line("flight.dump", &[("reason", reason.into()), ("entries", entries.len().into())]);
        body.push('\n');
        for e in &entries {
            body.push_str(&e.to_json_line());
            body.push('\n');
        }
        match file.write_all(body.as_bytes()) {
            Ok(()) => entries.len(),
            Err(_) => 0,
        }
    }
}

// ---------------------------------------------------------------------
// Global installation (mirrors the recorder slot in lib.rs)
// ---------------------------------------------------------------------

/// Whether a flight recorder is installed: one relaxed load, the
/// disabled fast path for [`offer`] (a stale read costs one captured or
/// uncaptured trace). Install and uninstall use `SeqCst` so the count
/// is totally ordered with the `FLIGHT` slot swaps.
static FLIGHT_ACTIVE: AtomicUsize = AtomicUsize::new(0);

static FLIGHT: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);

/// Re-entrancy guard for [`poison_dump`]: a dump triggered by lock
/// poison must not recurse into another dump if the dump path itself
/// trips a poisoned lock. `SeqCst`: it runs on panic paths, where a
/// total order is worth more than the saved fence.
static DUMPING: AtomicBool = AtomicBool::new(false);

/// Poison-proof read of the global flight slot; recovery is sound
/// because the slot only ever holds a whole `Option<Arc<..>>` replaced
/// atomically under the write lock.
#[expect(clippy::disallowed_methods, reason = "the flight slot's one read point")]
fn fread() -> std::sync::RwLockReadGuard<'static, Option<Arc<FlightRecorder>>> {
    match FLIGHT.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Poison-proof write of the global flight slot; see [`fread`].
#[expect(clippy::disallowed_methods, reason = "the flight slot's one write point")]
fn fwrite() -> std::sync::RwLockWriteGuard<'static, Option<Arc<FlightRecorder>>> {
    match FLIGHT.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Installs a flight recorder process-wide, replacing any previous one,
/// and returns a handle to it (for draining and stats).
pub fn install(cfg: FlightConfig) -> Arc<FlightRecorder> {
    let rec = Arc::new(FlightRecorder::new(cfg));
    let mut g = fwrite();
    if g.is_none() {
        FLIGHT_ACTIVE.fetch_add(1, Ordering::SeqCst);
    }
    *g = Some(rec.clone());
    rec
}

/// Removes the process-wide flight recorder; [`offer`] returns to the
/// one-atomic-load no-op path.
pub fn uninstall() {
    let mut g = fwrite();
    if g.take().is_some() {
        FLIGHT_ACTIVE.fetch_sub(1, Ordering::SeqCst);
    }
}

/// True when a flight recorder is installed. One relaxed atomic load —
/// safe on the hottest query path.
#[inline]
pub fn installed() -> bool {
    FLIGHT_ACTIVE.load(Ordering::Relaxed) != 0
}

/// The installed flight recorder, if any.
pub fn recorder() -> Option<Arc<FlightRecorder>> {
    if !installed() {
        return None;
    }
    fread().clone()
}

/// Offers a trace to the installed flight recorder. No-op (one relaxed
/// load) when none is installed; `build` runs only when the latency
/// qualifies for capture.
#[inline]
pub fn offer(seconds: f64, build: impl FnOnce() -> (&'static str, Vec<Field>)) {
    if !installed() {
        return;
    }
    if let Some(rec) = recorder() {
        rec.offer(seconds, build);
    }
}

/// Force-dumps the installed flight recorder (see
/// [`FlightRecorder::force_dump`]). Returns the number of entries
/// written; 0 when no recorder is installed.
pub fn force_dump(reason: &str) -> usize {
    match recorder() {
        Some(rec) => rec.force_dump(reason),
        None => 0,
    }
}

/// The panic/poison hook: force-dumps with a re-entrancy guard so a
/// poisoned lock *inside* the dump path cannot recurse. Called from
/// the poison arms of the workspace's poison-proof lock helpers.
pub fn poison_dump(context: &str) {
    if DUMPING.swap(true, Ordering::SeqCst) {
        return;
    }
    force_dump(context);
    DUMPING.store(false, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Offline dump validation
// ---------------------------------------------------------------------

fn field_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, String> {
    doc.get("fields")
        .and_then(|f| f.get(key))
        .and_then(Json::as_str)
        .ok_or_else(|| format!("trace missing string field '{key}'"))
}

#[expect(
    clippy::cast_possible_truncation,
    clippy::cast_sign_loss,
    reason = "the value is checked to be a nonnegative integer first"
)]
fn field_u64(doc: &Json, key: &str) -> Result<u64, String> {
    let v = doc
        .get("fields")
        .and_then(|f| f.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("trace missing numeric field '{key}'"))?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("field '{key}' = {v} is not a nonnegative integer"));
    }
    Ok(v as u64)
}

fn parse_u64_list(text: &str, key: &str) -> Result<Vec<u64>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',')
        .map(|t| t.parse::<u64>().map_err(|_| format!("field '{key}' has non-integer item {t:?}")))
        .collect()
}

/// Per-shard last-seen publish seq, keyed `(engine, instance,
/// shard_count)`, in flight_seq order (dumps append drains in seq
/// order). The optional `instance` field separates traces from
/// unrelated engine instances whose seqs would otherwise conflate.
type LastSeqs = std::collections::BTreeMap<(String, u64, usize), Vec<u64>>;

/// The checks of one `flight.trace` line beyond its record shape.
fn validate_trace(doc: &Json, last_seqs: &mut LastSeqs) -> Result<(), String> {
    let [encode, fanout, merge, total] =
        ["encode_us", "fanout_us", "merge_us", "total_us"].map(|key| field_u64(doc, key));
    let (stages, total) = (encode?.saturating_add(fanout?).saturating_add(merge?), total?);
    if stages > total {
        return Err(format!("stages sum to {stages} us, over total_us {total}"));
    }
    let engine = field_str(doc, "engine")?.to_string();
    #[expect(clippy::cast_possible_truncation, reason = "shard counts are tiny")]
    let shards = field_u64(doc, "shards")? as usize;
    let seqs = parse_u64_list(field_str(doc, "shard_seqs")?, "shard_seqs")?;
    let gens = parse_u64_list(field_str(doc, "shard_gens")?, "shard_gens")?;
    let cands = parse_u64_list(field_str(doc, "shard_candidates")?, "shard_candidates")?;
    let paths = field_str(doc, "shard_paths")?;
    let paths: Vec<&str> = if paths.is_empty() { Vec::new() } else { paths.split(',').collect() };
    if paths.iter().any(|p| p.is_empty()) {
        return Err("shard_paths has an empty label".into());
    }
    for (key, len) in [
        ("shard_seqs", seqs.len()),
        ("shard_gens", gens.len()),
        ("shard_candidates", cands.len()),
        ("shard_paths", paths.len()),
    ] {
        if len != shards {
            return Err(format!("{key} has {len} items for {shards} shards"));
        }
    }
    if gens.contains(&0) {
        return Err("shard generation 0 (generations start at 1)".into());
    }
    let total = field_u64(doc, "candidates")?;
    let sum: u64 = cands.iter().sum();
    if total != sum {
        return Err(format!("candidates {total} != per-shard sum {sum}"));
    }
    let instance = match doc.get("fields").and_then(|f| f.get("instance")) {
        Some(_) => field_u64(doc, "instance")?,
        None => 0,
    };
    let entry = last_seqs.entry((engine, instance, shards)).or_insert_with(|| vec![0; shards]);
    for (shard, (&seq, last)) in seqs.iter().zip(entry.iter_mut()).enumerate() {
        if seq < *last {
            return Err(format!("shard {shard} publish seq went backwards ({last} then {seq})"));
        }
        *last = seq;
    }
    Ok(())
}

/// Offline self-validation of a flight-recorder dump file: every line
/// is a well-formed `flight.dump` header or `flight.trace` event; trace
/// query ids are unique; the encode, fan-out and merge clocks sum to at
/// most the total; the per-shard lists agree with the shard count and
/// the candidate total; and per-shard publish seqs are non-decreasing
/// across traces from the same engine/shard-count group. Returns the
/// number of trace lines.
pub fn validate_flight_dump(text: &str) -> Result<usize, String> {
    let mut ids = std::collections::BTreeSet::new();
    let mut last_seqs = LastSeqs::new();
    let mut traces = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        let at = |e: String| format!("line {n}: {e}");
        let rs = validate_record(line).map_err(at)?;
        if rs.kind != "event" {
            return Err(at(format!("unexpected kind '{}' in flight dump", rs.kind)));
        }
        match rs.name.as_str() {
            "flight.dump" => continue,
            "flight.trace" => {}
            other => return Err(at(format!("unexpected event '{other}' in flight dump"))),
        }
        traces += 1;
        let doc = parse_json(line).map_err(at)?;
        let id = field_u64(&doc, "query_id").map_err(at)?;
        if !ids.insert(id) {
            return Err(at(format!("duplicate query_id {id}")));
        }
        validate_trace(&doc, &mut last_seqs).map_err(at)?;
    }
    Ok(traces)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Held by every unit test that reaches the process-wide flight
    /// slot, so they run one at a time: `serve.rs`'s `/traces` drains
    /// whatever ring the flight test has installed.
    pub(crate) static SLOT_TESTS: Mutex<()> = Mutex::new(());

    fn trace_fields(id: u64, seqs: &str, cands: &[u64]) -> (&'static str, Vec<Field>) {
        let total: u64 = cands.iter().sum();
        let cand_list = cands.iter().map(u64::to_string).collect::<Vec<_>>().join(",");
        let gens = cands.iter().map(|_| "1").collect::<Vec<_>>().join(",");
        let paths = cands.iter().map(|_| "indexed").collect::<Vec<_>>().join(",");
        (
            "flight.trace",
            vec![
                ("query_id", id.into()),
                ("strategy", "mih".into()),
                ("engine", "sharded".into()),
                ("shards", (cands.len() as u64).into()),
                ("candidates", total.into()),
                ("encode_us", 300u64.into()),
                ("fanout_us", 150u64.into()),
                ("merge_us", 2u64.into()),
                ("total_us", 460u64.into()),
                ("shard_seqs", seqs.to_string().into()),
                ("shard_gens", gens.into()),
                ("shard_candidates", cand_list.into()),
                ("shard_paths", paths.into()),
            ],
        )
    }

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("traj-flight-{tag}-{}-{n}.jsonl", std::process::id()))
    }

    #[test]
    fn ring_captures_drains_and_overwrites_in_order() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 3,
            tail_threshold_seconds: 0.0,
            dump_path: None,
        });
        for i in 0..5u64 {
            assert!(rec.offer(1e-3, || trace_fields(i, "1,2", &[4, 6])));
        }
        assert_eq!(rec.captured(), 5);
        assert_eq!(rec.dropped(), 2);
        let entries = rec.drain();
        // Capacity 3: the two oldest were overwritten.
        assert_eq!(entries.len(), 3);
        let seqs: Vec<u64> = entries.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        // Drained means gone.
        assert!(rec.drain().is_empty());
    }

    #[test]
    fn threshold_filters_at_bucket_granularity() {
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 8,
            tail_threshold_seconds: 1e-3,
            dump_path: None,
        });
        assert!(!rec.qualifies(1e-6));
        assert!(!rec.qualifies(f64::NAN));
        assert!(!rec.qualifies(-1.0));
        assert!(rec.qualifies(1e-3));
        assert!(rec.qualifies(0.5));
        let mut built = false;
        assert!(!rec.offer(1e-6, || {
            built = true;
            trace_fields(0, "1", &[1])
        }));
        assert!(!built, "build closure must not run for fast queries");
        assert!(rec.offer(2e-3, || trace_fields(1, "1", &[1])));
        assert_eq!(rec.drain().len(), 1);
    }

    #[test]
    fn force_dump_round_trips_through_the_validator() {
        let path = temp_path("dump");
        let rec = FlightRecorder::new(FlightConfig {
            capacity: 8,
            tail_threshold_seconds: 0.0,
            dump_path: Some(path.clone()),
        });
        rec.offer(1e-3, || trace_fields(10, "1,1", &[3, 5]));
        rec.offer(2e-3, || trace_fields(11, "1,2", &[2, 2]));
        assert_eq!(rec.force_dump("engine.degraded"), 2);
        // Second dump on an empty ring writes nothing.
        assert_eq!(rec.force_dump("engine.degraded"), 0);

        // A later dump appends (publish seqs continue non-decreasing).
        rec.offer(3e-3, || trace_fields(12, "2,2", &[1, 1]));
        assert_eq!(rec.force_dump("soak.final"), 1);

        let text = std::fs::read_to_string(&path).expect("read dump");
        let traces = validate_flight_dump(&text).expect("dump validates");
        assert_eq!(traces, 3);
        assert!(text.lines().next().expect("header").contains("flight.dump"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validator_rejects_corrupt_dumps() {
        let good = FlightEntry {
            seq: 0,
            name: "flight.trace",
            fields: trace_fields(1, "1,1", &[2, 3]).1,
        }
        .to_json_line();
        assert_eq!(validate_flight_dump(&good), Ok(1));

        // Duplicate query id.
        let dup = format!("{good}\n{good}");
        assert!(validate_flight_dump(&dup).unwrap_err().contains("duplicate query_id"));

        // Candidate total disagrees with the per-shard rows.
        let bad_total = good.replace("\"candidates\":5", "\"candidates\":9");
        assert!(validate_flight_dump(&bad_total).unwrap_err().contains("per-shard sum"));

        // Each clock must be there and nonnegative, and the stages may
        // not outrun the total (300 + 150 + 2 against 460).
        for key in ["encode_us", "fanout_us", "merge_us", "total_us"] {
            let missing = good.replace(&format!("\"{key}\":"), &format!("\"no_{key}\":"));
            let err = validate_flight_dump(&missing).unwrap_err();
            assert!(err.contains(&format!("missing numeric field '{key}'")), "{err}");
            let negative = good.replace(&format!("\"{key}\":"), &format!("\"{key}\":-"));
            let err = validate_flight_dump(&negative).unwrap_err();
            assert!(err.contains(&format!("'{key}'")) && err.contains("nonnegative"), "{err}");
        }
        for (stage, over) in [("encode_us\":300", "309"), ("fanout_us\":150", "159"), ("merge_us\":2", "11")] {
            let (key, _) = stage.split_once(':').unwrap();
            let slow = good.replace(stage, &format!("{key}:{over}"));
            assert!(validate_flight_dump(&slow).unwrap_err().contains("over total_us 460"));
        }

        // One path label per shard, none empty.
        let missing = good.replace("\"shard_paths\":", "\"no_shard_paths\":");
        assert!(validate_flight_dump(&missing).unwrap_err().contains("'shard_paths'"));
        let one = good.replace("indexed,indexed", "indexed");
        assert!(validate_flight_dump(&one).unwrap_err().contains("shard_paths has 1 items"));
        let blank = good.replace("indexed,indexed", "indexed,");
        assert!(validate_flight_dump(&blank).unwrap_err().contains("empty label"));

        // Publish seq going backwards within a shard.
        let older = FlightEntry {
            seq: 1,
            name: "flight.trace",
            fields: trace_fields(2, "0,1", &[2, 3]).1,
        }
        .to_json_line();
        let regress = format!("{good}\n{older}");
        assert!(validate_flight_dump(&regress).unwrap_err().contains("went backwards"));

        // Shard list length mismatch.
        let short = FlightEntry {
            seq: 2,
            name: "flight.trace",
            fields: trace_fields(3, "1", &[2, 3]).1,
        }
        .to_json_line();
        assert!(validate_flight_dump(&short).unwrap_err().contains("shard_seqs"));

        // Foreign lines don't belong in a dump.
        assert!(validate_flight_dump("{\"kind\":\"counter\",\"name\":\"c\",\"value\":1}")
            .unwrap_err()
            .contains("unexpected"));
        assert!(validate_flight_dump("not json").is_err());
    }

    #[test]
    fn global_install_offer_and_poison_dump_guard() {
        // The only test that installs into the global flight slot; the
        // lock keeps the ops server's `/traces` drain out of its ring.
        let _slot = olock(&SLOT_TESTS);
        let path = temp_path("global");
        assert!(!installed());
        offer(1.0, || panic!("must not build when uninstalled"));
        assert_eq!(force_dump("noop"), 0);
        poison_dump("noop"); // no recorder: harmless

        let rec = install(FlightConfig {
            capacity: 4,
            tail_threshold_seconds: 0.0,
            dump_path: Some(path.clone()),
        });
        assert!(installed());
        offer(1e-3, || trace_fields(100, "1", &[7]));
        assert_eq!(rec.captured(), 1);
        poison_dump("obs.lock.poisoned");
        let text = std::fs::read_to_string(&path).expect("read dump");
        assert_eq!(validate_flight_dump(&text), Ok(1));
        assert!(text.contains("obs.lock.poisoned"));
        assert!(!DUMPING.load(Ordering::SeqCst), "guard must reset after dump");

        // A poisoned ring slot: `olock`'s poison arm dumps, the dump
        // drains this very slot through `olock` again, and the latch
        // stops the recursion there — no deadlock, and the entry the
        // slot held reaches the dump file or the drain exactly once.
        offer(2e-3, || trace_fields(101, "1", &[7]));
        let holder = Arc::clone(&rec);
        let poisoner = std::thread::spawn(move || {
            #[expect(clippy::disallowed_methods, reason = "poisons the slot on purpose")]
            let _held = holder.slots[1].lock().unwrap();
            panic!("poisons the slot holding trace 101");
        });
        assert!(poisoner.join().is_err() && rec.slots[1].is_poisoned());
        let drained = rec.drain().len();
        let text = std::fs::read_to_string(&path).expect("read dump");
        let dumped = validate_flight_dump(&text).expect("dump still validates, ids unique");
        assert_eq!((dumped + drained) as u64, rec.captured() - rec.dropped());
        assert!(!DUMPING.load(Ordering::SeqCst), "guard must reset after the poisoned drain");

        uninstall();
        assert!(!installed());
        offer(1.0, || panic!("must not build after uninstall"));
        let _ = std::fs::remove_file(&path);
    }
}
