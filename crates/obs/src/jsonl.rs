//! JSONL export sink and the hand-rolled parser that validates it.
//!
//! No `serde` in an offline workspace, so both directions are written by
//! hand: [`JsonlRecorder`] streams events and spans as they happen and
//! appends aggregated counter/gauge/histogram summary lines on flush;
//! [`parse_json`] / [`validate_record`] read the lines back so the
//! `check.sh obs` round-trip gate can assert the schema without external
//! tooling.
//!
//! ## Line schema
//!
//! Every line is one JSON object with a `"kind"` discriminator:
//!
//! ```json
//! {"kind":"event","name":"train.rollback","fields":{"epoch":3,"kind":"loss spike"}}
//! {"kind":"span","path":"train/epoch","seconds":0.251,"fields":{"loss":0.5}}
//! {"kind":"counter","name":"engine.inserts","value":128}
//! {"kind":"gauge","name":"train.val_hr10","value":0.625}
//! {"kind":"histogram","name":"engine.query.mih","count":500,"p50":0.0001, ...}
//! ```
//!
//! Metric lines are cumulative snapshots: on repeated flushes the last
//! occurrence of a name wins.

use crate::memory::Aggregates;
use crate::{olock, Field, Recorder, Value};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::Mutex;

// ---------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------

/// Escapes `s` into `out` as JSON string contents (no surrounding
/// quotes).
fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
}

/// Writes an f64 as a JSON value. JSON has no NaN/inf literals, so
/// non-finite values become `null` — the reader treats them as absent.
fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::I64(x) => {
            let _ = write!(out, "{x}");
        }
        Value::F64(x) => push_f64(out, *x),
        Value::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        Value::Str(x) => {
            out.push('"');
            escape_into(out, x);
            out.push('"');
        }
    }
}

fn push_fields(out: &mut String, fields: &[Field]) {
    out.push('{');
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_into(out, k);
        out.push_str("\":");
        push_value(out, v);
    }
    out.push('}');
}

/// One `{"kind":"event","name":..,"fields":{..}}` line (no newline): the
/// event schema the JSONL sink streams, the flight ring drains and its
/// dumps write, so one validator reads all three.
pub(crate) fn event_line(name: &str, fields: &[Field]) -> String {
    let mut line = String::from("{\"kind\":\"event\",\"name\":\"");
    escape_into(&mut line, name);
    line.push_str("\",\"fields\":");
    push_fields(&mut line, fields);
    line.push('}');
    line
}

/// A recorder that streams events and spans to a JSONL file and keeps
/// counters/gauges/histograms aggregated in memory, appending them as
/// summary lines on [`flush`](Recorder::flush) (and on drop).
///
/// Enabled from binaries via `OBS_JSONL=path` — see
/// [`init_from_env`](crate::init_from_env).
pub struct JsonlRecorder {
    out: Mutex<BufWriter<File>>,
    agg: Mutex<Aggregates>,
}

impl JsonlRecorder {
    /// Creates (truncating) the JSONL file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        Ok(JsonlRecorder { out: Mutex::new(BufWriter::new(file)), agg: Mutex::new(Aggregates::default()) })
    }

    /// A snapshot of everything aggregated so far (streamed events and
    /// spans are retained here too, so the snapshot matches the file).
    pub fn aggregates(&self) -> Aggregates {
        olock(&self.agg).clone()
    }

    /// Appends one line. IO failures are swallowed: losing telemetry
    /// must never take the instrumented program down with it.
    fn write_line(&self, line: &str) {
        let mut out = olock(&self.out);
        let _ = out.write_all(line.as_bytes());
        let _ = out.write_all(b"\n");
    }
}

impl Recorder for JsonlRecorder {
    fn counter(&self, name: &str, delta: u64) {
        olock(&self.agg).apply_counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        olock(&self.agg).apply_gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        olock(&self.agg).apply_observe(name, value);
    }

    fn event(&self, name: &str, fields: &[Field]) {
        olock(&self.agg).apply_event(name, fields);
        self.write_line(&event_line(name, fields));
    }

    fn span_end(&self, path: &str, seconds: f64, fields: &[Field]) {
        olock(&self.agg).apply_span(path, seconds, fields);
        let mut line = String::from("{\"kind\":\"span\",\"path\":\"");
        escape_into(&mut line, path);
        line.push_str("\",\"seconds\":");
        push_f64(&mut line, seconds);
        line.push_str(",\"fields\":");
        push_fields(&mut line, fields);
        line.push('}');
        self.write_line(&line);
    }

    fn flush(&self) {
        let snapshot = olock(&self.agg).clone();
        for (name, v) in &snapshot.counters {
            let mut line = String::from("{\"kind\":\"counter\",\"name\":\"");
            escape_into(&mut line, name);
            let _ = write!(line, "\",\"value\":{v}}}");
            self.write_line(&line);
        }
        for (name, v) in &snapshot.gauges {
            let mut line = String::from("{\"kind\":\"gauge\",\"name\":\"");
            escape_into(&mut line, name);
            line.push_str("\",\"value\":");
            push_f64(&mut line, *v);
            line.push('}');
            self.write_line(&line);
        }
        for (name, h) in &snapshot.histograms {
            let mut line = String::from("{\"kind\":\"histogram\",\"name\":\"");
            escape_into(&mut line, name);
            let _ = write!(line, "\",\"count\":{}", h.count());
            for (key, v) in [
                ("p50", h.p50()),
                ("p95", h.p95()),
                ("p99", h.p99()),
                ("mean", h.mean()),
                ("min", h.min()),
                ("max", h.max()),
            ] {
                let _ = write!(line, ",\"{key}\":");
                push_f64(&mut line, v);
            }
            let _ = write!(line, ",\"non_finite\":{}}}", h.non_finite());
            self.write_line(&line);
        }
        let _ = olock(&self.out).flush();
    }

    fn aggregates_snapshot(&self) -> Option<Aggregates> {
        Some(self.aggregates())
    }
}

impl Drop for JsonlRecorder {
    fn drop(&mut self) {
        Recorder::flush(self);
    }
}

// ---------------------------------------------------------------------
// Reading (round-trip validation)
// ---------------------------------------------------------------------

/// A parsed JSON value — just enough structure for the round-trip gate.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also what non-finite floats serialize to).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Member lookup on an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn parse_value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'"') => Ok(Json::Str(self.parse_string()?)),
            Some(b't') => self.parse_lit("true", Json::Bool(true)),
            Some(b'f') => self.parse_lit("false", Json::Bool(false)),
            Some(b'n') => self.parse_lit("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.parse_number(),
            Some(c) => Err(self.err(&format!("unexpected '{}'", c as char))),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn parse_lit(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    fn parse_number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid utf8 in number"))?;
        text.parse::<f64>().map(Json::Num).map_err(|_| self.err("invalid number"))
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("invalid \\u escape"))?;
                            // Surrogates never appear in our own output;
                            // map them to the replacement character.
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Advance one full UTF-8 character.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf8 in string"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("empty string tail"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }
}

/// Parses one JSON document (the subset the exporter emits: objects,
/// arrays, strings, numbers, booleans, null).
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// What [`validate_record`] extracted from a well-formed line.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSummary {
    /// The `"kind"` discriminator: `event`, `span`, `counter`, `gauge`,
    /// or `histogram`.
    pub kind: String,
    /// The record's name (the `/`-joined path for spans).
    pub name: String,
}

fn require_str(doc: &Json, key: &str) -> Result<String, String> {
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

fn require_num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key).and_then(Json::as_f64).ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// Parses one exporter line and checks it against the schema for its
/// `"kind"`. This is the `check.sh obs` round-trip gate: export → parse
/// → assert schema.
pub fn validate_record(line: &str) -> Result<RecordSummary, String> {
    let doc = parse_json(line)?;
    if !matches!(doc, Json::Obj(_)) {
        return Err("record is not a JSON object".to_string());
    }
    let kind = require_str(&doc, "kind")?;
    let name = match kind.as_str() {
        "event" => {
            let name = require_str(&doc, "name")?;
            if !matches!(doc.get("fields"), Some(Json::Obj(_))) {
                return Err("event record missing 'fields' object".to_string());
            }
            name
        }
        "span" => {
            let path = require_str(&doc, "path")?;
            let seconds = require_num(&doc, "seconds")?;
            if seconds < 0.0 {
                return Err("span has negative duration".to_string());
            }
            if !matches!(doc.get("fields"), Some(Json::Obj(_))) {
                return Err("span record missing 'fields' object".to_string());
            }
            path
        }
        "counter" | "gauge" => {
            let name = require_str(&doc, "name")?;
            require_num(&doc, "value")?;
            name
        }
        "histogram" => {
            let name = require_str(&doc, "name")?;
            for key in ["count", "p50", "p95", "p99", "mean", "min", "max", "non_finite"] {
                require_num(&doc, key)?;
            }
            name
        }
        other => return Err(format!("unknown record kind '{other}'")),
    };
    Ok(RecordSummary { kind, name })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Recorder;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> std::path::PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("traj-obs-{tag}-{}-{n}.jsonl", std::process::id()))
    }

    #[test]
    fn export_then_parse_round_trips_every_kind() {
        let path = temp_path("roundtrip");
        let rec = JsonlRecorder::create(&path).expect("create jsonl");
        rec.counter("engine.inserts", 7);
        rec.gauge("train.val_hr10", 0.625);
        for i in 1..=50 {
            rec.observe("engine.query.mih", i as f64 * 1e-5);
        }
        rec.event(
            "train.rollback",
            &[("epoch", 3u64.into()), ("kind", "loss spike".into()), ("lr_after", 5e-4f64.into())],
        );
        rec.span_end("train/epoch", 0.25, &[("loss", 0.5f64.into())]);
        Recorder::flush(&rec);

        let text = std::fs::read_to_string(&path).expect("read back");
        let mut kinds = std::collections::BTreeSet::new();
        for line in text.lines() {
            let rs = validate_record(line).unwrap_or_else(|e| panic!("bad line {line:?}: {e}"));
            kinds.insert(rs.kind);
        }
        for expected in ["event", "span", "counter", "gauge", "histogram"] {
            assert!(kinds.contains(expected), "missing kind {expected} in {text}");
        }

        // The event line carries its fields intact.
        let event_line = text
            .lines()
            .find(|l| l.contains("\"kind\":\"event\""))
            .expect("event line present");
        let doc = parse_json(event_line).expect("parse event");
        let fields = doc.get("fields").expect("fields");
        assert_eq!(fields.get("epoch").and_then(Json::as_f64), Some(3.0));
        assert_eq!(fields.get("kind").and_then(Json::as_str), Some("loss spike"));

        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn strings_with_special_characters_survive() {
        let path = temp_path("escape");
        let rec = JsonlRecorder::create(&path).expect("create jsonl");
        let nasty = "quote \" backslash \\ newline \n tab \t unicode é control \u{1}";
        rec.event("data.note", &[("msg", nasty.into())]);
        Recorder::flush(&rec);

        let text = std::fs::read_to_string(&path).expect("read back");
        let line = text.lines().next().expect("one line");
        let doc = parse_json(line).expect("parse");
        assert_eq!(
            doc.get("fields").and_then(|f| f.get("msg")).and_then(Json::as_str),
            Some(nasty)
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn non_finite_floats_become_null() {
        let path = temp_path("nonfinite");
        let rec = JsonlRecorder::create(&path).expect("create jsonl");
        rec.event("train.diverged", &[("loss", f64::NAN.into())]);
        Recorder::flush(&rec);
        let text = std::fs::read_to_string(&path).expect("read back");
        let doc = parse_json(text.lines().next().expect("line")).expect("parse");
        assert_eq!(doc.get("fields").and_then(|f| f.get("loss")), Some(&Json::Null));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn parser_handles_the_json_basics() {
        assert_eq!(parse_json("3.5e2"), Ok(Json::Num(350.0)));
        assert_eq!(parse_json("-7"), Ok(Json::Num(-7.0)));
        assert_eq!(parse_json("true"), Ok(Json::Bool(true)));
        assert_eq!(parse_json("null"), Ok(Json::Null));
        assert_eq!(
            parse_json("[1, \"two\", {\"three\": 3}]"),
            Ok(Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("two".to_string()),
                Json::Obj([("three".to_string(), Json::Num(3.0))].into_iter().collect()),
            ]))
        );
        assert_eq!(parse_json("\"\\u0041\\n\""), Ok(Json::Str("A\n".to_string())));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_json("{\"open\": ").is_err());
        assert!(parse_json("{\"a\":1} trailing").is_err());
        assert!(parse_json("'single'").is_err());
        assert!(parse_json("").is_err());
        assert!(validate_record("{\"kind\":\"mystery\",\"name\":\"x\"}").is_err());
        assert!(validate_record("{\"name\":\"missing kind\"}").is_err());
        assert!(validate_record("{\"kind\":\"counter\",\"name\":\"c\"}").is_err());
        assert!(
            validate_record("{\"kind\":\"span\",\"path\":\"p\",\"seconds\":-1,\"fields\":{}}")
                .is_err()
        );
    }
}
