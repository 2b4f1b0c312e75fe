//! In-memory aggregation: the recorder tests assert against, and the
//! shared [`Aggregates`] state both sinks keep and `/metrics` renders.

use crate::hist::Histogram;
use crate::{olock, Field, Recorder, Value};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A recorded discrete event.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Event name, e.g. `train.rollback`.
    pub name: String,
    /// Structured fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl EventRecord {
    /// The value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A recorded completed span.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// `/`-joined ancestry path, e.g. `train/epoch`.
    pub path: String,
    /// Wall-clock duration.
    pub seconds: f64,
    /// Structured fields, in emission order.
    pub fields: Vec<(String, Value)>,
}

impl SpanRecord {
    /// The value of the named field, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// Everything a recorder has aggregated: the shared state behind both
/// the in-memory sink and the JSONL sink's flushed metric lines.
#[derive(Debug, Clone, Default)]
pub struct Aggregates {
    /// Monotonic counters by name.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges by name.
    pub gauges: BTreeMap<String, f64>,
    /// Log-bucketed histograms by name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Every event, in order.
    pub events: Vec<EventRecord>,
    /// Every completed span, in completion order.
    pub spans: Vec<SpanRecord>,
}

fn owned_fields(fields: &[Field]) -> Vec<(String, Value)> {
    fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

impl Aggregates {
    pub(crate) fn apply_counter(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub(crate) fn apply_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    pub(crate) fn apply_observe(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_string()).or_default().record(value);
    }

    pub(crate) fn apply_event(&mut self, name: &str, fields: &[Field]) {
        self.events.push(EventRecord { name: name.to_string(), fields: owned_fields(fields) });
    }

    pub(crate) fn apply_span(&mut self, path: &str, seconds: f64, fields: &[Field]) {
        self.spans.push(SpanRecord {
            path: path.to_string(),
            seconds,
            fields: owned_fields(fields),
        });
    }

    /// Events with the given name, in order.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a EventRecord> {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// The value of a counter (0 when never touched).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The last value written to the named gauge, if it was ever set.
    /// Tests assert on this directly instead of re-parsing JSONL
    /// summary lines.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any observation ever landed in it.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }
}

/// A recorder that aggregates everything in memory. Cheap enough for
/// bench runs; the primary assertion surface for tests.
#[derive(Default)]
pub struct InMemoryRecorder {
    inner: Mutex<Aggregates>,
}

impl InMemoryRecorder {
    /// A snapshot of everything recorded so far.
    pub fn aggregates(&self) -> Aggregates {
        olock(&self.inner).clone()
    }
}

impl Recorder for InMemoryRecorder {
    fn counter(&self, name: &str, delta: u64) {
        olock(&self.inner).apply_counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        olock(&self.inner).apply_gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        olock(&self.inner).apply_observe(name, value);
    }

    fn event(&self, name: &str, fields: &[Field]) {
        olock(&self.inner).apply_event(name, fields);
    }

    fn span_end(&self, path: &str, seconds: f64, fields: &[Field]) {
        olock(&self.inner).apply_span(path, seconds, fields);
    }

    fn aggregates_snapshot(&self) -> Option<Aggregates> {
        Some(self.aggregates())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregation_covers_every_kind() {
        let rec = InMemoryRecorder::default();
        rec.counter("engine.inserts", 2);
        rec.counter("engine.inserts", 1);
        rec.gauge("train.val_hr10", 0.625);
        for i in 1..=100 {
            rec.observe("engine.query.mih", i as f64 * 1e-5);
        }
        rec.event("train.rollback", &[("epoch", 3u64.into()), ("kind", "loss spike".into())]);
        rec.span_end("train/epoch", 0.25, &[("loss", 0.5f64.into())]);

        let agg = rec.aggregates();
        assert_eq!(agg.counter_value("engine.inserts"), 3);
        assert_eq!(agg.counter_value("never.touched"), 0);
        assert_eq!(agg.gauge_value("train.val_hr10"), Some(0.625));
        assert_eq!(agg.gauge_value("never.touched"), None);
        assert_eq!(agg.histogram("engine.query.mih").map(|h| h.count()), Some(100));
        assert!(agg.histogram("never.touched").is_none());
        assert_eq!(agg.events_named("train.rollback").count(), 1);
        let ev = agg.events_named("train.rollback").next().expect("event");
        assert_eq!(ev.field("epoch"), Some(&Value::U64(3)));
        assert_eq!(agg.spans.len(), 1);
        assert_eq!(agg.spans[0].path, "train/epoch");
        assert_eq!(agg.spans[0].field("loss"), Some(&Value::F64(0.5)));
    }
}
