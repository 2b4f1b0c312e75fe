//! Spans the benchmark records around its calls into each layer. They
//! stay in memory while the run measures and are written as JSONL when
//! it ends. Spans inside the program are a later issue.

use crate::json::Value;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one query share this.
    pub query_id: usize,
    /// True for children rebuilt from the engine's own `QueryInfo`
    /// durations rather than timed by the benchmark.
    pub reconstructed: bool,
}

pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its index with the result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        query_id: usize,
        f: impl FnOnce() -> R,
    ) -> (usize, R) {
        let start_ns = self.now_ns();
        let r = f();
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query_id,
            reconstructed: false,
        });
        (self.spans.len() - 1, r)
    }

    /// Opens a span whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, query_id: usize) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query_id,
            reconstructed: false,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, i: usize) {
        self.spans[i].end_ns = self.now_ns();
    }

    /// Adds a child whose duration the program reported itself.
    pub fn reconstructed(&mut self, name: &'static str, parent: usize, start_ns: u64, dur_ns: u64) {
        let query_id = self.spans[parent].query_id;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(parent),
            query_id,
            reconstructed: true,
        });
    }

    pub fn duration_ns(&self, i: usize) -> f64 {
        (self.spans[i].end_ns - self.spans[i].start_ns) as f64
    }

    /// A span's duration minus the part its children cover.
    pub fn self_time_ns(&self, i: usize) -> f64 {
        let children: f64 = (0..self.spans.len())
            .filter(|&c| self.spans[c].parent == Some(i))
            .map(|c| self.duration_ns(c))
            .sum();
        (self.duration_ns(i) - children).max(0.0)
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let row = Value::obj(vec![
                ("span", Value::Num(i as f64)),
                ("name", Value::str(s.name)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("query_id", Value::Num(s.query_id as f64)),
                ("reconstructed", Value::Bool(s.reconstructed)),
            ]);
            out.push_str(&row.render());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut r = Recorder::new();
        let (root, _) = r.span("engine.query", None, 7, || std::hint::black_box(1 + 1));
        r.spans[root].start_ns = 100;
        r.spans[root].end_ns = 1_100;
        r.reconstructed("engine.fanout", root, 600, 300);
        r.reconstructed("engine.merge", root, 900, 100);
        assert_eq!(r.self_time_ns(root), 600.0);
        assert_eq!(r.self_time_ns(1), 300.0);
        assert_eq!(r.spans[2].query_id, 7);
        let lines: Vec<_> = r
            .to_jsonl()
            .lines()
            .map(|l| crate::json::parse(l).unwrap())
            .collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[1].get("parent").and_then(Value::as_f64), Some(0.0));
    }
}
