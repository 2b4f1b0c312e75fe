//! What a run produces: named metrics with units, per-phase operation
//! counts, and the three renderings of them — the table on stderr, the
//! result row on disk, and the one-line JSON the driver reads.

use crate::host::Fingerprint;
use crate::json::Value;
use std::path::{Path, PathBuf};

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples behind the value (1 for a single reading or a count).
    pub n: usize,
}

/// Metrics in the order they were measured.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, unit: &'static str, value: f64, n: usize) {
        let name = name.into();
        debug_assert!(self.get(&name).is_none(), "metric {name} reported twice");
        self.0.push(Metric {
            name,
            unit,
            value,
            n,
        });
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    fn to_json(&self, with_n: bool) -> Value {
        Value::Obj(
            self.0
                .iter()
                .map(|m| {
                    let mut fields =
                        vec![("value", Value::Num(m.value)), ("unit", Value::str(m.unit))];
                    if with_n {
                        fields.push(("n", Value::Num(m.n as f64)));
                    }
                    (m.name.clone(), Value::obj(fields))
                })
                .collect(),
        )
    }
}

/// Operations one phase sent to the program and how they ended. An
/// `Err`, an oracle mismatch and a failed parity check are failures.
pub struct Phase {
    pub name: &'static str,
    pub sent: usize,
    pub failed: usize,
}

pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// The metrics `BENCHMARK.json` lists for this mode.
    pub metrics: Metrics,
    /// Raw (un-normalised) readings and other context, not compared.
    pub info: Metrics,
    pub phases: Vec<Phase>,
    /// The first few failure messages, for the reader of the row.
    pub failures: Vec<String>,
    pub spans_jsonl: Option<String>,
}

/// A run whose reference kernel spread wider than this marks itself noisy.
pub const NOISY_REF_SPREAD_PCT: f64 = 15.0;

impl RunResult {
    pub fn attempted(&self) -> usize {
        self.phases.iter().map(|p| p.sent).sum()
    }

    pub fn failed(&self) -> usize {
        self.phases.iter().map(|p| p.failed).sum()
    }

    pub fn noisy(&self) -> bool {
        let spread = self
            .metrics
            .get("host.ref_spread_pct")
            .or(self.info.get("host.ref_spread_pct"));
        spread.is_some_and(|s| s > NOISY_REF_SPREAD_PCT)
    }

    /// The last line of standard output, as the driver's contract words it.
    pub fn driver_line(&self) -> String {
        Value::obj(vec![
            ("correct", Value::Bool(self.failed() == 0)),
            ("attempted", Value::Num(self.attempted() as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            ("metrics", self.metrics.to_json(false)),
        ])
        .render()
    }

    pub fn row(&self, host: &Fingerprint) -> Value {
        Value::obj(vec![
            ("workload", Value::str(self.workload)),
            ("seed", Value::Num(self.seed as f64)),
            ("seconds", Value::Num(self.seconds as f64)),
            ("trace", Value::Bool(self.trace)),
            ("noisy", Value::Bool(self.noisy())),
            (
                "host",
                Value::obj(vec![
                    ("cores", Value::Num(host.cores as f64)),
                    ("rustc", Value::str(host.rustc.clone())),
                    ("commit", Value::str(host.commit.clone())),
                    ("profile", Value::str(host.profile)),
                ]),
            ),
            ("correct", Value::Bool(self.failed() == 0)),
            ("attempted", Value::Num(self.attempted() as f64)),
            ("failed", Value::Num(self.failed() as f64)),
            (
                "phases",
                Value::Arr(
                    self.phases
                        .iter()
                        .map(|p| {
                            Value::obj(vec![
                                ("phase", Value::str(p.name)),
                                ("sent", Value::Num(p.sent as f64)),
                                ("succeeded", Value::Num((p.sent - p.failed) as f64)),
                                ("failed", Value::Num(p.failed as f64)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("metrics", self.metrics.to_json(true)),
            ("info", self.info.to_json(true)),
            (
                "failures",
                Value::Arr(self.failures.iter().map(Value::str).collect()),
            ),
        ])
    }

    /// Every metric by name with its unit, and the per-phase counts.
    pub fn table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = format!(
            "== {} seed {} {} ==\n",
            self.workload,
            self.seed,
            if self.trace {
                "traced run: per-layer metrics"
            } else {
                "end-to-end metrics"
            }
        );
        for m in self.metrics.0.iter().chain(&self.info.0) {
            let _ = writeln!(
                out,
                "  {:<40} {:>16.4} {:<8} n={}",
                m.name, m.value, m.unit, m.n
            );
        }
        for p in &self.phases {
            let _ = writeln!(
                out,
                "  phase {:<12} sent {:>6}  succeeded {:>6}  failed {:>4}",
                p.name,
                p.sent,
                p.sent - p.failed,
                p.failed
            );
        }
        for f in &self.failures {
            let _ = writeln!(out, "  FAILED: {f}");
        }
        if self.noisy() {
            let _ = writeln!(
                out,
                "  noisy: host.ref_spread_pct above {NOISY_REF_SPREAD_PCT}"
            );
        }
        out
    }
}

/// `<cargo target dir>/t2h_bench`, inside the checkout the run started in.
pub fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("t2h_bench")
}

/// Writes the row (and the spans) and appends the row to the history.
pub fn save(result: &RunResult, host: &Fingerprint, dir: &Path) -> std::io::Result<PathBuf> {
    use std::io::Write as _;
    std::fs::create_dir_all(dir)?;
    let mode = if result.trace { "trace" } else { "e2e" };
    let stem = format!("{}-seed{}-{mode}", result.workload, result.seed);
    let row = result.row(host).render();
    let path = dir.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{row}\n"))?;
    if let Some(spans) = &result.spans_jsonl {
        std::fs::write(dir.join(format!("{stem}-spans.jsonl")), spans)?;
    }
    let mut history = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("history.jsonl"))?;
    writeln!(history, "{row}")?;
    Ok(path)
}
