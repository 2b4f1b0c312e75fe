//! `t2h_bench compare <a> <b>`: one row per workload and end-to-end
//! metric, with both medians and quartiles, labelled against the bounds
//! `BENCHMARK.json` fixes. Every ratio is printed with its base.

use crate::json::{self, Value};
use crate::stats;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Bound {
    name: String,
    unit: String,
    lower_is_better: bool,
    bound: f64,
}

#[derive(Debug, PartialEq, Clone, Copy)]
pub enum Label {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the bound, so a regression of the
    /// bound's size could hide in it.
    Unresolved,
}

/// `a` is the base. `worse_by` is the share of `a`'s median by which
/// `b`'s median is worse (negative when better).
pub fn label(worse_by: f64, spread_a: f64, spread_b: f64, bound: f64) -> Label {
    if spread_a.max(spread_b) > bound {
        Label::Unresolved
    } else if worse_by > bound {
        Label::Worse
    } else if -worse_by > spread_a.max(spread_b) {
        Label::Better
    } else {
        Label::Same
    }
}

fn read_bounds(path: &Path) -> Result<Vec<Bound>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = doc
        .get("end_to_end")
        .ok_or("BENCHMARK.json has no end_to_end")?;
    list.as_arr()
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .ok_or(format!("end_to_end entry without {k}"))
            };
            Ok(Bound {
                name: field("name")?.to_string(),
                unit: field("unit")?.to_string(),
                lower_is_better: field("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

/// Result rows of untraced runs in a file (JSON or JSONL) or a directory
/// of them. A directory's `history.jsonl` already holds every run made
/// there, so it is read alone when present.
fn read_rows(path: &Path) -> Result<Vec<Value>, String> {
    let mut files: Vec<PathBuf> = Vec::new();
    if path.is_dir() {
        let history = path.join("history.jsonl");
        if history.is_file() {
            files.push(history);
        } else {
            let dir = std::fs::read_dir(path).map_err(|e| format!("{}: {e}", path.display()))?;
            for entry in dir {
                let p = entry.map_err(|e| e.to_string())?.path();
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
                if (name.ends_with(".json") || name.ends_with(".jsonl"))
                    && !name.ends_with("-spans.jsonl")
                {
                    files.push(p);
                }
            }
            files.sort();
        }
    } else {
        files.push(path.to_path_buf());
    }
    let mut rows = Vec::new();
    for f in files {
        let text = std::fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?;
        rows.extend(json::parse_rows(&text).map_err(|e| format!("{}: {e}", f.display()))?);
    }
    rows.retain(|r| r.get("workload").is_some() && r.get("trace") == Some(&Value::Bool(false)));
    if rows.is_empty() {
        return Err(format!(
            "{}: no result rows of untraced runs",
            path.display()
        ));
    }
    Ok(rows)
}

/// `workload -> metric -> values`, plus the number of failed operations.
fn collect(rows: &[Value]) -> (BTreeMap<String, BTreeMap<String, Vec<f64>>>, f64) {
    let mut by: BTreeMap<String, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    let mut failed = 0.0;
    for r in rows {
        let workload = r
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?")
            .to_string();
        failed += r.get("failed").and_then(Value::as_f64).unwrap_or(0.0);
        for (name, m) in r.get("metrics").map(Value::entries).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Value::as_f64) {
                by.entry(workload.clone())
                    .or_default()
                    .entry(name.clone())
                    .or_default()
                    .push(v);
            }
        }
    }
    (by, failed)
}

fn summary(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some((q1, q3)) => format!(
            "{:.4} [{:.4}, {:.4}] n={}",
            stats::median(values),
            q1,
            q3,
            values.len()
        ),
        None => format!("{:.4} n={}", stats::median(values), values.len()),
    }
}

pub fn main(args: &[String]) -> Result<ExitCode, String> {
    let mut paths = Vec::new();
    let mut benchmark = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--benchmark" {
            benchmark = Some(PathBuf::from(it.next().ok_or("--benchmark needs a path")?));
        } else {
            paths.push(PathBuf::from(a));
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return Err("compare needs two result files or directories".into());
    };
    let benchmark = benchmark.unwrap_or_else(|| {
        let here = PathBuf::from("BENCHMARK.json");
        if here.is_file() {
            here
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
        }
    });
    let bounds = read_bounds(&benchmark)?;
    let ((a, a_failed), (b, b_failed)) =
        (collect(&read_rows(a_path)?), collect(&read_rows(b_path)?));

    println!(
        "a = {}   b = {}   bounds from {}",
        a_path.display(),
        b_path.display(),
        benchmark.display()
    );
    let mut worse = 0;
    for (workload, a_metrics) in &a {
        let Some(b_metrics) = b.get(workload) else {
            println!("{workload}: no runs in b");
            continue;
        };
        for bound in &bounds {
            let (Some(av), Some(bv)) = (a_metrics.get(&bound.name), b_metrics.get(&bound.name))
            else {
                continue;
            };
            let (am, bm) = (stats::median(av), stats::median(bv));
            let change = (bm - am) / am.abs();
            let worse_by = if bound.lower_is_better {
                change
            } else {
                -change
            };
            let (sa, sb) = (stats::spread(av), stats::spread(bv));
            let l = label(worse_by, sa, sb, bound.bound);
            worse += usize::from(l == Label::Worse);
            println!(
                "{workload:<14} {:<26} {:<6} a: {:<40} b: {:<40} b/a = {:.4} (base a = {:.4} {}) spread a {:.1}% b {:.1}% bound {:.0}%  {}",
                bound.name,
                bound.unit,
                summary(av),
                summary(bv),
                bm / am,
                am,
                bound.unit,
                sa * 100.0,
                sb * 100.0,
                bound.bound * 100.0,
                format!("{l:?}").to_lowercase(),
            );
        }
    }
    if b_failed > a_failed {
        println!("b failed {b_failed} operations, a failed {a_failed}: worse");
        worse += 1;
    }
    println!("{worse} worse");
    Ok(if worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_follow_the_bound_and_the_spread() {
        assert_eq!(label(0.12, 0.02, 0.03, 0.10), Label::Worse);
        assert_eq!(label(0.08, 0.02, 0.03, 0.10), Label::Same);
        assert_eq!(label(-0.02, 0.02, 0.03, 0.10), Label::Same);
        assert_eq!(label(-0.20, 0.02, 0.03, 0.10), Label::Better);
        assert_eq!(label(0.30, 0.02, 0.14, 0.10), Label::Unresolved);
        // hr10 and counts: bound 0, any spread at all leaves it unresolved
        assert_eq!(label(0.0, 0.0, 0.0, 0.0), Label::Same);
        assert_eq!(label(0.01, 0.0, 0.0, 0.0), Label::Worse);
    }
}
