//! `t2h_bench`: one seeded benchmark of the Traj2Hash serving system.
//!
//! ```text
//! t2h_bench [run] --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] [--out <dir>]
//! t2h_bench compare <a> <b> [--benchmark <BENCHMARK.json>]
//! ```
//!
//! `run` generates its inputs from the seed, runs one workload, checks
//! the program's outputs against its own oracle, prints every metric by
//! name with its unit on standard error, writes the result row (and, in
//! a traced run, the spans) under `<cargo target dir>/t2h_bench/`, and
//! prints one JSON object as the last line of standard output. It exits
//! with 1 when an output check failed. See `README.md` beside this crate.

mod api;
mod compare;
mod host;
mod inputs;
mod json;
mod layers;
mod oracle;
mod report;
mod run;
#[cfg(test)]
mod selftest;
mod spans;
mod stats;

use inputs::{Spec, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: t2h_bench [run] --workload <serve_small|serve_large|serve_churn|offline_build> \
--seed <n> [--seconds <1..60>] [--trace [0|1]] [--out <dir>]\n       t2h_bench compare <a> <b> [--benchmark <BENCHMARK.json>]";

struct RunArgs {
    spec: Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut out) =
        (None, None, 10u64, false, None);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| it.next().cloned().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                seed = Some(
                    value("--seed")?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let spec = Spec::named(&workload).ok_or(format!(
        "unknown workload {workload}; one of {}",
        WORKLOADS.join(", ")
    ))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..60".into());
    }
    Ok(RunArgs {
        spec: spec.scaled(seconds),
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        out: out.unwrap_or_else(report::default_out_dir),
    })
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let a = parse_run(args)?;
    let result = if a.trace {
        layers::traced(a.spec.traced(), a.seed, a.seconds)?
    } else {
        run::end_to_end(a.spec, a.seed, a.seconds)?
    };
    eprint!("{}", result.table());
    match report::save(&result, &host::fingerprint(), &a.out) {
        Ok(path) => eprintln!("  result row: {}", path.display()),
        Err(e) => return Err(format!("cannot write under {}: {e}", a.out.display())),
    }
    println!("{}", result.driver_line());
    Ok(if result.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("run") => run(&args[1..]),
        Some(_) => run(&args),
        None => Err(USAGE.into()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("t2h_bench: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
