//! `traj-lint`: the workspace static-analysis gate.
//!
//! ```text
//! traj-lint [--root DIR] [FILES...]
//! ```
//!
//! With no `FILES`, scans the `src/` of the root package and of every
//! crate under `crates/`. Exit codes: 0 clean, 1 findings, 2 driver error.

use std::path::PathBuf;
use std::process::ExitCode;
use traj_lint::{default_targets, run};

struct Args {
    root: PathBuf,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: PathBuf::from("."), files: Vec::new() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "-h" | "--help" => {
                println!(
                    "traj-lint [--root DIR] [FILES...]\n\
                     Repo-specific static analysis; see DESIGN.md section 10."
                );
                std::process::exit(0);
            }
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            other => args.files.push(PathBuf::from(other)),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("traj-lint: {e}");
            return ExitCode::from(2);
        }
    };

    let files = if args.files.is_empty() {
        match default_targets(&args.root) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("traj-lint: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        args.files.clone()
    };

    let report = match run(&args.root, &files) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("traj-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for warning in &report.warnings {
        eprintln!("traj-lint: warning: {warning}");
    }
    for finding in &report.findings {
        println!("{finding}");
    }

    if report.is_clean() {
        println!("traj-lint: clean ({} files)", report.files_scanned);
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "traj-lint: {} finding(s) across {} files",
            report.findings.len(),
            report.files_scanned
        );
        ExitCode::from(1)
    }
}
