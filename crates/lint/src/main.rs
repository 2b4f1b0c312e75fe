//! `traj-lint`: the workspace static-analysis gate.
//!
//! ```text
//! traj-lint [--root DIR] [--allowlist FILE] [--fix-list] [FILES...]
//! ```
//!
//! With no `FILES`, scans `src/`, `tests/` and `examples/` of the root
//! package and of every crate under `crates/`. Exit codes: 0 clean, 1 findings, 2 driver error.
//! `--fix-list` additionally prints a ready-to-paste `lint.allow` entry
//! per finding to make triage cheap.

use std::path::PathBuf;
use std::process::ExitCode;
use traj_lint::{default_targets, fix_list_entry, parse_allowlist, run, AllowEntry};

struct Args {
    root: PathBuf,
    allowlist: Option<PathBuf>,
    fix_list: bool,
    files: Vec<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        allowlist: None,
        fix_list: false,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--root" => {
                args.root = PathBuf::from(it.next().ok_or("--root needs a directory")?);
            }
            "--allowlist" => {
                args.allowlist = Some(PathBuf::from(it.next().ok_or("--allowlist needs a file")?));
            }
            "--fix-list" => args.fix_list = true,
            "-h" | "--help" => {
                println!(
                    "traj-lint [--root DIR] [--allowlist FILE] [--fix-list] [FILES...]\n\
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

    let allow: Vec<AllowEntry> = {
        let path = args
            .allowlist
            .clone()
            .unwrap_or_else(|| args.root.join("lint.allow"));
        if path.is_file() {
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("traj-lint: cannot read {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            };
            match parse_allowlist(&text) {
                Ok(entries) => entries,
                Err(e) => {
                    eprintln!("traj-lint: {e}");
                    return ExitCode::from(2);
                }
            }
        } else {
            Vec::new()
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

    let report = match run(&args.root, &files, &allow) {
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
    if args.fix_list && !report.findings.is_empty() {
        // Pre-sorted and deduplicated so the block pastes straight into
        // lint.allow, whose parser rejects duplicates and unsorted
        // entries.
        let mut entries: Vec<String> = report.findings.iter().map(fix_list_entry).collect();
        entries.sort();
        entries.dedup();
        println!("\n# lint.allow entries for the findings above (pre-sorted):");
        for entry in entries {
            println!("{entry}");
        }
    }

    if report.is_clean() {
        println!(
            "traj-lint: clean ({} files, {} suppressed by allowlist)",
            report.files_scanned, report.suppressed
        );
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "traj-lint: {} finding(s) across {} files ({} suppressed)",
            report.findings.len(),
            report.files_scanned,
            report.suppressed
        );
        ExitCode::from(1)
    }
}
