//! # traj-lint — repo-specific static analysis for the Traj2Hash workspace
//!
//! A lightweight source lint driver: a character-level scanner
//! ([`source`]) feeds a token-level pass ([`tokens`]: function
//! boundaries, lock-guard scopes) and seven rules ([`rules`]) that
//! encode invariants this repository has already been burned by and
//! that neither rustc nor the tests catch — NaN-unsound float sorts,
//! panicking library code, a serving crate that must never take the
//! process down, library code printing to the terminal, bare lock
//! acquisitions that decide poison policy ad hoc, guards held across
//! compute, and silently-wrapping casts. The sanctioned lock helpers,
//! compute calls and raw-print files are declared in [`registry`].
//!
//! No rustc plugin, no external dependencies: the whole pass runs in
//! milliseconds and works in the fully-offline build environment. The
//! `traj-lint` binary wires it into `./check.sh` as a hard gate; see
//! `DESIGN.md` §10 for the rule catalogue.
//!
//! Suppression, in order of preference:
//! 1. fix the finding;
//! 2. annotate a genuinely-false positive in place with
//!    `// lint: allow(<rule-or-alias>) <one-line justification>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod rules;
pub mod source;
pub mod tokens;

pub use rules::{check_file, Finding, RULES};
pub use source::{scan, ScannedFile};

use std::path::{Path, PathBuf};

/// The outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings — these fail the gate.
    pub findings: Vec<Finding>,
    /// Non-fatal observations (registry entries whose code has moved).
    pub warnings: Vec<String>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// True when the gate passes.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Errors the driver itself can hit (as opposed to findings it reports).
#[derive(Debug)]
pub enum LintError {
    /// Reading a source file or directory failed.
    Io(PathBuf, std::io::Error),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "io error on {}: {e}", p.display()),
        }
    }
}

impl std::error::Error for LintError {}

/// Collects the `.rs` files the gate covers: the `src/` of the root
/// meta-crate and of every member crate under `crates/*`, skipping
/// `target/`, `vendor/` and lint fixtures. Tests and examples are not
/// scanned: every rule exempts them ([`is_test_path`]).
pub fn default_targets(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let mut packages = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        packages.extend(read_dir_sorted(&crates)?);
    }
    for package in packages {
        let src = package.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let rd = std::fs::read_dir(dir).map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| LintError::Io(dir.to_path_buf(), e))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), LintError> {
    for path in read_dir_sorted(dir)? {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if matches!(name, "target" | "vendor" | "fixtures") {
                continue;
            }
            walk_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Whether a path belongs to a crate held to the typed-error standard.
/// Dev tooling (`bench`, the linter itself) and non-`src` code are not.
pub fn is_lib_crate_path(rel: &str) -> bool {
    !(rel.starts_with("crates/bench/") || rel.starts_with("crates/lint/"))
}

/// Whether every line of the file is test-exempt by location.
pub fn is_test_path(rel: &str) -> bool {
    ["tests/", "benches/", "examples/", "fixtures/"]
        .iter()
        .any(|d| rel.contains(d))
}

/// True when `word` occurs in `line` with identifier boundaries on
/// both sides (so `fn rread` does not match `fn rread_all`).
fn contains_word(line: &str, word: &str) -> bool {
    let bytes = line.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    let mut from = 0;
    while let Some(pos) = line[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_ident(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

/// Runs all rules over `files` (absolute paths, reported relative to
/// `root`) and warns about registry entries whose code has moved.
pub fn run(root: &Path, files: &[PathBuf]) -> Result<LintReport, LintError> {
    let mut report = LintReport::default();
    let mut helper_seen = vec![false; registry::LOCK_HELPERS.len()];
    let mut print_seen = vec![false; registry::RAW_PRINT_ALLOWED.len()];

    for file in files {
        let text =
            std::fs::read_to_string(file).map_err(|e| LintError::Io(file.clone(), e))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let scanned = scan(&rel, &text, is_test_path(&rel));
        for (i, helper) in registry::LOCK_HELPERS.iter().enumerate() {
            let decl = format!("fn {}", helper.name);
            if helper.path == rel
                && scanned.lines.iter().any(|l| contains_word(&l.masked, &decl))
            {
                helper_seen[i] = true;
            }
        }
        for (i, allow) in registry::RAW_PRINT_ALLOWED.iter().enumerate() {
            if allow.path == rel
                && scanned.lines.iter().any(|l| rules::RAW_PRINTS.iter().any(|p| l.masked.contains(p)))
            {
                print_seen[i] = true;
            }
        }
        check_file(&scanned, is_lib_crate_path(&rel), &mut report.findings);
        report.files_scanned += 1;
    }

    // Registry hygiene: a lock helper or raw-print allowance whose code
    // has moved or vanished is a stale entry worth a look (warning, not
    // failure).
    for (helper, seen) in registry::LOCK_HELPERS.iter().zip(&helper_seen) {
        if !seen {
            report.warnings.push(format!(
                "stale lock helper: `fn {}` is not defined in {}",
                helper.name, helper.path
            ));
        }
    }
    for (allow, seen) in registry::RAW_PRINT_ALLOWED.iter().zip(&print_seen) {
        if !seen {
            report.warnings.push(format!(
                "stale raw-print allowance: {} contains no print macro",
                allow.path
            ));
        }
    }
    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_end_to_end_on_temp_tree() {
        let dir = std::env::temp_dir().join(format!("traj_lint_e2e_{}", std::process::id()));
        let src = dir.join("crates/demo/src");
        std::fs::create_dir_all(&src).unwrap();
        std::fs::write(
            src.join("lib.rs"),
            "pub fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
        )
        .unwrap();
        // Tests are not scanned: every rule exempts them.
        std::fs::create_dir_all(dir.join("crates/demo/tests")).unwrap();
        std::fs::write(dir.join("crates/demo/tests/t.rs"), "fn t() { x.unwrap(); }\n").unwrap();
        let files = default_targets(&dir).unwrap();
        assert_eq!(files.len(), 1);

        // Both the sort rule and the unwrap rule fire.
        let report = run(&dir, &files).unwrap();
        assert!(!report.is_clean());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"no-float-partial-cmp-sort"));
        assert!(rules.contains(&"no-unwrap-in-lib"));

        std::fs::remove_dir_all(&dir).ok();
    }
}
