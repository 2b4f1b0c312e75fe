//! # traj-lint — repo-specific static analysis for the Traj2Hash workspace
//!
//! A lightweight source lint driver: a character-level scanner
//! ([`source`]) feeds a token-level pass ([`tokens`]: function
//! boundaries, lock-guard scopes) and twelve rules ([`rules`]) that
//! encode invariants this repository has already been burned by —
//! NaN-unsound float sorts, panicking library code, a serving crate
//! that must never take the process down, bare lock acquisitions that
//! decide poison policy ad hoc, guards held across compute,
//! silently-wrapping casts, undeclared atomic orderings, query entry
//! points that dodge per-query tracing, undeclared `unsafe`, and
//! container magics that must not collide (all centrally declared in
//! [`registry`]).
//!
//! No rustc plugin, no external dependencies: the whole pass runs in
//! milliseconds and works in the fully-offline build environment. The
//! `traj-lint` binary wires it into `./check.sh` as a hard gate; see
//! `DESIGN.md` §10 for the rule catalogue and the allowlist policy.
//!
//! Suppression, in order of preference:
//! 1. fix the finding;
//! 2. annotate a genuinely-false positive in place with
//!    `// lint: allow(<rule-or-alias>) <one-line justification>`;
//! 3. add a `rule<TAB>path<TAB>snippet` entry to `lint.allow` at the
//!    repo root (hard-capped at 20 entries so the escape hatch cannot
//!    become a landfill).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod registry;
pub mod rules;
pub mod source;
pub mod tokens;

pub use rules::{check_file, Finding, RULES};
pub use source::{scan, ScannedFile};

use std::path::{Path, PathBuf};

/// Maximum `lint.allow` entries before the driver refuses to run: the
/// allowlist is an escape hatch, not a parking lot.
pub const ALLOWLIST_CAP: usize = 20;

/// One `lint.allow` entry: `rule<TAB>path<TAB>snippet`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule identifier the entry suppresses.
    pub rule: String,
    /// Repo-relative path it applies to.
    pub path: String,
    /// Trimmed offending line (line-number-free so entries survive
    /// unrelated edits to the file).
    pub snippet: String,
}

/// The outcome of a full lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Findings that survived the allowlist — these fail the gate.
    pub findings: Vec<Finding>,
    /// Non-fatal observations (stale allowlist entries, unused registry
    /// magics).
    pub warnings: Vec<String>,
    /// Findings suppressed by `lint.allow`.
    pub suppressed: usize,
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
    /// Reading a source or allowlist file failed.
    Io(PathBuf, std::io::Error),
    /// An allowlist line is not `rule<TAB>path<TAB>snippet`.
    MalformedAllowlist {
        /// 1-based line in the allowlist file.
        line: usize,
        /// The offending text.
        text: String,
    },
    /// The allowlist exceeds [`ALLOWLIST_CAP`] entries.
    AllowlistOverCap {
        /// Entries found.
        got: usize,
    },
    /// The same `rule<TAB>path<TAB>snippet` entry appears twice.
    DuplicateAllowEntry {
        /// 1-based line of the second occurrence.
        line: usize,
        /// The duplicated entry text.
        text: String,
    },
    /// Entries are not in sorted order, so diffs churn and duplicates
    /// hide. `--fix-list` prints entries pre-sorted; paste them as-is.
    UnsortedAllowlist {
        /// 1-based line of the first out-of-order entry.
        line: usize,
        /// The entry that sorts before its predecessor.
        text: String,
    },
    /// The magic registry itself contains duplicates.
    DuplicateRegistryMagic(String),
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Io(p, e) => write!(f, "io error on {}: {e}", p.display()),
            LintError::MalformedAllowlist { line, text } => {
                write!(f, "lint.allow line {line} is not rule<TAB>path<TAB>snippet: {text:?}")
            }
            LintError::AllowlistOverCap { got } => write!(
                f,
                "lint.allow has {got} entries, over the cap of {ALLOWLIST_CAP}: fix findings \
                 instead of allowlisting them"
            ),
            LintError::DuplicateAllowEntry { line, text } => {
                write!(f, "lint.allow line {line} duplicates an earlier entry: {text:?}")
            }
            LintError::UnsortedAllowlist { line, text } => {
                write!(
                    f,
                    "lint.allow line {line} is out of sorted order: {text:?} — keep entries \
                     sorted (rule, then path, then snippet); `--fix-list` prints them pre-sorted"
                )
            }
            LintError::DuplicateRegistryMagic(m) => {
                write!(f, "magic registry declares {m:?} twice")
            }
        }
    }
}

impl std::error::Error for LintError {}

/// Parses a `lint.allow` file. Blank lines and `#` comments are
/// ignored; every other line must be `rule<TAB>path<TAB>snippet`.
/// Entries must be unique and in sorted order (rule, then path, then
/// snippet) — duplicates and unsorted files are hard errors so the
/// allowlist stays diffable and duplicate suppressions cannot hide.
pub fn parse_allowlist(text: &str) -> Result<Vec<AllowEntry>, LintError> {
    let mut entries: Vec<AllowEntry> = Vec::new();
    let mut prev_key: Option<(usize, (String, String, String))> = None;
    for (idx, line) in text.lines().enumerate() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, '\t');
        match (parts.next(), parts.next(), parts.next()) {
            (Some(rule), Some(path), Some(snippet)) if !rule.trim().is_empty() => {
                let entry = AllowEntry {
                    rule: rule.trim().to_string(),
                    path: path.trim().to_string(),
                    snippet: snippet.trim().to_string(),
                };
                let key = (entry.rule.clone(), entry.path.clone(), entry.snippet.clone());
                if let Some((_, prev)) = &prev_key {
                    if *prev == key {
                        return Err(LintError::DuplicateAllowEntry {
                            line: idx + 1,
                            text: trimmed.to_string(),
                        });
                    }
                    if *prev > key {
                        // A duplicate of a non-adjacent entry also lands
                        // here: equal keys cannot be sorted apart.
                        let dup = entries.iter().any(|e| {
                            (e.rule.as_str(), e.path.as_str(), e.snippet.as_str())
                                == (key.0.as_str(), key.1.as_str(), key.2.as_str())
                        });
                        if dup {
                            return Err(LintError::DuplicateAllowEntry {
                                line: idx + 1,
                                text: trimmed.to_string(),
                            });
                        }
                        return Err(LintError::UnsortedAllowlist {
                            line: idx + 1,
                            text: trimmed.to_string(),
                        });
                    }
                }
                prev_key = Some((idx + 1, key));
                entries.push(entry);
            }
            _ => {
                return Err(LintError::MalformedAllowlist {
                    line: idx + 1,
                    text: line.to_string(),
                })
            }
        }
    }
    if entries.len() > ALLOWLIST_CAP {
        return Err(LintError::AllowlistOverCap { got: entries.len() });
    }
    Ok(entries)
}

/// Collects the `.rs` files the gate covers: every package's `src/`,
/// `tests/` and `examples/` — the member crates under `crates/*` and the
/// root meta-crate — skipping `vendor/`, `target/`, and lint fixtures.
/// Test and example files are exempt from every rule but
/// `unsafe-registry` ([`is_test_path`]).
pub fn default_targets(root: &Path) -> Result<Vec<PathBuf>, LintError> {
    let mut files = Vec::new();
    let mut packages = vec![root.to_path_buf()];
    let crates = root.join("crates");
    if crates.is_dir() {
        packages.extend(read_dir_sorted(&crates)?);
    }
    for package in packages {
        for dir in ["src", "tests", "examples"] {
            let dir = package.join(dir);
            if dir.is_dir() {
                walk_rs(&dir, &mut files)?;
            }
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

/// Runs all rules over `files` (absolute paths, reported relative to
/// `root`), applies `allow`, and cross-checks the magic registry.
pub fn run(root: &Path, files: &[PathBuf], allow: &[AllowEntry]) -> Result<LintReport, LintError> {
    if let Some(dup) = registry::registry_duplicates().first() {
        return Err(LintError::DuplicateRegistryMagic(dup.to_string()));
    }
    let mut report = LintReport::default();
    let mut raw_findings: Vec<Finding> = Vec::new();
    let mut seen_magics: std::collections::HashSet<String> = std::collections::HashSet::new();
    let mut intent_seen = vec![false; registry::ATOMIC_INTENTS.len()];
    let mut helper_seen = vec![false; registry::LOCK_HELPERS.len()];
    let mut print_seen = vec![false; registry::RAW_PRINT_ALLOWED.len()];
    let mut traced_seen = vec![false; registry::TRACED_ENTRY_POINTS.len()];
    let mut unsafe_seen = vec![false; registry::UNSAFE_SITES.len()];

    for file in files {
        let text =
            std::fs::read_to_string(file).map_err(|e| LintError::Io(file.clone(), e))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        let scanned = scan(&rel, &text, is_test_path(&rel));
        for lit in &scanned.byte_literals {
            seen_magics.insert(lit.value.clone());
        }
        for (i, intent) in registry::ATOMIC_INTENTS.iter().enumerate() {
            if intent.path == rel
                && scanned.lines.iter().any(|l| rules::contains_word(&l.masked, intent.atomic))
            {
                intent_seen[i] = true;
            }
        }
        for (i, helper) in registry::LOCK_HELPERS.iter().enumerate() {
            let decl = format!("fn {}", helper.name);
            if helper.path == rel
                && scanned.lines.iter().any(|l| rules::contains_word(&l.masked, &decl))
            {
                helper_seen[i] = true;
            }
        }
        for (i, allow) in registry::RAW_PRINT_ALLOWED.iter().enumerate() {
            const PRINTS: &[&str] = &["println!", "eprintln!", "print!(", "eprint!("];
            if allow.path == rel
                && scanned.lines.iter().any(|l| PRINTS.iter().any(|p| l.masked.contains(p)))
            {
                print_seen[i] = true;
            }
        }
        for (i, entry) in registry::TRACED_ENTRY_POINTS.iter().enumerate() {
            let decl = format!("fn {}", entry.func);
            if entry.path == rel
                && scanned.lines.iter().any(|l| rules::contains_word(&l.masked, &decl))
            {
                traced_seen[i] = true;
            }
        }
        for (i, site) in registry::UNSAFE_SITES.iter().enumerate() {
            if site.path == rel
                && scanned.lines.iter().any(|l| rules::contains_word(&l.masked, "unsafe"))
            {
                unsafe_seen[i] = true;
            }
        }
        check_file(&scanned, is_lib_crate_path(&rel), &mut raw_findings);
        report.files_scanned += 1;
    }

    // Registry hygiene: a declared magic nothing writes any more is a
    // stale entry worth a look (warning, not failure — the magic may be
    // kept for backwards-compatible readers). Likewise a lock helper or
    // atomic intent whose code has moved or vanished. Fixture pins
    // (crates/demo/…) are never scanned and are exempt.
    for magic in registry::KNOWN_MAGICS {
        if !seen_magics.contains(*magic) {
            report
                .warnings
                .push(format!("registry magic {magic:?} does not appear in any scanned file"));
        }
    }
    for (intent, seen) in registry::ATOMIC_INTENTS.iter().zip(&intent_seen) {
        if !seen && !intent.path.starts_with(registry::FIXTURE_PATH_PREFIX) {
            report.warnings.push(format!(
                "stale atomic intent: `{}` is not used in {}",
                intent.atomic, intent.path
            ));
        }
    }
    for (helper, seen) in registry::LOCK_HELPERS.iter().zip(&helper_seen) {
        if !seen && !helper.path.starts_with(registry::FIXTURE_PATH_PREFIX) {
            report.warnings.push(format!(
                "stale lock helper: `fn {}` is not defined in {}",
                helper.name, helper.path
            ));
        }
    }
    for (allow, seen) in registry::RAW_PRINT_ALLOWED.iter().zip(&print_seen) {
        if !seen && !allow.path.starts_with(registry::FIXTURE_PATH_PREFIX) {
            report.warnings.push(format!(
                "stale raw-print allowance: {} contains no print macro",
                allow.path
            ));
        }
    }
    for (entry, seen) in registry::TRACED_ENTRY_POINTS.iter().zip(&traced_seen) {
        if !seen && !entry.path.starts_with(registry::FIXTURE_PATH_PREFIX) {
            report.warnings.push(format!(
                "stale traced entry point: `fn {}` is not defined in {}",
                entry.func, entry.path
            ));
        }
    }

    for (site, seen) in registry::UNSAFE_SITES.iter().zip(&unsafe_seen) {
        if !seen && !site.path.starts_with(registry::FIXTURE_PATH_PREFIX) {
            report.warnings.push(format!("stale unsafe site: {} contains no `unsafe`", site.path));
        }
    }

    // Allowlist application + staleness tracking.
    let mut used = vec![false; allow.len()];
    for finding in raw_findings {
        let matched = allow.iter().enumerate().find(|(_, e)| {
            e.rule == finding.rule && e.path == finding.path && e.snippet == finding.snippet
        });
        match matched {
            Some((i, _)) => {
                used[i] = true;
                report.suppressed += 1;
            }
            None => report.findings.push(finding),
        }
    }
    for (entry, used) in allow.iter().zip(&used) {
        if !used {
            report.warnings.push(format!(
                "stale lint.allow entry: {}\t{}\t{}",
                entry.rule, entry.path, entry.snippet
            ));
        }
    }
    report.findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.rule).cmp(&(b.path.as_str(), b.line, b.rule))
    });
    Ok(report)
}

/// The `--fix-list` rendering of a finding: a ready-to-paste
/// `lint.allow` entry.
pub fn fix_list_entry(f: &Finding) -> String {
    format!("{}\t{}\t{}", f.rule, f.path, f.snippet)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allowlist_parses_and_caps() {
        let entries = parse_allowlist(
            "# comment\n\nno-unwrap-in-lib\tcrates/x/src/lib.rs\tlet x = y.unwrap();\n",
        )
        .unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "no-unwrap-in-lib");

        assert!(matches!(
            parse_allowlist("just one field\n"),
            Err(LintError::MalformedAllowlist { line: 1, .. })
        ));

        let over: String =
            (0..21).map(|i| format!("r\tp{i:02}\ts\n")).collect();
        assert!(matches!(
            parse_allowlist(&over),
            Err(LintError::AllowlistOverCap { got: 21 })
        ));
    }

    #[test]
    fn allowlist_rejects_duplicates_with_the_offending_line() {
        // Adjacent duplicate.
        let err = parse_allowlist("ruleA\tsrc/a.rs\tsnippet\nruleA\tsrc/a.rs\tsnippet\n")
            .expect_err("duplicate must be rejected");
        assert!(matches!(&err, LintError::DuplicateAllowEntry { line: 2, .. }), "{err}");
        assert!(err.to_string().contains("duplicates an earlier entry"));

        // Non-adjacent duplicate (necessarily unsorted) is still
        // reported as a duplicate, not merely as unsorted.
        let err = parse_allowlist(
            "ruleA\tsrc/a.rs\tx\nruleB\tsrc/b.rs\ty\nruleA\tsrc/a.rs\tx\n",
        )
        .expect_err("non-adjacent duplicate must be rejected");
        assert!(matches!(err, LintError::DuplicateAllowEntry { line: 3, .. }));
    }

    #[test]
    fn allowlist_rejects_unsorted_entries_with_guidance() {
        let err = parse_allowlist("ruleB\tsrc/b.rs\ty\nruleA\tsrc/a.rs\tx\n")
            .expect_err("unsorted must be rejected");
        assert!(matches!(&err, LintError::UnsortedAllowlist { line: 2, .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains("out of sorted order"), "{msg}");
        assert!(msg.contains("--fix-list"), "diagnostic must point at the fix: {msg}");

        // Comments and blank lines between entries do not confuse the
        // order check, and a properly sorted file parses.
        let ok = parse_allowlist(
            "# header\nruleA\tsrc/a.rs\tx\n\n# note\nruleA\tsrc/b.rs\ty\nruleB\tsrc/a.rs\tz\n",
        )
        .expect("sorted file parses");
        assert_eq!(ok.len(), 3);
    }

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
        let files = default_targets(&dir).unwrap();
        assert_eq!(files.len(), 1);

        // Ungated: both the sort rule and the unwrap rule fire.
        let report = run(&dir, &files, &[]).unwrap();
        assert!(!report.is_clean());
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"no-float-partial-cmp-sort"));
        assert!(rules.contains(&"no-unwrap-in-lib"));

        // Allowlisting one finding suppresses exactly that finding.
        let entry = AllowEntry {
            rule: "no-unwrap-in-lib".into(),
            path: "crates/demo/src/lib.rs".into(),
            snippet: "v.sort_by(|a, b| a.partial_cmp(b).unwrap());".into(),
        };
        let report = run(&dir, &files, std::slice::from_ref(&entry)).unwrap();
        assert_eq!(report.suppressed, 1);
        assert!(report.findings.iter().all(|f| f.rule != "no-unwrap-in-lib"));

        // A stale entry (nothing matches) is a warning, not a failure.
        let stale = AllowEntry { rule: "no-silent-clamp".into(), path: "nope.rs".into(), snippet: "x".into() };
        let report = run(&dir, &files, &[stale]).unwrap();
        assert!(report.warnings.iter().any(|w| w.contains("stale lint.allow entry")));

        std::fs::remove_dir_all(&dir).ok();
    }
}
