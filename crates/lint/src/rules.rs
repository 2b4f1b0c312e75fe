//! The repo-specific lint rules.
//!
//! Every rule works on the masked (code-only) view a [`ScannedFile`]
//! provides, skips test code, and honours `// lint: allow(...)`
//! annotations on the same or the immediately preceding line. Rules are
//! deliberately token-level: they trade a rustc plugin's precision for
//! zero dependencies and an offline-friendly sub-second run, and the
//! patterns they match (`partial_cmp` in a comparator, `.unwrap()`,
//! `panic!`) are distinctive enough that masking comments and strings
//! removes essentially all false positives.

use crate::registry::{
    ATOMIC_INTENTS, COMPUTE_CALLS, KNOWN_MAGICS, LOCK_HELPERS, RAW_PRINT_ALLOWED,
    TRACED_ENTRY_POINTS, UNSAFE_SITES,
};
use crate::source::ScannedFile;
use crate::tokens::{
    acquisitions, enclosing_fn, function_spans, guard_scope, tokenize, AcquireKind, TokenKind,
};
use std::fmt;

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier, e.g. `no-unwrap-in-lib`.
    pub rule: &'static str,
    /// Repo-relative file path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending line, trimmed — also the allowlist matching key.
    pub snippet: String,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}\n    {}", self.path, self.line, self.rule, self.message, self.snippet)
    }
}

/// All rule identifiers, in reporting order.
pub const RULES: &[&str] = &[
    "no-float-partial-cmp-sort",
    "no-unwrap-in-lib",
    "no-silent-clamp",
    "no-panic-in-engine",
    "no-raw-print-in-lib",
    "checkpoint-magic-registry",
    "no-bare-lock",
    "no-guard-across-compute",
    "no-lossy-as-cast",
    "atomic-ordering-registry",
    "trace-span-coverage",
    "unsafe-registry",
];

/// Short aliases accepted in `// lint: allow(...)` annotations.
fn rule_aliases(rule: &str) -> &[&str] {
    match rule {
        "no-float-partial-cmp-sort" => &["partial-cmp", "no-float-partial-cmp-sort"],
        "no-unwrap-in-lib" => &["unwrap", "no-unwrap-in-lib"],
        "no-silent-clamp" => &["silent-clamp", "no-silent-clamp"],
        "no-panic-in-engine" => &["panic", "no-panic-in-engine"],
        "no-raw-print-in-lib" => &["raw-print", "no-raw-print-in-lib"],
        "checkpoint-magic-registry" => &["magic", "checkpoint-magic-registry"],
        "no-bare-lock" => &["bare-lock", "no-bare-lock"],
        "no-guard-across-compute" => &["guard-across-compute", "no-guard-across-compute"],
        "no-lossy-as-cast" => &["lossy-cast", "no-lossy-as-cast"],
        "atomic-ordering-registry" => &["atomic-ordering", "atomic-ordering-registry"],
        "trace-span-coverage" => &["trace-span", "trace-span-coverage"],
        "unsafe-registry" => &["unsafe", "unsafe-registry"],
        _ => &[],
    }
}

/// True when line `idx` (0-based) carries or inherits an annotation
/// allowing `rule`: `// lint: allow(name)` on the same line or on the
/// line directly above, with `name` either the rule id or its alias.
/// Multiple names may be comma-separated.
fn is_allowed(file: &ScannedFile, idx: usize, rule: &str) -> bool {
    let allows = |comment: &str| -> bool {
        let Some(pos) = comment.find("lint: allow(") else { return false };
        let rest = &comment[pos + "lint: allow(".len()..];
        let Some(end) = rest.find(')') else { return false };
        rest[..end]
            .split(',')
            .map(str::trim)
            .any(|name| rule_aliases(rule).contains(&name))
    };
    if allows(&file.lines[idx].comment) {
        return true;
    }
    idx > 0 && allows(&file.lines[idx - 1].comment)
}

/// Standard per-line scaffold: applies the test exemption and the
/// annotation check, then lets `matcher` decide.
fn scan_lines(
    file: &ScannedFile,
    rule: &'static str,
    message: &str,
    out: &mut Vec<Finding>,
    matcher: impl Fn(&str) -> bool,
) {
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !matcher(&line.masked) || is_allowed(file, idx, rule) {
            continue;
        }
        out.push(Finding {
            rule,
            path: file.path.clone(),
            line: idx + 1,
            snippet: line.raw.trim().to_string(),
            message: message.to_string(),
        });
    }
}

/// `no-float-partial-cmp-sort`: float ordering must route through
/// `traj_index::topk` or `total_cmp`. `partial_cmp` in non-test library
/// code is how the 7 NaN-unsound sorts of PRs 1–3 slipped through:
/// `unwrap_or(Equal)` silently scrambles the order and `.unwrap()`
/// panics the first time a distance is poisoned.
pub fn no_float_partial_cmp_sort(file: &ScannedFile, out: &mut Vec<Finding>) {
    scan_lines(
        file,
        "no-float-partial-cmp-sort",
        "float ordering via partial_cmp; use total_cmp or traj_index::topk",
        out,
        |masked| masked.contains(".partial_cmp("),
    );
}

/// `no-unwrap-in-lib`: library crates return typed errors instead of
/// panicking. `#[cfg(test)]` code is exempt; genuinely infallible sites
/// carry `// lint: allow(unwrap)` with a one-line justification.
pub fn no_unwrap_in_lib(file: &ScannedFile, out: &mut Vec<Finding>) {
    scan_lines(
        file,
        "no-unwrap-in-lib",
        "unwrap() in library code; return a typed error or justify with lint: allow(unwrap)",
        out,
        |masked| masked.contains(".unwrap()"),
    );
}

/// `no-silent-clamp`: bans `unwrap_or(Ordering::Equal)` — the pattern
/// that turns a failed float comparison into a silent reorder instead
/// of an error.
pub fn no_silent_clamp(file: &ScannedFile, out: &mut Vec<Finding>) {
    scan_lines(
        file,
        "no-silent-clamp",
        "unwrap_or(Ordering::Equal) silently clamps a failed comparison",
        out,
        |masked| {
            masked.contains("unwrap_or(Ordering::Equal)")
                || (masked.contains("unwrap_or(") && masked.contains("Ordering::Equal"))
        },
    );
}

/// `no-panic-in-engine`: crates on the serving and evaluation paths
/// must never panic on operational input — a poisoned query or a dead
/// worker must surface as a typed error (`EngineError`, `EvalError`),
/// not take the process down. Applies to `crates/engine/src`,
/// `crates/eval/src` and the encoder forward the engine calls,
/// `crates/core/src/infer.rs`.
pub fn no_panic_in_engine(file: &ScannedFile, out: &mut Vec<Finding>) {
    const COVERED: &[&str] = &["crates/engine/src", "crates/eval/src", "crates/core/src/infer.rs"];
    if !COVERED.iter().any(|p| file.path.contains(p)) {
        return;
    }
    const PATTERNS: &[&str] = &["panic!", ".expect(", "unreachable!", "todo!", "unimplemented!"];
    scan_lines(
        file,
        "no-panic-in-engine",
        "potential panic on a no-panic path; return a typed error (EngineError/EvalError)",
        out,
        |masked| PATTERNS.iter().any(|p| masked.contains(p)),
    );
}

/// `no-raw-print-in-lib`: library modules must not write to
/// stdout/stderr directly — diagnostics route through `traj_obs`
/// (events/counters a sink can format or export) or come back as
/// return values the caller renders. Binary targets (`src/bin/`,
/// `main.rs`) own the terminal and are exempt; deliberate CLI output
/// elsewhere carries `// lint: allow(raw-print)`.
pub fn no_raw_print_in_lib(file: &ScannedFile, out: &mut Vec<Finding>) {
    let path = &file.path;
    let in_lib_module = path.contains("crates/")
        && path.contains("/src/")
        && !path.contains("/src/bin/")
        && !path.ends_with("/main.rs");
    if !in_lib_module || RAW_PRINT_ALLOWED.iter().any(|a| a.path == file.path) {
        return;
    }
    const PATTERNS: &[&str] = &["println!", "eprintln!", "print!(", "eprint!("];
    scan_lines(
        file,
        "no-raw-print-in-lib",
        "raw stdout/stderr print in library code; emit a traj_obs event or return the text",
        out,
        |masked| PATTERNS.iter().any(|p| masked.contains(p)),
    );
}

/// `checkpoint-magic-registry`: every container magic (a 4–8 character
/// uppercase-alphanumeric byte-string like `T2HSNAP1`) must be declared
/// in [`crate::registry::KNOWN_MAGICS`], so two serialization formats
/// can never silently claim the same header.
pub fn checkpoint_magic_registry(file: &ScannedFile, out: &mut Vec<Finding>) {
    for lit in &file.byte_literals {
        let looks_like_magic = (4..=8).contains(&lit.value.len())
            && lit.value.chars().all(|c| c.is_ascii_uppercase() || c.is_ascii_digit())
            && lit.value.chars().any(|c| c.is_ascii_uppercase());
        if !looks_like_magic {
            continue;
        }
        let idx = lit.line - 1;
        if file.lines[idx].in_test
            || KNOWN_MAGICS.contains(&lit.value.as_str())
            || is_allowed(file, idx, "checkpoint-magic-registry")
        {
            continue;
        }
        out.push(Finding {
            rule: "checkpoint-magic-registry",
            path: file.path.clone(),
            line: lit.line,
            snippet: file.lines[idx].raw.trim().to_string(),
            message: format!(
                "container magic b\"{}\" is not declared in the magic registry \
                 (crates/lint/src/registry.rs)",
                lit.value
            ),
        });
    }
}

/// True when `word` occurs in `line` with identifier boundaries on
/// both sides (so the intent for `SEQ` does not match `SEQ_LEN`).
pub(crate) fn contains_word(line: &str, word: &str) -> bool {
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

/// `no-bare-lock`: a `.lock()` / `.read()` / `.write()` call on a
/// `Mutex`/`RwLock` anywhere outside the sanctioned poison-proof
/// helpers in [`LOCK_HELPERS`]. Direct acquisition decides the poison
/// policy ad hoc at every call site — one `.expect("poisoned")` wedges
/// the serving plane the first time a writer panics. Route through the
/// registered helper for the lock family instead.
pub fn no_bare_lock(file: &ScannedFile, out: &mut Vec<Finding>) {
    let tokens = tokenize(file);
    let spans = function_spans(&tokens);
    let helper_names: Vec<&str> = LOCK_HELPERS.iter().map(|h| h.name).collect();
    for acq in acquisitions(&tokens, &helper_names) {
        if acq.kind != AcquireKind::Bare {
            continue;
        }
        let idx = acq.line - 1;
        if file.lines[idx].in_test || is_allowed(file, idx, "no-bare-lock") {
            continue;
        }
        // A registered helper's own body is the one sanctioned home for
        // the bare call — but only in its registered file.
        if let Some(f) = enclosing_fn(&spans, acq.name_token) {
            if LOCK_HELPERS.iter().any(|h| h.name == f.name && h.path == file.path) {
                continue;
            }
        }
        out.push(Finding {
            rule: "no-bare-lock",
            path: file.path.clone(),
            line: acq.line,
            snippet: file.lines[idx].raw.trim().to_string(),
            message: format!(
                "bare .{}() lock acquisition; route through a sanctioned poison-proof \
                 helper (crates/lint/src/registry.rs LOCK_HELPERS)",
                acq.name
            ),
        });
    }
}

/// `no-guard-across-compute`: a lock guard live across a call into a
/// [`COMPUTE_CALLS`] entry point (search/encode/rebuild/snapshot).
/// Holding a publish-cell read guard across a model forward pass stalls
/// the writer — and every other reader queued behind it — for the whole
/// computation, and a panic inside the compute poisons the lock.
/// Snapshot the `Arc` first (`Arc::clone(&rread(..))`), let the guard
/// drop, then compute.
pub fn no_guard_across_compute(file: &ScannedFile, out: &mut Vec<Finding>) {
    let tokens = tokenize(file);
    let spans = function_spans(&tokens);
    let helper_names: Vec<&str> = LOCK_HELPERS.iter().map(|h| h.name).collect();
    for acq in acquisitions(&tokens, &helper_names) {
        let Some(f) = enclosing_fn(&spans, acq.name_token) else { continue };
        let acq_idx = acq.line - 1;
        if file.lines[acq_idx].in_test {
            continue;
        }
        let scope = guard_scope(&tokens, &acq, f.body_open, f.body_close);
        for j in scope.start..=scope.end.min(tokens.len().saturating_sub(1)) {
            let t = &tokens[j];
            if t.kind != TokenKind::Ident
                || !COMPUTE_CALLS.contains(&t.text.as_str())
                || !tokens.get(j + 1).map(|n| n.text == "(").unwrap_or(false)
            {
                continue;
            }
            let call_idx = t.line - 1;
            if is_allowed(file, call_idx, "no-guard-across-compute")
                || is_allowed(file, acq_idx, "no-guard-across-compute")
            {
                continue;
            }
            out.push(Finding {
                rule: "no-guard-across-compute",
                path: file.path.clone(),
                line: t.line,
                snippet: file.lines[call_idx].raw.trim().to_string(),
                message: format!(
                    "guard `{}` (acquired line {}) is live across compute call `{}`; \
                     clone the Arc out and drop the guard before computing",
                    scope.binding, acq.line, t.text
                ),
            });
            break; // one finding per guard keeps the report readable
        }
    }
}

/// Cast targets the `no-lossy-as-cast` rule treats as narrowing. `u64`
/// / `i64` / floats are excluded: widening casts to them cannot lose
/// integer range on any supported platform, while `as usize` (and
/// smaller) truncates silently when a 64-bit length field arrives
/// corrupt.
const NARROW_TARGETS: &[&str] = &["usize", "isize", "u8", "u16", "u32", "i8", "i16", "i32"];

/// `no-lossy-as-cast`: a narrowing `as` cast in library code. `as`
/// silently wraps — a corrupt `u64` length decodes as a small `usize`
/// and the reader misparses the rest of the container instead of
/// erroring. Use `try_into()` with the crate's typed error, or justify
/// a provably-in-range cast with `// lint: allow(lossy-cast)`.
pub fn no_lossy_as_cast(file: &ScannedFile, out: &mut Vec<Finding>) {
    let tokens = tokenize(file);
    let mut last_line = 0usize;
    for (j, t) in tokens.iter().enumerate() {
        if t.kind != TokenKind::Ident || t.text != "as" {
            continue;
        }
        let Some(target) = tokens.get(j + 1) else { continue };
        if target.kind != TokenKind::Ident || !NARROW_TARGETS.contains(&target.text.as_str()) {
            continue;
        }
        let idx = t.line - 1;
        if t.line == last_line || file.lines[idx].in_test || is_allowed(file, idx, "no-lossy-as-cast")
        {
            continue;
        }
        last_line = t.line; // one finding per line even with several casts
        out.push(Finding {
            rule: "no-lossy-as-cast",
            path: file.path.clone(),
            line: t.line,
            snippet: file.lines[idx].raw.trim().to_string(),
            message: format!(
                "narrowing `as {}` cast in library code; use try_into() with a typed \
                 error, or justify with lint: allow(lossy-cast)",
                target.text
            ),
        });
    }
}

/// The orderings the `atomic-ordering-registry` rule recognises.
const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// `atomic-ordering-registry`: every `Ordering::*` use site must match
/// a declared [`ATOMIC_INTENTS`] entry for (file, atomic). An ordering
/// choice is an argument about every other thread in the program; the
/// registry forces that argument to be written down once, reviewed, and
/// kept in sync with the code. Policy: `Relaxed` only for monotone obs
/// counters, `Acquire`/`Release`/`SeqCst` for anything that publishes.
pub fn atomic_ordering_registry(file: &ScannedFile, out: &mut Vec<Finding>) {
    let intents: Vec<_> = ATOMIC_INTENTS.iter().filter(|i| i.path == file.path).collect();
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test || !line.masked.contains("Ordering::") {
            continue;
        }
        for ord in ORDERINGS {
            let needle = format!("Ordering::{ord}");
            if !contains_word(&line.masked, &needle) {
                continue;
            }
            if is_allowed(file, idx, "atomic-ordering-registry") {
                continue;
            }
            let matching: Vec<_> =
                intents.iter().filter(|i| contains_word(&line.masked, i.atomic)).collect();
            let message = if matching.is_empty() {
                format!(
                    "Ordering::{ord} on an atomic with no declared intent; add the atomic \
                     to ATOMIC_INTENTS (crates/lint/src/registry.rs) with a rationale"
                )
            } else if matching.iter().any(|i| i.allowed.contains(ord)) {
                continue;
            } else {
                let i = matching[0];
                format!(
                    "Ordering::{ord} is not in the declared intent for `{}` (allowed: {}); \
                     change the code or re-justify the registry entry",
                    i.atomic,
                    i.allowed.join(", ")
                )
            };
            out.push(Finding {
                rule: "atomic-ordering-registry",
                path: file.path.clone(),
                line: idx + 1,
                snippet: line.raw.trim().to_string(),
                message,
            });
        }
    }
}

/// `trace-span-coverage`: every *public* `query*` entry point in
/// `crates/engine` must return or fill a `QueryTrace` so no query path
/// can silently opt out of per-query tracing. Thin delegating wrappers
/// that never name it are sanctioned via [`TRACED_ENTRY_POINTS`] — a
/// registry diff, where a reviewer sees the whole coverage story at a
/// glance.
pub fn trace_span_coverage(file: &ScannedFile, out: &mut Vec<Finding>) {
    if !file.path.contains("crates/engine/src") {
        return;
    }
    let tokens = tokenize(file);
    for span in function_spans(&tokens) {
        if !span.name.starts_with("query") {
            continue;
        }
        // Only plain `pub` is a public entry point; `pub(crate)` and
        // private fns are internal plumbing the ctx threads through.
        if span.fn_token == 0 || tokens[span.fn_token - 1].text != "pub" {
            continue;
        }
        let idx = span.start_line - 1;
        if file.lines[idx].in_test || is_allowed(file, idx, "trace-span-coverage") {
            continue;
        }
        let traced = tokens[span.fn_token..=span.body_close]
            .iter()
            .any(|t| t.kind == TokenKind::Ident && t.text == "QueryTrace");
        if traced
            || TRACED_ENTRY_POINTS
                .iter()
                .any(|e| e.path == file.path && e.func == span.name)
        {
            continue;
        }
        out.push(Finding {
            rule: "trace-span-coverage",
            path: file.path.clone(),
            line: span.start_line,
            snippet: file.lines[idx].raw.trim().to_string(),
            message: format!(
                "public entry point `{}` neither returns/fills a QueryTrace nor is \
                 registered as a traced delegate (TRACED_ENTRY_POINTS in \
                 crates/lint/src/registry.rs)",
                span.name
            ),
        });
    }
}

/// `unsafe-registry`: the workspace keeps its `unsafe` where a reviewer
/// can count it. An `unsafe` anywhere the gate scans — tests and
/// examples included, this rule has no test exemption — must sit in a
/// file declared in [`UNSAFE_SITES`] with its reason. (Library crates
/// also carry `#![forbid(unsafe_code)]`, so rustc says it first.)
pub fn unsafe_registry(file: &ScannedFile, out: &mut Vec<Finding>) {
    if UNSAFE_SITES.iter().any(|u| u.path == file.path) {
        return;
    }
    for (idx, line) in file.lines.iter().enumerate() {
        if !contains_word(&line.masked, "unsafe") || is_allowed(file, idx, "unsafe-registry") {
            continue;
        }
        out.push(Finding {
            rule: "unsafe-registry",
            path: file.path.clone(),
            line: idx + 1,
            snippet: line.raw.trim().to_string(),
            message: "`unsafe` in a file not declared in UNSAFE_SITES \
                      (crates/lint/src/registry.rs); write it in safe Rust or declare the \
                      file with its reason"
                .to_string(),
        });
    }
}

/// Runs every rule applicable to `file`. `lib_crate` gates the
/// unwrap and lossy-cast rules: binaries and dev-tooling crates
/// (bench, lint) may unwrap and cast, library crates may not.
pub fn check_file(file: &ScannedFile, lib_crate: bool, out: &mut Vec<Finding>) {
    no_float_partial_cmp_sort(file, out);
    if lib_crate {
        no_unwrap_in_lib(file, out);
        no_lossy_as_cast(file, out);
    }
    no_silent_clamp(file, out);
    no_panic_in_engine(file, out);
    no_raw_print_in_lib(file, out);
    checkpoint_magic_registry(file, out);
    no_bare_lock(file, out);
    no_guard_across_compute(file, out);
    atomic_ordering_registry(file, out);
    trace_span_coverage(file, out);
    unsafe_registry(file, out);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::scan;

    fn findings_for(src: &str, lib_crate: bool) -> Vec<Finding> {
        let file = scan("crates/x/src/lib.rs", src, false);
        let mut out = Vec::new();
        check_file(&file, lib_crate, &mut out);
        out
    }

    #[test]
    fn partial_cmp_is_flagged_outside_tests_and_strings() {
        let hits = findings_for("v.sort_by(|a, b| a.partial_cmp(b).unwrap());\n", false);
        assert!(hits.iter().any(|f| f.rule == "no-float-partial-cmp-sort"));
        assert!(findings_for("let s = \"partial_cmp\";\n", false).is_empty());
        assert!(findings_for("#[cfg(test)]\nmod t {\n fn f() { a.partial_cmp(b); }\n}\n", false)
            .is_empty());
    }

    #[test]
    fn unwrap_rule_respects_crate_kind_and_annotations() {
        let src = "let x = y.unwrap();\n";
        assert!(findings_for(src, true).iter().any(|f| f.rule == "no-unwrap-in-lib"));
        assert!(findings_for(src, false).iter().all(|f| f.rule != "no-unwrap-in-lib"));
        let annotated = "// lint: allow(unwrap) — len checked above\nlet x = y.unwrap();\n";
        assert!(findings_for(annotated, true).is_empty());
        let same_line = "let x = y.unwrap(); // lint: allow(unwrap) infallible\n";
        assert!(findings_for(same_line, true).is_empty());
    }

    #[test]
    fn silent_clamp_is_flagged() {
        let hits =
            findings_for("v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(Ordering::Equal));\n", false);
        assert!(hits.iter().any(|f| f.rule == "no-silent-clamp"));
    }

    #[test]
    fn engine_panic_rule_is_path_scoped() {
        let src = "fn f() { panic!(\"boom\"); }\n";
        for covered in
            ["crates/engine/src/engine.rs", "crates/eval/src/groundtruth.rs", "crates/core/src/infer.rs"]
        {
            let file = scan(covered, src, false);
            let mut out = Vec::new();
            check_file(&file, true, &mut out);
            assert!(out.iter().any(|f| f.rule == "no-panic-in-engine"), "{covered}");
        }
        let other = scan("crates/core/src/lib.rs", src, false);
        let mut out = Vec::new();
        check_file(&other, true, &mut out);
        assert!(out.iter().all(|f| f.rule != "no-panic-in-engine"));
    }

    #[test]
    fn raw_print_rule_is_scoped_to_lib_modules() {
        let src = "fn f() { println!(\"hi\"); }\n";
        assert!(findings_for(src, false).iter().any(|f| f.rule == "no-raw-print-in-lib"));
        for bin_path in ["crates/demo/src/bin/tool.rs", "crates/demo/src/main.rs"] {
            let file = scan(bin_path, src, false);
            let mut out = Vec::new();
            check_file(&file, false, &mut out);
            assert!(out.iter().all(|f| f.rule != "no-raw-print-in-lib"), "{bin_path}");
        }
        let allowed = "// lint: allow(raw-print) — CLI usage text\nfn f() { eprintln!(\"x\"); }\n";
        assert!(findings_for(allowed, false).is_empty());
    }

    #[test]
    fn bare_lock_is_flagged_outside_registered_helpers() {
        let bare = findings_for("fn f(m: &Mutex<u32>) { let g = m.lock(); }\n", false);
        assert!(bare.iter().any(|f| f.rule == "no-bare-lock"));
        let bare_rw = findings_for("fn f(l: &RwLock<u32>) { let g = l.read(); l.write(); }\n", false);
        assert_eq!(bare_rw.iter().filter(|f| f.rule == "no-bare-lock").count(), 2);

        // Helper calls are sanctioned by name anywhere.
        let helper = findings_for("fn f(m: &Mutex<T>) { tlock(m).hits += 1; }\n", false);
        assert!(helper.iter().all(|f| f.rule != "no-bare-lock"));

        // The helper's own body is exempt — but only in its registered file.
        let body = "pub(crate) fn rread<T>(l: &RwLock<T>) -> G<T> {\n    match l.read() {\n        Ok(g) => g,\n        Err(p) => p.into_inner(),\n    }\n}\n";
        let home = scan("crates/engine/src/cell.rs", body, false);
        let mut out = Vec::new();
        no_bare_lock(&home, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let elsewhere = scan("crates/core/src/lib.rs", body, false);
        let mut out = Vec::new();
        no_bare_lock(&elsewhere, &mut out);
        assert_eq!(out.len(), 1, "same body outside the registered file must flag");

        // Annotation suppresses.
        let allowed =
            "fn f(m: &Mutex<u32>) {\n    // lint: allow(bare-lock) — single-threaded init\n    let g = m.lock();\n}\n";
        assert!(findings_for(allowed, false).iter().all(|f| f.rule != "no-bare-lock"));

        // `read` with arguments is IO, not a lock.
        let io = findings_for("fn f(r: &mut File) { r.read(&mut buf); }\n", false);
        assert!(io.iter().all(|f| f.rule != "no-bare-lock"));
    }

    #[test]
    fn guard_across_compute_distinguishes_retained_from_cloned() {
        let bad = "fn f(&self) -> R {\n    let bp = rread(&self.model);\n    let m = bp.instantiate();\n    m\n}\n";
        let hits = findings_for(bad, false);
        let f = hits.iter().find(|f| f.rule == "no-guard-across-compute").expect("must flag");
        assert!(f.message.contains("bp"), "{}", f.message);
        assert!(f.message.contains("instantiate"), "{}", f.message);

        // Method-chained compute on the guard temporary is the same hazard.
        let chained = "fn f(&self) -> R {\n    rread(&self.model).instantiate()\n}\n";
        assert!(findings_for(chained, false).iter().any(|f| f.rule == "no-guard-across-compute"));

        // Clone-then-drop is the sanctioned shape.
        let good = "fn f(&self) -> R {\n    let bp = Arc::clone(&rread(&self.model));\n    let m = bp.instantiate();\n    m\n}\n";
        assert!(
            findings_for(good, false).iter().all(|f| f.rule != "no-guard-across-compute"),
            "cloned Arc must not flag"
        );

        // Explicit drop ends the hazard window.
        let dropped = "fn f(&self) -> R {\n    let g = rwrite(&self.cell);\n    g.touch();\n    drop(g);\n    search(&q)\n}\n";
        assert!(findings_for(dropped, false).iter().all(|f| f.rule != "no-guard-across-compute"));

        // Bare acquisitions are tracked too.
        let bare = "fn f(&self) -> R {\n    let g = self.state.read();\n    search(&g)\n}\n";
        assert!(findings_for(bare, false).iter().any(|f| f.rule == "no-guard-across-compute"));
    }

    #[test]
    fn lossy_cast_flags_narrowing_targets_only_in_lib() {
        let src = "fn f(n: u64) -> usize { n as usize }\n";
        assert!(findings_for(src, true).iter().any(|f| f.rule == "no-lossy-as-cast"));
        assert!(findings_for(src, false).iter().all(|f| f.rule != "no-lossy-as-cast"));

        // Widening targets are fine.
        let wide = "fn f(n: u32) -> u64 { n as u64 }\nfn g(x: f32) -> f64 { x as f64 }\n";
        assert!(findings_for(wide, true).iter().all(|f| f.rule != "no-lossy-as-cast"));

        // One finding per line even with several casts.
        let multi = "fn f(a: u64, b: u64) -> (usize, u32) { (a as usize, b as u32) }\n";
        assert_eq!(
            findings_for(multi, true).iter().filter(|f| f.rule == "no-lossy-as-cast").count(),
            1
        );

        // Annotated sites pass.
        let ok = "fn f(n: u64) -> usize {\n    // lint: allow(lossy-cast) — n < 256, checked above\n    n as usize\n}\n";
        assert!(findings_for(ok, true).iter().all(|f| f.rule != "no-lossy-as-cast"));

        // `as` in a use-rename is not a cast.
        let rename = "use std::io::Result as IoResult;\n";
        assert!(findings_for(rename, true).iter().all(|f| f.rule != "no-lossy-as-cast"));
    }

    #[test]
    fn atomic_ordering_requires_a_declared_intent() {
        // Undeclared atomic: flagged regardless of ordering.
        let undeclared = findings_for("fn f() { HITS.fetch_add(1, Ordering::Relaxed); }\n", false);
        let f = undeclared.iter().find(|f| f.rule == "atomic-ordering-registry").expect("flag");
        assert!(f.message.contains("no declared intent"), "{}", f.message);

        // Declared atomic with a conforming ordering: clean. The obs
        // ACTIVE intent allows Relaxed and SeqCst.
        let obs_ok = scan(
            "crates/obs/src/lib.rs",
            "fn enabled() -> bool { ACTIVE.load(Ordering::Relaxed) != 0 }\n",
            false,
        );
        let mut out = Vec::new();
        atomic_ordering_registry(&obs_ok, &mut out);
        assert!(out.is_empty(), "{out:?}");

        // Declared atomic with a non-conforming ordering: flagged with
        // the allowed set in the message.
        let obs_bad = scan(
            "crates/obs/src/jsonl.rs",
            "fn next() -> u64 { SEQ.fetch_add(1, Ordering::SeqCst) }\n",
            false,
        );
        let mut out = Vec::new();
        atomic_ordering_registry(&obs_bad, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("allowed: Relaxed"), "{}", out[0].message);

        // Ordering::Equal (the cmp enum) is not an atomic ordering.
        let cmp = findings_for("let o = x.cmp(&y) == Ordering::Equal;\n", false);
        assert!(cmp.iter().all(|f| f.rule != "atomic-ordering-registry"));
    }

    #[test]
    fn trace_span_coverage_requires_a_trace_type_or_a_registry_entry() {
        let run = |path: &str, src: &str| -> Vec<Finding> {
            let file = scan(path, src, false);
            let mut out = Vec::new();
            trace_span_coverage(&file, &mut out);
            out
        };
        let engine = "crates/engine/src/newpath.rs";

        // Untraced public query entry point: flagged.
        let bad = "pub fn query_fast(&self, k: usize) -> Vec<Hit> {\n    self.scan(k)\n}\n";
        let hits = run(engine, bad);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert!(hits[0].message.contains("query_fast"), "{}", hits[0].message);

        // Filling or returning a QueryTrace satisfies the rule.
        let filled = "pub fn query_fast(&self, k: usize) -> Vec<Hit> {\n    let mut t = QueryTrace::begin(self.s, 1);\n    self.scan(k, &mut t)\n}\n";
        assert!(run(engine, filled).is_empty());
        let sealed = "pub fn query_traced2(&self) -> (Vec<Hit>, QueryTrace) {\n    self.inner()\n}\n";
        assert!(run(engine, sealed).is_empty());

        // Registered delegates are sanctioned (sharded.rs `query` is in
        // TRACED_ENTRY_POINTS).
        let delegate = "pub fn query(&self, k: usize) -> Vec<Hit> {\n    self.query_with_info(k).0\n}\n";
        assert!(run("crates/engine/src/sharded.rs", delegate).is_empty());
        // ... but the same body elsewhere still flags.
        assert_eq!(run(engine, delegate).len(), 1);

        // Non-public and non-query functions are out of scope, as is
        // everything outside crates/engine.
        assert!(run(engine, "pub(crate) fn query_inner(&self) -> Vec<Hit> { self.s() }\n")
            .is_empty());
        assert!(run(engine, "pub fn rebuild(&mut self) { self.r() }\n").is_empty());
        assert!(run("crates/core/src/lib.rs", bad).is_empty());

        // Annotation suppresses.
        let allowed = "// lint: allow(trace-span) — bench-only probe\npub fn query_probe(&self) -> usize {\n    self.n()\n}\n";
        assert!(run(engine, allowed).is_empty());
    }

    #[test]
    fn unsafe_needs_a_declared_file_tests_included() {
        let run = |path: &str, src: &str, test_file: bool| -> Vec<Finding> {
            let mut out = Vec::new();
            unsafe_registry(&scan(path, src, test_file), &mut out);
            out
        };
        let block = "fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n";
        assert_eq!(run("crates/x/src/a.rs", block, false).len(), 1);
        // No test exemption: an undeclared test file is flagged too …
        assert_eq!(run("tests/other.rs", block, true).len(), 1);
        // … and the declared one is not.
        assert!(run("tests/embed_allocations.rs", block, true).is_empty());
        // The word in a comment, a string or the lint name is not a use.
        let talk = "#![forbid(unsafe_code)]\n// unsafe\nconst S: &str = \"unsafe\";\n";
        assert!(run("crates/x/src/lib.rs", talk, false).is_empty());
    }

    #[test]
    fn raw_print_registry_exempts_the_ops_server() {
        let src = "fn f() { eprintln!(\"accept failed\"); }\n";
        let allowed = scan("crates/obs/src/serve.rs", src, false);
        let mut out = Vec::new();
        no_raw_print_in_lib(&allowed, &mut out);
        assert!(out.is_empty(), "{out:?}");
        let other = scan("crates/obs/src/lib.rs", src, false);
        let mut out = Vec::new();
        no_raw_print_in_lib(&other, &mut out);
        assert_eq!(out.len(), 1, "unregistered file must still flag");
    }

    #[test]
    fn unknown_magic_is_flagged_known_is_not() {
        let unknown = findings_for("const M: &[u8; 8] = b\"ZZMAGIC9\";\n", false);
        assert!(unknown.iter().any(|f| f.rule == "checkpoint-magic-registry"));
        let known = findings_for("const M: &[u8; 8] = b\"T2HCKPT1\";\n", false);
        assert!(known.iter().all(|f| f.rule != "checkpoint-magic-registry"));
        // short/lowercase byte strings are not magics
        assert!(findings_for("let b = b\"ab\";\n", false).is_empty());
        assert!(findings_for("let b = b\"abcd\";\n", false).is_empty());
    }
}
