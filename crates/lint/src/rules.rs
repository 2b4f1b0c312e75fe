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

use crate::registry::{COMPUTE_CALLS, LOCK_HELPERS, RAW_PRINT_ALLOWED};
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
    /// The offending line, trimmed.
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
    "no-panic-in-engine",
    "no-raw-print-in-lib",
    "no-bare-lock",
    "no-guard-across-compute",
    "no-lossy-as-cast",
];

/// Short aliases accepted in `// lint: allow(...)` annotations.
fn rule_aliases(rule: &str) -> &[&str] {
    match rule {
        "no-float-partial-cmp-sort" => &["partial-cmp", "no-float-partial-cmp-sort"],
        "no-unwrap-in-lib" => &["unwrap", "no-unwrap-in-lib"],
        "no-panic-in-engine" => &["panic", "no-panic-in-engine"],
        "no-raw-print-in-lib" => &["raw-print", "no-raw-print-in-lib"],
        "no-bare-lock" => &["bare-lock", "no-bare-lock"],
        "no-guard-across-compute" => &["guard-across-compute", "no-guard-across-compute"],
        "no-lossy-as-cast" => &["lossy-cast", "no-lossy-as-cast"],
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

/// The print macros `no-raw-print-in-lib` looks for.
pub(crate) const RAW_PRINTS: &[&str] = &["println!", "eprintln!", "print!(", "eprint!("];

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
    scan_lines(
        file,
        "no-raw-print-in-lib",
        "raw stdout/stderr print in library code; emit a traj_obs event or return the text",
        out,
        |masked| RAW_PRINTS.iter().any(|p| masked.contains(p)),
    );
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

/// Runs every rule applicable to `file`. `lib_crate` gates the
/// unwrap and lossy-cast rules: binaries and dev-tooling crates
/// (bench, lint) may unwrap and cast, library crates may not.
pub fn check_file(file: &ScannedFile, lib_crate: bool, out: &mut Vec<Finding>) {
    no_float_partial_cmp_sort(file, out);
    if lib_crate {
        no_unwrap_in_lib(file, out);
        no_lossy_as_cast(file, out);
    }
    no_panic_in_engine(file, out);
    no_raw_print_in_lib(file, out);
    no_bare_lock(file, out);
    no_guard_across_compute(file, out);
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
}
