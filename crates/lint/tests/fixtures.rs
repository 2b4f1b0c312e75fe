//! Fixture tests: one failing and one passing fixture per lint rule.
//!
//! For each rule, `fixtures/<rule>/fail.rs` must produce diagnostics
//! that exactly match the committed snapshot `fail.expected` (trybuild
//! style — set `UPDATE_LINT_SNAPSHOTS=1` to regenerate after an
//! intentional message change), and `pass.rs` must produce none.
//!
//! A second test runs the actual `traj-lint` binary against a throwaway
//! tree, pinning the acceptance criterion: a violation exits non-zero
//! and a clean tree exits zero.

use std::path::{Path, PathBuf};
use std::process::Command;
use traj_lint::rules::{self, Finding};
use traj_lint::source::scan;

/// Runs exactly one rule (by id) over a fixture file, with the
/// synthetic repo-relative path a real scan would use.
fn run_rule(rule: &str, fixture: &Path, which: &str) -> Vec<Finding> {
    let text = std::fs::read_to_string(fixture)
        .unwrap_or_else(|e| panic!("read {}: {e}", fixture.display()));
    // The engine rule is path-scoped; everything else gets a neutral
    // library-crate path.
    let path = if rule == "no-panic-in-engine" {
        format!("crates/engine/src/{which}.rs")
    } else {
        format!("crates/demo/src/{which}.rs")
    };
    let file = scan(&path, &text, false);
    let mut out = Vec::new();
    match rule {
        "no-float-partial-cmp-sort" => rules::no_float_partial_cmp_sort(&file, &mut out),
        "no-unwrap-in-lib" => rules::no_unwrap_in_lib(&file, &mut out),
        "no-panic-in-engine" => rules::no_panic_in_engine(&file, &mut out),
        "no-raw-print-in-lib" => rules::no_raw_print_in_lib(&file, &mut out),
        "no-bare-lock" => rules::no_bare_lock(&file, &mut out),
        "no-guard-across-compute" => rules::no_guard_across_compute(&file, &mut out),
        "no-lossy-as-cast" => rules::no_lossy_as_cast(&file, &mut out),
        other => panic!("unknown rule {other}"),
    }
    out
}

fn fixture_dir(rule: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(rule)
}

fn render(findings: &[Finding]) -> String {
    let mut s = findings.iter().map(|f| format!("{f}\n")).collect::<String>();
    if s.is_empty() {
        s.push('\n');
    }
    s
}

/// Snapshot-checks the failing fixture and asserts the passing fixture
/// is silent, for one rule.
fn check_rule_fixtures(rule: &str) {
    let dir = fixture_dir(rule);

    let fail = run_rule(rule, &dir.join("fail.rs"), "fail");
    assert!(!fail.is_empty(), "{rule}: fail.rs produced no findings");
    assert!(fail.iter().all(|f| f.rule == rule), "{rule}: wrong rule id in {fail:?}");
    let rendered = render(&fail);
    let snapshot = dir.join("fail.expected");
    if std::env::var_os("UPDATE_LINT_SNAPSHOTS").is_some() {
        std::fs::write(&snapshot, &rendered).expect("write snapshot");
    } else {
        let expected = std::fs::read_to_string(&snapshot)
            .unwrap_or_else(|e| panic!("{rule}: missing snapshot {}: {e}", snapshot.display()));
        assert_eq!(
            rendered, expected,
            "{rule}: diagnostics drifted from fail.expected \
             (rerun with UPDATE_LINT_SNAPSHOTS=1 if intentional)"
        );
    }

    let pass = run_rule(rule, &dir.join("pass.rs"), "pass");
    assert!(pass.is_empty(), "{rule}: pass.rs was flagged: {pass:?}");
}

#[test]
fn fixture_no_float_partial_cmp_sort() {
    check_rule_fixtures("no-float-partial-cmp-sort");
}

#[test]
fn fixture_no_unwrap_in_lib() {
    check_rule_fixtures("no-unwrap-in-lib");
}

#[test]
fn fixture_no_panic_in_engine() {
    check_rule_fixtures("no-panic-in-engine");
}

#[test]
fn fixture_no_raw_print_in_lib() {
    check_rule_fixtures("no-raw-print-in-lib");
}

#[test]
fn fixture_no_bare_lock() {
    check_rule_fixtures("no-bare-lock");
}

#[test]
fn fixture_no_guard_across_compute() {
    check_rule_fixtures("no-guard-across-compute");
}

#[test]
fn fixture_no_lossy_as_cast() {
    check_rule_fixtures("no-lossy-as-cast");
}

/// Both ways: every rule has its fixture triple, and every fixture
/// directory names a rule — a deleted rule cannot leave fixtures behind.
#[test]
fn every_rule_has_fixture_coverage() {
    for rule in rules::RULES {
        let dir = fixture_dir(rule);
        for name in ["fail.rs", "pass.rs", "fail.expected"] {
            assert!(dir.join(name).is_file(), "missing fixtures/{rule}/{name}");
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    for entry in std::fs::read_dir(&root).expect("read fixtures/") {
        let name = entry.expect("fixtures/ entry").file_name();
        let name = name.to_string_lossy();
        assert!(rules::RULES.contains(&name.as_ref()), "fixtures/{name} names no rule in RULES");
    }
}

// ---------------------------------------------------------------------
// End-to-end: the built binary against a throwaway repo tree.
// ---------------------------------------------------------------------

/// A scratch repo tree under the target dir; removed on drop.
struct TempTree {
    root: PathBuf,
}

impl TempTree {
    fn new(tag: &str) -> Self {
        let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("lint-e2e-{tag}"));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("crates/demo/src")).expect("mkdir");
        Self { root }
    }

    fn write(&self, rel: &str, text: &str) {
        let path = self.root.join(rel);
        std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        std::fs::write(path, text).expect("write");
    }
}

impl Drop for TempTree {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

fn lint_cmd(root: &Path) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_traj-lint"));
    cmd.arg("--root").arg(root);
    cmd
}

#[test]
fn binary_exits_nonzero_on_violation_and_zero_when_clean() {
    let tree = TempTree::new("exit-codes");
    tree.write(
        "crates/demo/src/lib.rs",
        "pub fn rank(xs: &mut [f32]) {\n    xs.sort_by(|a, b| a.partial_cmp(b).unwrap());\n}\n",
    );

    let dirty = lint_cmd(&tree.root).output().expect("run traj-lint");
    assert_eq!(dirty.status.code(), Some(1), "violation must exit 1");
    let stdout = String::from_utf8_lossy(&dirty.stdout);
    assert!(stdout.contains("no-float-partial-cmp-sort"), "stdout: {stdout}");
    assert!(stdout.contains("crates/demo/src/lib.rs:2"), "stdout: {stdout}");

    tree.write(
        "crates/demo/src/lib.rs",
        "pub fn rank(xs: &mut [f32]) {\n    xs.sort_by(f32::total_cmp);\n}\n",
    );
    let clean = lint_cmd(&tree.root).output().expect("run traj-lint");
    assert_eq!(clean.status.code(), Some(0), "clean tree must exit 0");
    assert!(String::from_utf8_lossy(&clean.stdout).contains("traj-lint: clean"));
}
