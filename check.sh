#!/usr/bin/env bash
# Full verification gate: release build, all tests, lint-clean.
# CI and pre-merge both run exactly this.
#
#   ./check.sh          full gate. Tests run as `cargo test -q --workspace`:
#                       every crate's unit tests and `crates/*/tests`, not
#                       only the root package's integration suites that the
#                       tier-1 command (`cargo build --release && cargo
#                       test -q`) covers
#   ./check.sh engine   serving-layer suite only: traj-engine unit tests,
#                       the parity / lifecycle / snapshot integration
#                       suite at 1 and 3 shards, the scan-oracle model
#                       test (shard counts 1..8, random op streams, all
#                       five strategies, query_many, readers) and the
#                       multi-reader concurrency test (N readers pinning
#                       generations under writer churn)
#   ./check.sh obs      observability suite only: traj-obs unit tests
#                       and the telemetry integration tests (JSONL
#                       round-trip of an instrumented train/serve
#                       workload with a degrade drill)
#   ./check.sh ops      ops-surface suite only: the per-query trace
#                       parity proptests (trace totals reconcile with
#                       the scan oracle's counts; disabled-mode output
#                       byte-identical) and the end-to-end HTTP scrape
#                       of /metrics, /healthz, and /traces against a
#                       live engine
#   ./check.sh lint     static analysis only: builds and runs traj-lint
#                       over the workspace (extra args are forwarded,
#                       e.g. ./check.sh lint --fix-list)
#   ./check.sh prune    pruned-driver suite only: the pruned==dense
#                       parity proptests (every measure, random corpora,
#                       thread counts) plus a 10K-database gt_bench
#                       smoke run that verifies recall 1.0 and a
#                       pruning rate of at least 90%
#   ./check.sh soak     bounded deterministic soak: 60 ticks of the
#                       always-on serving loop with porto→chengdu
#                       drift, injected write faults, and degrade
#                       drills; exports and self-validates the JSONL
#                       telemetry stream (target/soak.jsonl)
#   ./check.sh t2h      benchmark self-test: compiles t2h_bench (its own
#                       workspace) against the crates and runs all four
#                       workloads end to end at tiny scale — the only
#                       compile-and-run check of t2h_bench/src/api.rs
#   ./check.sh sanitize dynamic race/UB detection: the publish-cell unit
#                       tests and the loomlet enumerator's own tests
#                       under Miri, and the shard concurrency suite
#                       under ThreadSanitizer (with -Zbuild-std so std's
#                       own atomics are instrumented). Each layer that
#                       the installed toolchain cannot support is
#                       SKIPPED WITH A LOUD NOTICE — never silently.
set -euo pipefail
cd "$(dirname "$0")"

run_sanitize() {
    echo "==> sanitize: Miri (publish-cell unit tests) + ThreadSanitizer (shard concurrency)"
    local ran=0 skipped=0

    if ! rustup run nightly rustc --version >/dev/null 2>&1; then
        echo "NOTICE: sanitize SKIPPED entirely — no nightly toolchain installed."
        echo "NOTICE: install with: rustup toolchain install nightly --component miri rust-src"
        return 0
    fi
    local host
    host="$(rustup run nightly rustc -vV | awk '/^host:/{print $2}')"

    if cargo +nightly miri --version >/dev/null 2>&1; then
        echo "==> cargo +nightly miri test -p traj-engine cell::"
        # Miri interprets the interpreter-friendly unit layer: the
        # PublishCell pin/publish/poison tests, and the loomlet
        # enumerator itself (test tooling under tests/common, so it runs
        # through the suite that includes it).
        cargo +nightly miri test -p traj-engine cell::
        echo "==> cargo +nightly miri test --test loomlet_publish loomlet::"
        cargo +nightly miri test --test loomlet_publish loomlet::
        ran=$((ran + 1))
    else
        echo "NOTICE: Miri layer SKIPPED — cargo-miri is not installed for nightly."
        echo "NOTICE: install with: rustup component add miri --toolchain nightly"
        skipped=$((skipped + 1))
    fi

    local src_root
    src_root="$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library"
    if [[ -d "$src_root" ]]; then
        echo "==> ThreadSanitizer on the shard concurrency suite (std rebuilt instrumented)"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host" -q --test shard_concurrency
        ran=$((ran + 1))
    else
        # Without build-std the prebuilt std is uninstrumented and TSan
        # reports false races on Arc/RwLock internals, so a raw run
        # would be noise, not signal.
        echo "NOTICE: ThreadSanitizer layer SKIPPED — rust-src is not installed for nightly,"
        echo "NOTICE: and TSan needs -Zbuild-std to instrument std's own synchronization."
        echo "NOTICE: install with: rustup component add rust-src --toolchain nightly"
        skipped=$((skipped + 1))
    fi

    if [[ "$ran" -eq 0 ]]; then
        echo "NOTICE: sanitize ran 0 of 2 layers — toolchain support missing (see notices above)."
        echo "NOTICE: the deterministic fallback still runs in the main gate: the loomlet"
        echo "NOTICE: suite model-checks every publish-protocol interleaving without sanitizers."
    else
        echo "sanitize: $ran of 2 layers ran, $skipped skipped."
    fi
}

if [[ "${1:-}" == "obs" ]]; then
    echo "==> cargo test -p traj-obs"
    cargo test -q -p traj-obs
    echo "==> cargo test --test obs_telemetry"
    cargo test -q --test obs_telemetry
    echo "Observability checks passed."
    exit 0
fi

if [[ "${1:-}" == "engine" ]]; then
    echo "==> cargo test -p traj-engine"
    cargo test -q -p traj-engine
    echo "==> cargo test --test engine_parity --test shard_parity --test shard_concurrency"
    cargo test -q --test engine_parity --test shard_parity --test shard_concurrency
    echo "Engine checks passed."
    exit 0
fi

if [[ "${1:-}" == "soak" ]]; then
    echo "==> bounded deterministic soak (fixed seed, faults injected, JSONL self-validated)"
    rm -rf target/soak-work
    OBS_JSONL=target/soak.jsonl cargo run -q --release -p traj-soak -- \
        --ticks 60 --seed 77 --workdir target/soak-work
    echo "Soak check passed (JSONL at target/soak.jsonl)."
    exit 0
fi

run_gt_smoke() {
    echo "==> gt_bench --smoke (10K database; asserts recall 1.0 and pruning rate >= 90%)"
    cargo run -q --release -p traj-bench --bin gt_bench -- --smoke
}

if [[ "${1:-}" == "prune" ]]; then
    echo "==> cargo test --test prune_parity (pruned == dense, property-based)"
    cargo test -q --test prune_parity
    run_gt_smoke
    echo "Pruned-driver checks passed."
    exit 0
fi

if [[ "${1:-}" == "ops" ]]; then
    echo "==> cargo test --test trace_parity (traces agree with the engine they observe)"
    cargo test -q --test trace_parity
    echo "==> cargo test --test ops_surface (HTTP scrape: /metrics exposition, /healthz, /traces)"
    cargo test -q --test ops_surface
    echo "Ops-surface checks passed."
    exit 0
fi

run_t2h() {
    echo "==> t2h_bench self-test (api.rs against the workspace, four workloads end to end)"
    cargo test -q --manifest-path t2h_bench/Cargo.toml
}

if [[ "${1:-}" == "t2h" ]]; then
    run_t2h
    exit 0
fi

if [[ "${1:-}" == "sanitize" ]]; then
    run_sanitize
    exit 0
fi

if [[ "${1:-}" == "lint" ]]; then
    shift
    echo "==> traj-lint"
    cargo run -q --release -p traj-lint -- --root . "$@"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

run_gt_smoke

run_t2h

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> traj-lint (repo-specific rules, see DESIGN.md section 10)"
cargo run -q --release -p traj-lint -- --root .

run_sanitize

echo "All checks passed."
