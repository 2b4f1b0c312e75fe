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
#                       multi-reader concurrency tests (N readers pinning
#                       views under writer churn; every answer across
#                       200 hot swaps the old engine's or the new one's)
#   ./check.sh train    training suite only: traj2hash unit tests (one
#                       batch path bit-identical at 1..4 threads and
#                       above the slot count, resume bit-for-bit with and
#                       without a rollback) plus the divergence-guard,
#                       kernel-golden and torn-write integration tests
#   ./check.sh obs      observability suite only: traj-obs unit tests
#                       and the telemetry integration tests (JSONL
#                       round-trip of an instrumented train/serve
#                       workload with a degrade drill)
#   ./check.sh ops      ops-surface suite only: the per-query trace
#                       parity proptests (shard rows sum to the query's
#                       record, whose totals are the scan oracle's
#                       counts; stage clocks within the total; the path
#                       labels of a degrade drill; disabled-mode output
#                       byte-identical) and the end-to-end HTTP scrape
#                       of /metrics, /healthz, and /traces against a
#                       live engine (every flight line carries its
#                       stage clocks and per-shard paths)
#   ./check.sh lint     static analysis only: builds and runs traj-lint
#                       over the workspace (extra args are forwarded)
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
#   ./check.sh size     non-test Rust lines per crate: everything before
#                       the first `#[cfg(test)]` of each file under
#                       crates/*/src, as a table with the workspace total,
#                       then the crates that watch the system (lint+obs)
#                       beside the crates that are the paper (core+grid)
#   ./check.sh sanitize dynamic race detection: the shard concurrency
#                       suite under ThreadSanitizer (with -Zbuild-std so
#                       std's own atomics are instrumented). The workspace
#                       has no `unsafe` of its own (the workspace lint
#                       `unsafe_code = "deny"` in Cargo.toml), so there is
#                       nothing for Miri to interpret. Without a nightly
#                       toolchain carrying
#                       rust-src it runs the deterministic checks of the
#                       same protocol instead and says so in one line.
set -euo pipefail
cd "$(dirname "$0")"

# ThreadSanitizer needs -Zbuild-std, hence nightly with rust-src: against
# the prebuilt, uninstrumented std it reports false races on Arc/RwLock
# internals, and a raw run would be noise, not signal. Without it, what
# holds the publish protocol is deterministic: every interleaving of
# whole engine operations and of the flight ring (loomlet_publish) and
# the swap-atomicity stress cases (shard_concurrency). `$1` = "ran" when
# `cargo test --workspace` has just run those.
run_sanitize() {
    local checks="--test loomlet_publish --test shard_concurrency"
    if rustup run nightly rustc --version >/dev/null 2>&1 &&
        [[ -d "$(rustup run nightly rustc --print sysroot)/lib/rustlib/src/rust/library" ]]; then
        local host
        host="$(rustup run nightly rustc -vV | awk '/^host:/{print $2}')"
        echo "==> ThreadSanitizer on the shard concurrency suite (std rebuilt instrumented)"
        RUSTFLAGS="-Zsanitizer=thread" \
            cargo +nightly test -Zbuild-std --target "$host" -q --test shard_concurrency
    elif [[ "${1:-}" == "ran" ]]; then
        echo "sanitize: no nightly rust-src, so no ThreadSanitizer; the deterministic checks ran above (cargo test $checks)"
    else
        echo "sanitize: no nightly rust-src, so no ThreadSanitizer; running the deterministic checks instead: cargo test $checks"
        # shellcheck disable=SC2086 # deliberately split into arguments
        cargo test -q $checks
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

if [[ "${1:-}" == "train" ]]; then
    echo "==> cargo test -p traj2hash"
    cargo test -q -p traj2hash
    echo "==> cargo test --test fault_tolerance --test kernel_golden --test torn_writes"
    cargo test -q --test fault_tolerance --test kernel_golden --test torn_writes
    echo "Training checks passed."
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

# The search program end to end at 20-1 000 rows (seconds each): trains
# the tiny model and builds the one-shard engines. fig5 times the scan
# (degraded) and the Hamming paths; ext_indexes answers every strategy
# on a healthy engine, so the VP-tree path runs too.
run_search_tiny() {
    echo "==> fig5 + ext_indexes --scale tiny (the search-figure program through the serving engine)"
    cargo run -q --release -p traj-bench --bin fig5 -- --scale tiny >/dev/null
    cargo run -q --release -p traj-bench --bin ext_indexes -- --scale tiny >/dev/null
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

if [[ "${1:-}" == "size" ]]; then
    find crates/*/src -name '*.rs' | sort | xargs awk '
        FNR == 1 { counting = 1; split(FILENAME, part, "/"); crate = part[2] }
        /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
        counting { lines[crate]++; total++ }
        END {
            for (c in lines) printf "%-12s %6d\n", c, lines[c] | "sort"
            close("sort")
            printf "%-12s %6d\n", "workspace", total
            printf "%-12s %6d\n", "lint+obs", lines["lint"] + lines["obs"]
            printf "%-12s %6d\n", "core+grid", lines["core"] + lines["grid"]
        }'
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

run_search_tiny

run_t2h

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> traj-lint (repo-specific rules, see DESIGN.md section 10)"
cargo run -q --release -p traj-lint -- --root .

run_sanitize ran

echo "All checks passed."
