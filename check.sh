#!/usr/bin/env bash
# Full verification gate: release build, all tests, lint-clean, and the
# bit-pinning tests again on the baseline ISA. CI and pre-merge both run
# exactly this. Builds target x86-64-v3 (.cargo/config.toml); a RUSTFLAGS
# in the environment replaces that flag, and every leg but `portable` and
# `size` warns when one is set.
#
#   ./check.sh          full gate. Tests run as `cargo test -q --workspace`:
#                       every crate's unit tests and `crates/*/tests`, not
#                       only the root package's integration suites that the
#                       tier-1 command (`cargo build --release && cargo
#                       test -q`) covers
#   ./check.sh engine   serving-layer suite only: traj-engine and
#                       traj-index unit and property tests (the radius-2
#                       table and its probe order against a brute-force
#                       ball at 16-128 bits), the per-query trace parity
#                       test (candidate counts equal the scan oracle's),
#                       the parity / lifecycle / snapshot integration
#                       suite at 1 and 3 shards, the scan-oracle model
#                       test (shard counts 1..8, random op streams, all
#                       five strategies, query_many, readers), the
#                       multi-reader concurrency tests (N readers pinning
#                       views under writer churn; every answer across
#                       200 hot swaps the old engine's or the new one's)
#                       and the refresh-under-faults test (30 ticks of
#                       ingest, fine-tune → snapshot → hot swap on fixed
#                       ticks, heartbeat snapshots and degrade drills,
#                       every write under a fault plan; ends healthy,
#                       matches a fresh rebuild, JSONL validates), plus
#                       the telemetry JSONL round-trip: the engine's
#                       per-query histograms exist only in its obs
#                       mirror, and that suite exports and re-reads it
#   ./check.sh train    training suite only: traj2hash unit tests (one
#                       batch path bit-identical at 1..4 threads and
#                       above the slot count, resume bit-for-bit with and
#                       without a rollback), tinynn's unit and integration
#                       tests (the row-0 last block bit-identical to row
#                       0 of the full block, kernels bit-identical to
#                       their references: the softmax against a serial
#                       f32::max reference, the narrow Q*K^T regime against
#                       a dot_lanes-order reference; gradient checks) plus the
#                       divergence-guard, kernel-golden, inference-parity
#                       and torn-write integration tests
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
#   ./check.sh portable the bits on the baseline ISA: .cargo/config.toml
#                       builds everything for x86-64-v3 (AVX2, FMA, POPCNT);
#                       this leg rebuilds with RUSTFLAGS="-C
#                       target-cpu=x86-64" into target/portable and runs
#                       the kernel goldens, the inference parity test and
#                       tinynn's tests there (with the softmax and narrow
#                       Q*K^T reference checks), so the same constants
#                       hold on both ISAs (the full gate runs it too)
#   ./check.sh lint     static analysis only: the clippy gate (the
#                       crate-root lint levels, clippy.toml's disallowed
#                       methods, every `#[expect]` still fulfilled; see
#                       DESIGN.md section 10)
#   ./check.sh prune    pruned-driver suite only: the pruned==dense
#                       parity proptests (every measure, random corpora,
#                       thread counts) plus a 10K-database gt_bench
#                       smoke run that verifies recall 1.0 and a
#                       pruning rate of at least 90%
#   ./check.sh t2h      benchmark self-test: compiles t2h_bench (its own
#                       workspace) against the crates and runs all four
#                       workloads end to end at tiny scale — the only
#                       compile-and-run check of t2h_bench/src/api.rs
#   ./check.sh size     non-test Rust lines per crate: everything before
#                       the first `#[cfg(test)]` of each file under
#                       crates/*/src, as a table with the workspace total,
#                       then the crate that watches the system (obs)
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

# A RUSTFLAGS (or CARGO_ENCODED_RUSTFLAGS) in the environment replaces the
# config's `-C target-cpu=x86-64-v3` rather than adding to it, so every leg
# but the portable one would silently build for the baseline ISA.
if [[ -n "${RUSTFLAGS:-}${CARGO_ENCODED_RUSTFLAGS:-}" && "${1:-}" != "portable" && "${1:-}" != "size" ]]; then
    echo "warning: RUSTFLAGS is set and replaces .cargo/config.toml's -C target-cpu=x86-64-v3;" \
        "this run builds for the ISA it names, not the one that serves" >&2
fi

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
    echo "==> cargo test -p tinynn"
    cargo test -q -p tinynn
    echo "==> cargo test --test fault_tolerance --test kernel_golden --test infer_parity --test torn_writes"
    cargo test -q --test fault_tolerance --test kernel_golden --test infer_parity --test torn_writes
    echo "Training checks passed."
    exit 0
fi

# The default build targets x86-64-v3 (.cargo/config.toml); RUSTFLAGS
# replaces that flag, and its own target dir keeps the two builds apart.
run_portable() {
    echo "==> baseline x86-64: cargo test --test kernel_golden --test infer_parity, cargo test -p tinynn"
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
        cargo test -q --test kernel_golden --test infer_parity
    RUSTFLAGS="-C target-cpu=x86-64" CARGO_TARGET_DIR=target/portable \
        cargo test -q -p tinynn
}

if [[ "${1:-}" == "portable" ]]; then
    run_portable
    echo "Portable checks passed."
    exit 0
fi

if [[ "${1:-}" == "engine" ]]; then
    echo "==> cargo test -p traj-engine -p traj-index"
    cargo test -q -p traj-engine -p traj-index
    echo "==> cargo test --test engine_parity --test shard_parity --test trace_parity --test shard_concurrency --test soak_e2e --test obs_telemetry"
    cargo test -q --test engine_parity --test shard_parity --test trace_parity --test shard_concurrency --test soak_e2e --test obs_telemetry
    echo "Engine checks passed."
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
            printf "%-12s %6d\n", "obs", lines["obs"]
            printf "%-12s %6d\n", "core+grid", lines["core"] + lines["grid"]
        }'
    exit 0
fi

run_lint() {
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
}

if [[ "${1:-}" == "lint" ]]; then
    run_lint
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q --workspace"
cargo test -q --workspace

run_portable

run_gt_smoke

run_search_tiny

run_t2h

run_lint

run_sanitize ran

echo "All checks passed."
