#!/usr/bin/env bash
# Tier-1 CI gate for the Mnemonic workspace. Run from the repo root.
#
#   ./ci.sh         # full gate: fmt, clippy, release build, tests, bench compile,
#                   # benchmark self-test, perf gates, docs
#   ./ci.sh quick   # skip the release build, bench compile, benchmark self-test
#                   # and perf gates (inner dev loop)
#
# Every step must pass for the script to exit 0.

set -euo pipefail
cd "$(dirname "$0")"

quick="${1:-}"

step() {
    printf '\n==> %s\n' "$*"
    "$@"
}

# Perf gates print a machine-readable `gate-ratio: ...` line; gate_step
# captures it so the end of the run can print a one-line perf summary
# (the measured trajectory across skew / multi-query / shard / hot-path).
gate_ratios=""
gate_step() {
    printf '\n==> %s\n' "$*"
    local out
    out=$("$@" | tee /dev/stderr) || return 1
    local ratio
    ratio=$(printf '%s\n' "$out" | sed -n 's/^gate-ratio: //p' | head -1)
    if [ -n "$ratio" ]; then
        gate_ratios="${gate_ratios:+$gate_ratios | }$ratio"
    fi
}

step cargo fmt --all --check

step cargo clippy --workspace --all-targets -- -D warnings

if [ "$quick" != "quick" ]; then
    step cargo build --release
fi

step cargo test -q --workspace

if [ "$quick" != "quick" ]; then
    step cargo bench --workspace --no-run
    # Benchmark self-test: the standalone perfbench package (its own
    # workspace, path deps on the crates) drives the public API at micro
    # scale and checks that every BENCHMARK.json metric is printed, so a
    # core API change that breaks the benchmark fails here.
    step cargo test --release --offline --manifest-path perfbench/Cargo.toml
    # Skew-balancing smoke check: on a skewed enumeration workload the
    # work-stealing pool must not regress wall-clock vs the legacy static
    # chunking policy and must balance the load >= 1.3x better (projected
    # makespan on 4 cores; see crates/bench/src/bin/skew_smoke.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin skew_smoke
    # Shared-ingest smoke check: a 4-query session must beat 4 sequential
    # independent engines in total wall-clock on the multi-query workload
    # and report identical per-query embedding counts (see
    # crates/bench/src/bin/multi_query_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin multi_query_gate
    # Query-sharding smoke check: a 4-shard / 8-query sharded session must
    # report per-query embedding counts identical to an unsharded session,
    # project a >= 1.3x better 4-core makespan, and not regress wall-clock
    # (projection only: thread speedups are unmeasurable on a 1-core CI box;
    # see crates/bench/src/bin/shard_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin shard_gate
    # Hot-path smoke check: the allocation-free dense ingest path must beat
    # the retained pre-optimisation baseline path by >= 1.4x in batched
    # ingest wall-clock, with identical embedding counts — the one gate that
    # measures a real single-thread wall-clock win on this box (see
    # crates/bench/src/bin/hot_path_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin hot_path_gate
    # Rebalance smoke check: starting from an adversarial static placement
    # that stacks both heavy queries on one shard, the weight-aware
    # scheduler must auto-migrate to a placement with >= 1.25x better
    # projected makespan while keeping per-query embedding counts identical
    # to an unsharded oracle (see crates/bench/src/bin/rebalance_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin rebalance_gate
    # Serve smoke check: the pipelined ingest schedule (lanes stream through
    # the shared batch log with no per-batch barrier) must project a
    # >= 1.15x better makespan than the synchronous broadcast on a
    # label-phased skewed workload, with per-query embedding counts
    # identical to an unsharded oracle and identical batch boundaries (see
    # crates/bench/src/bin/serve_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin serve_gate
    # Paging smoke check: a sliding-window replay whose compressed spill
    # footprint is >= 10x the page-cache budget must stay embedding-exact
    # vs an in-memory session, keep resident pages within the configured
    # budget, absorb zero I/O errors, and compress >= 1.3x over the flat
    # record encoding (see crates/bench/src/bin/paging_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin paging_gate
    # Recovery smoke check: a seeded torn-write crash must recover an exact
    # reported prefix of the oracle record stream, a forced mid-batch lane
    # panic under a DegradePolicy must finish the pipelined run with counts
    # identical to an unfaulted oracle, and BlockTimeout overflow must land
    # in the shed tier only (zero under the lossless Block policy; see
    # crates/bench/src/bin/recovery_gate.rs).
    gate_step cargo run --release -q -p mnemonic-bench --bin recovery_gate
fi

step env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

if [ -n "$gate_ratios" ]; then
    printf '\nperf summary: %s\n' "$gate_ratios"
fi
printf 'ci.sh: all checks passed\n'
