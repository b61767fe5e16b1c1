#!/usr/bin/env bash
# Full offline verification: build, test, lint. The workspace has no
# registry dependencies (everything external lives in vendor/), so this
# runs without network access.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== sim smoke (differential oracle, fixed seed) =="
cargo run --release -q -p cosplit-bench --bin sim_smoke

echo "== audit smoke (effect-trace sanitizer + corpus lint sweep) =="
cargo run --release -q -p cosplit-bench --bin audit_smoke

echo "== matrix smoke (corpus-wide conflict-matrix derivation + pair verdicts) =="
cargo run --release -q -p cosplit-bench --bin matrix_smoke

echo "== state smoke (CoW snapshot cost stays flat as state grows) =="
cargo run --release -q -p cosplit-bench --bin state_smoke

echo "== trace smoke (exports parse, lifecycle coverage 100%, overhead < 1.5x) =="
cargo run --release -q -p cosplit-bench --bin trace_smoke

echo "== xshard smoke (cross-shard 2PC differential + DS share < 10%) =="
cargo run --release -q -p cosplit-bench --bin xshard_smoke

echo "== callgraph smoke (corpus call graph + composed-dispatch differential) =="
cargo run --release -q -p cosplit-bench --bin callgraph_smoke

echo "== precision smoke (no global ⊤, blame sweep, refined dispatch gate) =="
cargo run --release -q -p cosplit-bench --bin precision_smoke

echo "== hotpath smoke (compiled dispatch >= 1.05x AST, 0 hot clones) =="
cargo run --release -q -p cosplit-bench --bin hotpath_smoke

# Deterministic gate against the committed BENCH_baseline.json: fails when a
# dispatch fraction drifts past ±10‰ (host-independent; wall-clock claims
# live in BENCHMARK.json). Refresh with scripts/bench_baseline.sh.
echo "== bench baseline gate (dispatch fractions vs BENCH_baseline.json) =="
cargo run --release -q -p cosplit-bench --bin bench_baseline -- check BENCH_baseline.json

echo "All checks passed."
