#!/usr/bin/env bash
# Full offline verification in four steps: build, test, lint, and the
# benchmark's self-check. The workspace has no registry dependencies
# (everything external lives in vendor/), so this runs without network
# access. `cargo test` is the one correctness gate (every oracle runs
# there); `perfbench` is the one stopwatch (BENCHMARK.json).
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "== cargo build --release =="
cargo build --release --workspace

echo "== cargo test =="
cargo test --workspace -q

echo "== cargo clippy =="
cargo clippy --workspace --all-targets -- -D warnings

# perfbench is a package of its own, so nothing above compiles it: a
# product-API change that breaks the benchmark, or its independent model on
# a 3-epoch run of each workload, fails here instead of in the pipeline.
echo "== perfbench selfcheck =="
cargo run --release --quiet --manifest-path perfbench/Cargo.toml -- selfcheck

echo "All checks passed."
