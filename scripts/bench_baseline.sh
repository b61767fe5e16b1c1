#!/usr/bin/env bash
# Measures the deterministic dispatch fractions and writes BENCH_baseline.json
# — what scripts/check.sh gates against (±10‰). Host-independent: run it after
# an intentional dispatch-policy change and commit the result.
#
# Usage: scripts/bench_baseline.sh [path]   (default: BENCH_baseline.json)
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

PATH_OUT="${1:-BENCH_baseline.json}"
cargo run --release -q -p cosplit-bench --bin bench_baseline -- write "$PATH_OUT"
echo "Baseline written. Commit $PATH_OUT so scripts/check.sh can gate on it."
