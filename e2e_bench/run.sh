#!/usr/bin/env bash
# Builds the shipped server and the benchmark harness, then runs the
# harness with the arguments given:
#
#   e2e_bench/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload, one pass; the last line of standard output is the
#       result object BENCHMARK.json describes
#   e2e_bench/run.sh [--seed N] [--seconds S] [--rounds R]
#       the full set: every workload, both passes; prints
#       `workload metric value unit` and writes e2e_bench/out/results.json
#   e2e_bench/run.sh --check | --smoke
#
# Run it from the repository root. It exits non-zero, printing no result,
# if a build fails, the server binary is missing or dies, or (outside the
# one-workload form, which reports `correct`) a correctness check fails.
set -euo pipefail

here="$(dirname "$0")"
if [ ! -f Cargo.toml ] || [ ! -d crates/service ]; then
    echo "e2e_bench/run.sh: run from the root of a full checkout (no crates/service here)" >&2
    exit 1
fi
# One target directory for both workspaces, so the layer crates are
# compiled once. An absolute path, because cargo resolves a relative
# CARGO_TARGET_DIR against each invocation's working directory.
target="${CARGO_TARGET_DIR:-target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline -p cajade-service >&2
cargo build --release --offline --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/e2e_bench" \
    --server "$target/release/cajade-serve" \
    --out "$here/out" \
    "$@"
