#!/usr/bin/env bash
# The benchmark's CI job: build the package offline, run its unit
# tests, then run every workload briefly (end-to-end and per-layer)
# and require a correct result with nothing failed. Called by whoever
# wires the workflows; timings from a 3-second run mean nothing and
# are not looked at.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --offline
cargo test --release --offline -q

bin="${CARGO_TARGET_DIR:-target}/release/benchmark"
"$bin" contract | cmp - ../BENCHMARK.json

for workload in probe_uniform prune_clustered exact_skewed cells_uniform; do
  for trace in 0 1; do
    summary="$("$bin" run --workload "$workload" --seed 1 --seconds 3 --trace "$trace" | tail -n 1)"
    case "$summary" in
      '{"correct": true, '*'"failed": 0, '*) echo "ok $workload trace=$trace" ;;
      *) echo "FAILED $workload trace=$trace: $summary" >&2; exit 1 ;;
    esac
  done
done
