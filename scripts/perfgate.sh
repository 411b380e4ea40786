#!/usr/bin/env bash
# Performance gate: re-run the gated experiments (B9 statistics cache,
# B12 kernel overhaul, B13 parallel batched ingest, B14 exact discovery
# on near-miss columns, B15 snapshot persistence, B16 incremental
# re-validation, B17 resident dataset pool) and compare their -json
# metrics against the checked-in BENCH_<id>.json baselines via
# cmd/perfgate — wall-time metrics within
# a generous multiplicative tolerance (CI machines differ; regressions
# we care about are step changes, not jitter), allocation metrics as
# hard ceilings. Regenerate a baseline after an intentional perf change
# with:
#
#   go run ./cmd/bench -run B12 -json BENCH_B12.json
#
# (and likewise for the other gated ids).
set -euo pipefail
cd "$(dirname "$0")/.."

TOLERANCE="${TOLERANCE:-2.0}"

tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

for id in B9 B12 B13 B14 B15 B16 B17; do
  echo "==> bench -run ${id}"
  go run ./cmd/bench -run "${id}" -json "$tmp"

  echo "==> perfgate vs BENCH_${id}.json (tolerance ${TOLERANCE}x)"
  go run ./cmd/perfgate -id "${id}" -baseline "BENCH_${id}.json" -current "$tmp" -tolerance "$TOLERANCE"
done
