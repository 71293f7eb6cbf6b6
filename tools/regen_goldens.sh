#!/usr/bin/env bash
# Regenerate every golden trace under tests/golden/ and the paper figures
# under bench/figures/ from the current tree.
#
# Run this only when a commit intentionally changes the telemetry schema or
# simulation behaviour, and commit the refreshed goldens together with the
# change (see tests/golden/README.md).  After regenerating, the script
# re-runs the golden suites without GH_UPDATE_GOLDEN and Figures.MatchCommitted
# to prove the new files verify byte-exact.
#
# Usage: tools/regen_goldens.sh [build-dir]   (default: build)
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${1:-$repo_root/build}"

if [[ ! -d "$build_dir" ]]; then
  echo "error: build directory '$build_dir' not found" >&2
  echo "configure first: cmake -S $repo_root -B $build_dir -G Ninja" >&2
  exit 1
fi

cmake --build "$build_dir" -j \
  --target telemetry_golden_test failure_injection_test greenhetero_cli \
  reproduce figures_test

echo "==> regenerating golden traces"
GH_UPDATE_GOLDEN=1 "$build_dir/tests/telemetry_golden_test" \
  --gtest_filter='*Golden*'
GH_UPDATE_GOLDEN=1 "$build_dir/tests/failure_injection_test" \
  --gtest_filter='*Golden*'
"$build_dir/tools/greenhetero" simulate --days 1 --seed 42 \
  --trace-out "$repo_root/tests/golden/trace_cli_sim.jsonl"

echo "==> regenerating paper figures"
rm -f "$repo_root"/bench/figures/*.json
GH_BENCH_OUT_DIR="$repo_root/bench/figures" "$build_dir/bench/reproduce" \
  > /dev/null

echo "==> verifying regenerated goldens"
"$build_dir/tests/telemetry_golden_test" --gtest_filter='*Golden*'
"$build_dir/tests/failure_injection_test" --gtest_filter='*Golden*'

"$build_dir/tests/figures_test" --gtest_filter='Figures.MatchCommitted'

echo "==> done; review with: git diff --stat tests/golden/ bench/figures/"
