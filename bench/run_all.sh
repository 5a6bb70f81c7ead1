#!/usr/bin/env bash
# Rebuild Release and refresh every BENCH_*.json baseline in the repo root.
#
#   bench/run_all.sh                # configure+build ${BUILD_DIR:-build}, run all
#   BUILD_DIR=out bench/run_all.sh  # use a different build tree
#   SKIP_BUILD=1 bench/run_all.sh   # binaries are already fresh (bench_all target)
#
# Every harness writes BENCH_<name>.json into the working directory, so this
# script always runs them from the repository root — the committed baselines
# live there and a run refreshes them in place.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$root/build}"

if [[ "${SKIP_BUILD:-0}" != "1" ]]; then
  cmake -S "$root" -B "$build" -DCMAKE_BUILD_TYPE=Release
  cmake --build "$build" -j"$(nproc)"
fi

benches=(bench_table1 bench_table2 bench_ablation bench_parallel bench_reachability
         bench_statevector bench_sparse bench_cache)

cd "$root"
status=0
for bench in "${benches[@]}"; do
  exe="$build/$bench"
  if [[ ! -x "$exe" ]]; then
    echo "run_all: missing $exe (configure with -DQTS_BUILD_BENCH=ON?)" >&2
    status=1
    continue
  fi
  echo "==> $bench"
  if ! "$exe"; then
    echo "run_all: $bench failed" >&2
    status=1
  fi
  echo
done
exit $status
