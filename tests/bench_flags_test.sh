#!/bin/sh
# A bench harness refuses a malformed number flag: it prints its usage,
# exits 1 and runs no cell, so it leaves no BENCH_*.json behind.
#
# Usage: bench_flags_test.sh <bench_reachability binary>
set -eu
bin=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"  # the harness writes BENCH_reachability.json into its working directory
for args in "--steps x" "--steps 8x" "--steps -1" "--n 4294967296" "--p 0.1x" "--timeout x"; do
  status=0
  # shellcheck disable=SC2086 # each case is a flag and its value
  "$bin" $args > out.txt 2> err.txt || status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: bench_reachability $args exited $status, expected 1"
    exit 1
  fi
  if ! grep -q "^usage: bench_reachability" err.txt; then
    echo "FAIL: bench_reachability $args printed no usage"
    exit 1
  fi
  if [ -n "$(ls BENCH_*.json 2> /dev/null)" ]; then
    echo "FAIL: bench_reachability $args wrote $(ls BENCH_*.json)"
    exit 1
  fi
done
echo "ok: bench_reachability refused every malformed number"
